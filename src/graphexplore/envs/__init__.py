"""The environments: mazes (`maze`), app transition graphs (`appgraph`) and
grid-robot program coverage (`karel`)."""


def grid_cell(value, name):
    """`value` as a (row, col) pair of Python ints. Anything that is not a
    pair of integers raises ValueError naming the field `name`."""
    try:
        r, c = value
        cell = (int(r), int(c))
        integral = cell == (r, c)
    except (TypeError, ValueError, ArithmeticError):
        integral = False
    if not integral:
        raise ValueError(f"{name} {value!r} is not a (row, col) pair of integers")
    return cell
