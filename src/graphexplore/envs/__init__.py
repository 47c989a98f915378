"""The environments: mazes (`maze`), app transition graphs (`appgraph`) and
grid-robot program coverage (`karel`)."""

import numpy as np


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


def integer_cells(values, low, high, name):
    """`values` as an array, once every value is checked to be an integer in
    low..high, so no later cast to a narrow dtype can wrap or truncate it.
    The first value that is not, in row-major order, raises ValueError naming
    the field `name` and its cell."""
    given = np.asarray(values)
    try:
        ok = (given >= low) & (given <= high)
        if given.dtype.kind not in "biu":  # floats and objects must also be whole
            with np.errstate(invalid="ignore"):  # inf % 1 is nan; the range rejects it
                ok &= given % 1 == 0
    except TypeError:  # values with no order or remainder, such as strings
        ok = np.zeros(given.shape, dtype=bool)
    if not ok.all():
        cell = tuple(int(i) for i in np.unravel_index(np.flatnonzero(~ok)[0], given.shape))
        raise ValueError(f"{name} cell {cell} holds {given[cell].item()!r}, "
                         f"not an integer in {low}..{high}")
    return given
