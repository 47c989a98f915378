"""Grid-robot world state and coverage interpreter.

A world is a square grid of cells (wall, or 0..9 markers) plus a hero pose
(row, col, facing). The border beyond the grid is solid wall. Executing a
program against a world yields a coverage report: one 0/1 hit vector over the
program's coverage units in report order, first one unit per statement
(marked when the statement is entered, so a crashing statement still counts),
then a true/false outcome pair per condition site. Runtime faults are data on
the report, never exceptions: wall_crash, no_marker, marker_overflow,
step_cap.

execute walks the program tree on plain Python values. The grid becomes a
flat list of ints with a one-cell wall border, so a move or a *IsClear test is
one list read; the hero is one flat index plus a facing index 0..3 into NESW.
Fuel is one unit per primitive action and one per condition check, spent
before the action or check runs; not() and repeat iterations cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import grid_cell, integer_cells

FACINGS = "NESW"

WALL = -1
MAX_MARKERS = 9


@dataclass(eq=False)  # identity equality: a field-wise == would raise on the grid array
class KarelWorld:
    """grid: int8 (side, side); -1 wall, 0 empty, k in 1..9 markers.
    hero: (row, col) integers on a non-wall cell, stored as two Python ints.
    facing: one of the letters 'N', 'E', 'S', 'W'."""

    grid: np.ndarray
    hero: tuple
    facing: str

    def __post_init__(self):
        # -1 (wall) or 0..9 (markers), checked before the int8 cast.
        self.grid = np.asarray(integer_cells(self.grid, WALL, MAX_MARKERS, "grid"), dtype=np.int8)
        if self.grid.ndim != 2 or self.grid.shape[0] != self.grid.shape[1]:
            raise ValueError(f"grid must be square, got shape {self.grid.shape}")
        if self.grid.shape[0] < 1:
            raise ValueError("grid must have at least one cell")
        hero = grid_cell(self.hero, "hero")
        side = self.grid.shape[0]
        if not (0 <= hero[0] < side and 0 <= hero[1] < side):
            raise ValueError(f"hero {hero} out of bounds for side {side}")
        if self.grid[hero] == WALL:
            raise ValueError(f"hero {hero} stands on a wall")
        # A membership test on the string itself would pass "", "NE" or "NESW".
        if self.facing not in tuple(FACINGS):
            raise ValueError(f"facing must be one of {tuple(FACINGS)}, got {self.facing!r}")
        self.hero = hero

    @property
    def side(self):
        return int(self.grid.shape[0])


@dataclass
class CoverageReport:
    """hits: (n_statements + 2 * n_branches,) int8 in report order. hits[i]
    is 1 iff the statement with pre-order id i was entered, and
    hits[n_statements + 2b] and hits[n_statements + 2b + 1] iff condition
    site b came out true and false."""

    hits: np.ndarray
    error: str = None  # wall_crash | no_marker | marker_overflow | step_cap | None
    steps: int = 0

    def covered(self):
        return int(self.hits.sum())


class _Halt(Exception):
    def __init__(self, error):
        self.error = error


def execute(program, world, step_cap=1000):
    """Run the program on a private copy of the world's cells; never raises
    for runtime faults. Loop re-checks spend fuel like any condition check."""
    side = world.side
    width = side + 2
    cells = [WALL] * (width + 1)
    for row in world.grid.tolist():
        cells += row
        cells += (WALL, WALL)  # this row's east border, the next row's west border
    cells += [WALL] * (width - 1)
    ahead = (-width, 1, width, -1)  # flat offset one cell along each facing
    pos = (world.hero[0] + 1) * width + world.hero[1] + 1
    facing = FACINGS.index(world.facing)
    steps = 0
    hits = [0] * (program.n_statements + 2 * program.n_branches)
    outcomes = program.n_statements  # the true unit of branch site 0

    def holds(cond):
        name = cond.name
        if name == "not":
            return not holds(cond.inner)
        if name == "frontIsClear":
            return cells[pos + ahead[facing]] != WALL
        if name == "leftIsClear":
            return cells[pos + ahead[(facing + 3) % 4]] != WALL
        if name == "rightIsClear":
            return cells[pos + ahead[(facing + 1) % 4]] != WALL
        if name == "markersPresent":
            return cells[pos] > 0
        return cells[pos] == 0  # noMarkersPresent

    def check(stmt):
        nonlocal steps
        if steps >= step_cap:
            raise _Halt("step_cap")
        steps += 1
        taken = holds(stmt.cond)
        hits[outcomes + 2 * stmt.branch_id + (not taken)] = 1
        return taken

    def run(stmts):
        nonlocal pos, facing, steps
        for s in stmts:
            hits[s.stmt_id] = 1
            kind = s.kind
            if kind == "if":
                if check(s):
                    run(s.body)
            elif kind == "ifElse":
                run(s.body if check(s) else s.orelse)
            elif kind == "while":
                while check(s):
                    run(s.body)
            elif kind == "repeat":
                for _ in range(s.count):
                    run(s.body)
            else:  # a primitive action
                if steps >= step_cap:
                    raise _Halt("step_cap")
                steps += 1
                if kind == "move":
                    dest = pos + ahead[facing]
                    if cells[dest] == WALL:
                        raise _Halt("wall_crash")
                    pos = dest
                elif kind == "turnLeft":
                    facing = (facing + 3) % 4
                elif kind == "turnRight":
                    facing = (facing + 1) % 4
                elif kind == "putMarker":
                    if cells[pos] >= MAX_MARKERS:
                        raise _Halt("marker_overflow")
                    cells[pos] += 1
                else:  # pickMarker
                    if cells[pos] == 0:
                        raise _Halt("no_marker")
                    cells[pos] -= 1

    error = None
    try:
        run(program.body)
    except _Halt as halt:
        error = halt.error
    return CoverageReport(hits=np.array(hits, dtype=np.int8), error=error, steps=steps)
