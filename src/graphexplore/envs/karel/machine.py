"""Grid-robot world state and coverage interpreter.

A world is a square grid of cells (wall, or 0..9 markers) plus a hero pose
(row, col, facing). The border beyond the grid is solid wall. Executing a
program against a world yields a coverage report: one bit per statement
(marked when the statement is entered, so a crashing statement still counts)
and a true/false outcome pair per condition site. Runtime faults are data on
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

FACINGS = "NESW"

WALL = -1
MAX_MARKERS = 9


@dataclass(eq=False)  # identity equality: a field-wise == would raise on the grid array
class KarelWorld:
    """grid: int8 (side, side); -1 wall, 0 empty, k in 1..9 markers.
    hero: (row, col) on a non-wall cell. facing: one of 'NESW'."""

    grid: np.ndarray
    hero: tuple
    facing: str

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.int8)
        if self.grid.ndim != 2 or self.grid.shape[0] != self.grid.shape[1]:
            raise ValueError(f"grid must be square, got shape {self.grid.shape}")
        if self.grid.shape[0] < 1:
            raise ValueError("grid must have at least one cell")
        bad = (self.grid < WALL) | (self.grid > MAX_MARKERS)
        if bad.any():
            raise ValueError("grid cells must be -1 (wall) or 0..9 (markers)")
        r, c = self.hero
        side = self.grid.shape[0]
        if not (0 <= r < side and 0 <= c < side):
            raise ValueError(f"hero {self.hero} out of bounds for side {side}")
        if self.grid[r, c] == WALL:
            raise ValueError(f"hero {self.hero} stands on a wall")
        if self.facing not in FACINGS:
            raise ValueError(f"facing must be one of {FACINGS!r}, got {self.facing!r}")
        self.hero = (int(r), int(c))

    @property
    def side(self):
        return int(self.grid.shape[0])


@dataclass
class CoverageReport:
    """stmt_hit[i] is 1 iff statement with pre-order id i was entered.
    branch_hit[b] is an [taken_true, taken_false] pair for condition site b."""

    stmt_hit: np.ndarray
    branch_hit: np.ndarray  # (n_branches, 2) int8
    error: str = None  # wall_crash | no_marker | marker_overflow | step_cap | None
    steps: int = 0

    def covered(self):
        return int(self.stmt_hit.sum() + self.branch_hit.sum())


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
    stmt_hit = [0] * program.n_statements
    branch_hit = [0] * (2 * program.n_branches)  # [true, false] per site, flattened

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
        branch_hit[2 * stmt.branch_id + (not taken)] = 1
        return taken

    def run(stmts):
        nonlocal pos, facing, steps
        for s in stmts:
            stmt_hit[s.stmt_id] = 1
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
    return CoverageReport(
        stmt_hit=np.array(stmt_hit, dtype=np.int8),
        branch_hit=np.array(branch_hit, dtype=np.int8).reshape(-1, 2),
        error=error,
        steps=steps,
    )
