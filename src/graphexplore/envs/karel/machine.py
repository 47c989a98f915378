"""Grid-robot world state and coverage interpreter.

A world is a square grid of cells (wall, or 0..9 markers) plus a hero pose
(row, col, facing). The border beyond the grid is solid wall. Executing a
program against a world yields a coverage report: one bit per statement
(marked when the statement is entered, so a crashing statement still counts)
and a true/false outcome pair per condition site. Runtime faults are data on
the report, never exceptions: wall_crash, no_marker, marker_overflow,
step_cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lang import ACTIONS

FACINGS = "NESW"
_DELTA = {"N": (-1, 0), "E": (0, 1), "S": (1, 0), "W": (0, -1)}

WALL = -1
MAX_MARKERS = 9


@dataclass
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

    def copy(self):
        return KarelWorld(self.grid.copy(), self.hero, self.facing)

    def __eq__(self, other):
        if not isinstance(other, KarelWorld):
            return NotImplemented
        return (
            np.array_equal(self.grid, other.grid)
            and self.hero == other.hero
            and self.facing == other.facing
        )

    def __str__(self):
        rows = ["".join(_cell_char(v) for v in row) for row in self.grid]
        r, c = self.hero
        return "/".join(rows) + f" hero {r} {c} {self.facing}"


def _cell_char(v):
    if v == WALL:
        return "#"
    if v == 0:
        return "."
    return str(int(v))


@dataclass
class CoverageReport:
    """stmt_hit[i] is 1 iff statement with pre-order id i was entered.
    branch_hit[b] is an [taken_true, taken_false] pair for condition site b."""

    stmt_hit: np.ndarray
    branch_hit: np.ndarray  # (n_branches, 2) int8
    error: str = None  # wall_crash | no_marker | marker_overflow | step_cap | None
    steps: int = 0
    world: KarelWorld = None  # state when execution stopped

    def covered(self):
        return int(self.stmt_hit.sum() + self.branch_hit.sum())


class _Halt(Exception):
    def __init__(self, error):
        self.error = error


class _Exec:
    def __init__(self, world, step_cap):
        self.world = world.copy()
        self.step_cap = step_cap
        self.steps = 0

    def _spend(self):
        if self.steps >= self.step_cap:
            raise _Halt("step_cap")
        self.steps += 1

    def _ahead(self, turn=0):
        f = FACINGS[(FACINGS.index(self.world.facing) + turn) % 4]
        dr, dc = _DELTA[f]
        return self.world.hero[0] + dr, self.world.hero[1] + dc

    def _clear(self, turn):
        r, c = self._ahead(turn)
        side = self.world.side
        return 0 <= r < side and 0 <= c < side and self.world.grid[r, c] != WALL

    def eval_cond(self, cond):
        if cond.name == "not":
            return not self.eval_cond(cond.inner)
        if cond.name == "frontIsClear":
            return self._clear(0)
        if cond.name == "leftIsClear":
            return self._clear(-1)
        if cond.name == "rightIsClear":
            return self._clear(1)
        here = self.world.grid[self.world.hero]
        if cond.name == "markersPresent":
            return here > 0
        return here == 0  # noMarkersPresent

    def do_action(self, kind):
        self._spend()
        w = self.world
        if kind == "move":
            r, c = self._ahead(0)
            if not (0 <= r < w.side and 0 <= c < w.side) or w.grid[r, c] == WALL:
                raise _Halt("wall_crash")
            w.hero = (r, c)
        elif kind == "turnLeft":
            w.facing = FACINGS[(FACINGS.index(w.facing) - 1) % 4]
        elif kind == "turnRight":
            w.facing = FACINGS[(FACINGS.index(w.facing) + 1) % 4]
        elif kind == "putMarker":
            if w.grid[w.hero] >= MAX_MARKERS:
                raise _Halt("marker_overflow")
            w.grid[w.hero] += 1
        else:  # pickMarker
            if w.grid[w.hero] <= 0:
                raise _Halt("no_marker")
            w.grid[w.hero] -= 1


def execute(program, world, step_cap=1000):
    """Run the program on a copy of the world; never raises for runtime
    faults. Fuel: one unit per primitive action and one per condition-site
    evaluation (loop re-checks included); repeat iteration itself is free."""
    stmt_hit = np.zeros(program.n_statements, dtype=np.int8)
    branch_hit = np.zeros((program.n_branches, 2), dtype=np.int8)
    ex = _Exec(world, step_cap)
    error = None

    def check(stmt):
        ex._spend()
        taken = ex.eval_cond(stmt.cond)
        branch_hit[stmt.branch_id, 0 if taken else 1] = 1
        return taken

    def run_block(stmts):
        for s in stmts:
            stmt_hit[s.stmt_id] = 1
            if s.kind in ACTIONS:
                ex.do_action(s.kind)
            elif s.kind == "if":
                if check(s):
                    run_block(s.body)
            elif s.kind == "ifElse":
                if check(s):
                    run_block(s.body)
                else:
                    run_block(s.orelse)
            elif s.kind == "while":
                while check(s):
                    run_block(s.body)
            else:  # repeat
                for _ in range(s.count):
                    run_block(s.body)

    try:
        run_block(program.body)
    except _Halt as halt:
        error = halt.error
    return CoverageReport(
        stmt_hit=stmt_hit,
        branch_hit=branch_hit,
        error=error,
        steps=ex.steps,
        world=ex.world,
    )

