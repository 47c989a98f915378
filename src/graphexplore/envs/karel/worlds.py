"""World distributions: the training sampler and the valid-execution
rejection heuristic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...episode import Draws
from .machine import FACINGS, MAX_MARKERS, WALL, KarelWorld, execute


@dataclass(frozen=True)
class WorldConfig:
    grid_side: int = 8
    wall_density: float = 0.15
    marker_density: float = 0.1
    max_marker_count: int = 3

    def __post_init__(self):
        if self.grid_side < 1:
            raise ValueError(f"grid_side must be >= 1, got {self.grid_side}")
        if not (0.0 <= self.wall_density < 1.0):
            raise ValueError(f"wall_density must be in [0, 1), got {self.wall_density}")
        if not (0.0 <= self.marker_density <= 1.0):
            raise ValueError(f"marker_density must be in [0, 1], got {self.marker_density}")
        if not (1 <= self.max_marker_count <= MAX_MARKERS):
            raise ValueError(
                f"max_marker_count must be in 1..{MAX_MARKERS}, got {self.max_marker_count}"
            )


def sample_world(config, seed):
    """Random world: iid walls, iid marker piles on open cells, hero uniform
    over open cells (its cell is cleared of markers so every sampled world is
    exactly representable as grid tokens)."""
    rng = np.random.default_rng(seed)
    side = config.grid_side
    grid = np.where(rng.random((side, side)) < config.wall_density, WALL, 0).astype(np.int8)
    if (grid == WALL).all():
        # a hero cell must exist; improbable draw, forced open
        grid[rng.integers(side), rng.integers(side)] = 0
    open_cells = np.flatnonzero(grid != WALL)  # row-major
    marker_roll = rng.random(len(open_cells)) < config.marker_density
    counts = rng.integers(1, config.max_marker_count + 1, size=len(open_cells))
    grid.flat[open_cells[marker_roll]] = counts[marker_roll]
    hero = open_cells[rng.integers(len(open_cells))]
    grid.flat[hero] = 0
    facing = FACINGS[rng.integers(4)]
    return KarelWorld(grid, divmod(int(hero), side), facing)


HEURISTIC_TRIES = 20


def valid_execution_heuristic(program, config, seed):
    """Resample worlds until one executes without a runtime fault; if none of
    HEURISTIC_TRIES does, return the first try with the most covered units.
    Each try's world seed is the next below(2**62) of Draws(seed)."""
    rng = Draws(seed)
    best = None
    best_score = -1
    for _ in range(HEURISTIC_TRIES):
        world = sample_world(config, rng.below(2**62))
        report = execute(program, world)
        if report.error is None:
            return world
        score = report.covered()
        if score > best_score:
            best, best_score = world, score
    return best
