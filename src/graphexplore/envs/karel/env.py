"""Program-coverage exploration environment.

Setting: the graph is the program's coverage graph and never grows; an action
is a whole input world. Each step executes the fixed program on the proposed
world and folds the report's unit hits into the accumulated ones, so the
per-step reward is the newly covered unit count over the total unit count and
the episode objective is joint coverage of the proposed input set.
"""

from __future__ import annotations

import numpy as np

from . import worlds
from .machine import KarelWorld, execute
from .graph import program_to_graph


class KarelEnv:
    """Constant-graph coverage environment over one program.

    Actions are input worlds (KarelWorld); any other action raises
    ValueError. Runtime faults during execution are part of the semantics,
    not step failures; coverage earned before the fault still counts.
    Implements the episode-loop part of the env contract
    (graphexplore.episode); the walker hooks do not apply, and reset()
    draws nothing, so it takes no rng. A step folds the report's hit vector
    into the episode's and returns the covered-unit count; observe() puts
    the hits in their nodes' coverage column. program (a KarelProgram) is
    also what the heuristic world policy screens worlds against.
    """

    budget = 5  # proposed input worlds per episode

    def __init__(self, program):
        self.program = program
        self.graph = program_to_graph(program)
        self.units = program.n_statements + 2 * program.n_branches
        # degenerate unit-free programs keep reward arithmetic finite
        self.reward_normalizer = float(max(self.units, 1))

    def reset(self):
        # The episode's accumulated unit hits, in report order, and their sum.
        self._hits = np.zeros(self.units, dtype=np.int8)
        self._covered = 0
        return self.graph.observation(self._hits)

    def observe(self):
        return self.graph.observation(self._hits)

    def step(self, action):
        if not isinstance(action, KarelWorld):
            raise ValueError(f"action must be a KarelWorld, got {type(action).__name__}")
        report = execute(self.program, action)
        self._hits = np.maximum(self._hits, report.hits)
        self._covered = int(self._hits.sum())
        return self._covered

    def fully_explored(self):
        return self._covered >= self.units

    def action_mask(self):
        return None  # every input world is a valid action


def random_world_policy(config):
    """Baseline: propose an iid world per step, program-blind. Like the
    heuristic, a run_episode policy: rng is the episode's
    graphexplore.episode.Draws, and each step seeds its world with one
    below(2**62)."""

    def policy(env, rng):
        return worlds.sample_world(config, rng.below(2**62))

    return policy


def heuristic_world_policy(config):
    """Baseline: propose worlds screened by the valid-execution heuristic."""

    def policy(env, rng):
        return worlds.valid_execution_heuristic(env.program, config, rng.below(2**62))

    return policy
