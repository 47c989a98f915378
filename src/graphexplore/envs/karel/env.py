"""Program-coverage exploration environment.

Setting: the graph is the program's coverage graph and never grows; an action
is a whole input world. Each step executes the fixed program on the proposed
world and folds the resulting coverage bits into the accumulated mask, so the
per-step reward is the newly covered unit count over the total unit count and
the episode objective is joint coverage of the proposed input set.
"""

from __future__ import annotations

import numpy as np

from ...graphnet import GraphObservation
from . import worlds
from .machine import KarelWorld, execute
from .graph import program_to_graph, mask_from_report


class KarelEnv:
    """Constant-graph coverage environment over one program.

    Actions are input worlds (KarelWorld); any other action raises
    ValueError. Runtime faults during execution are part of the semantics,
    not step failures; coverage earned before the fault still counts.
    Implements the episode-loop part of the env contract
    (graphexplore.episode); the walker hooks do not apply. program (a
    KarelProgram) is also what the heuristic world policy screens worlds
    against.
    """

    budget = 5  # proposed input worlds per episode

    def __init__(self, program):
        self.program = program
        self.graph = program_to_graph(program)
        self.units = program.n_statements + 2 * program.n_branches
        # degenerate unit-free programs keep reward arithmetic finite
        self.reward_normalizer = float(max(self.units, 1))
        self._mask = np.zeros(self.graph.node_count)

    def reset(self, rng):
        self._mask = np.zeros(self.graph.node_count)
        return self._observe()

    def _observe(self):
        return GraphObservation(
            node_features=self.graph.features.copy(),
            edges=self.graph.edges,
            coverage=self._mask.copy(),
        )

    def step(self, action):
        if not isinstance(action, KarelWorld):
            raise ValueError(f"action must be a KarelWorld, got {type(action).__name__}")
        report = execute(self.program, action)
        self._mask = np.maximum(self._mask, mask_from_report(self.graph, report))
        return self._observe()

    def fully_explored(self):
        return float(self._mask.sum()) >= self.units

    def action_mask(self):
        return None  # every input world is a valid action


def random_world_policy(config):
    """Baseline: propose an iid world per step, program-blind."""

    def policy(history, env, rng):
        return worlds.sample_world(config, int(rng.integers(2**62)))

    return policy


def heuristic_world_policy(config):
    """Baseline: propose worlds screened by the valid-execution heuristic."""

    def policy(history, env, rng):
        seed = int(rng.integers(2**62))
        return worlds.valid_execution_heuristic(env.program, config, seed)

    return policy
