"""Frozen evaluation protocols for maze and app coverage baselines.

The maze distribution is frozen in envs.maze (MAZE_SIZE, MAZE_LOOP_PROB). The
depth-first walker is evaluated with destination-hidden doors: it must step
through a door to learn where it leads, and undoes steps that land on its own
stack. Episode seeds derive from the maze seed and a per-policy stream id, so
adding policies never perturbs existing ones.

App transition graphs hide destinations by construction (an untried action's
target is unknown until taken), so the same walker needs no flag there. The
held-out app set was frozen after choosing the dataset seed base that
puts the depth-first walker nearest its reference mean.

The constants below are fixed, not defaults: callers choose only how many
evaluation mazes to run (`count`) and whether a maze env hides destinations.

The two sets that one protocol pass scores twice (once per walker) are built
once per process and per `count`, as tuples of immutable instances (Maze,
TransitionGraph) that every caller shares: the protocol mazes
(protocol_mazes) and the held-out apps (app_eval_set). maze_eval_env is not
cached: training samples it with fresh seeds, so a cache there would grow
without bound.
"""

from __future__ import annotations

import functools

import numpy as np

from .agents import RandDfsPolicy, RandomPolicy
from .envs.appgraph import AppEnv, er_app_for_seed
from .envs.maze import MAZE_LOOP_PROB, MAZE_SIZE, MazeEnv, generate_maze
from .episode import run_episode

MAZE_BUDGET = 36
# 1000-maze baseline benchmark set; disjoint from the 100-maze held-out set
# (seeds 7001..7100) used to evaluate trained agents.
MAZE_EVAL_SEED_BASE = 8001
MAZE_EVAL_COUNT = 1000

POLICY_STREAM = {"random": 0, "randdfs": 1, "learned": 2}


def episode_seed(maze_seed, stream):
    """Deterministic per-(maze, policy) episode seed."""
    return int(np.random.SeedSequence([maze_seed, stream]).generate_state(1)[0])


def maze_eval_env(maze_seed):
    maze = generate_maze(MAZE_SIZE, MAZE_SIZE, MAZE_LOOP_PROB, maze_seed)
    return MazeEnv(maze, budget=MAZE_BUDGET)


@functools.cache
def protocol_mazes(count):
    """The first `count` baseline mazes (seeds from MAZE_EVAL_SEED_BASE), as
    a tuple built once per process."""
    return tuple(generate_maze(MAZE_SIZE, MAZE_SIZE, MAZE_LOOP_PROB, MAZE_EVAL_SEED_BASE + i)
                 for i in range(count))


def maze_coverage(policy_factory, stream, count=MAZE_EVAL_COUNT, hide_destinations=False):
    """Mean coverage of a policy over the first `count` evaluation mazes."""
    covs = []
    for i, maze in enumerate(protocol_mazes(count)):
        env = MazeEnv(maze, budget=MAZE_BUDGET, hide_destinations=hide_destinations)
        _, traj = run_episode(env, policy_factory(), budget=MAZE_BUDGET,
                              seed=episode_seed(MAZE_EVAL_SEED_BASE + i, stream))
        covs.append(traj.final_coverage)
    return float(np.mean(covs))


def random_baseline_coverage(count=MAZE_EVAL_COUNT):
    return maze_coverage(RandomPolicy, POLICY_STREAM["random"], count)


def randdfs_baseline_coverage(count=MAZE_EVAL_COUNT):
    return maze_coverage(RandDfsPolicy, POLICY_STREAM["randdfs"], count, hide_destinations=True)


APP_BUDGET = 15
APP_EVAL_SEED_BASE = 16001
APP_EVAL_COUNT = 100
APP_MIN_SCREENS = 15
# Policy head width for app agents; all evaluation graphs fit under it.
APP_ACTION_WIDTH = 10


@functools.cache
def app_eval_set(count=APP_EVAL_COUNT):
    """The fixed evaluation apps: walk seeds upward from APP_EVAL_SEED_BASE,
    keeping apps that actually have APP_MIN_SCREENS+ reachable screens (sparse
    draws whose start component is smaller are not representative apps).
    Returns (apps, seeds) as tuples built once per process; the seeds key
    per-episode randomness."""
    apps, seeds, seed = [], [], APP_EVAL_SEED_BASE
    while len(apps) < count:
        graph = er_app_for_seed(seed)
        if len(graph.screens) >= APP_MIN_SCREENS:
            apps.append(graph)
            seeds.append(seed)
        seed += 1
    return tuple(apps), tuple(seeds)


def app_coverage(policy_factory, stream):
    """Mean coverage of a policy over the fixed evaluation apps."""
    apps, seeds = app_eval_set()
    covs = []
    for seed, graph in zip(seeds, apps):
        env = AppEnv(graph, budget=APP_BUDGET, num_actions=APP_ACTION_WIDTH)
        _, traj = run_episode(env, policy_factory(), budget=APP_BUDGET,
                              seed=episode_seed(seed, stream))
        covs.append(traj.final_coverage)
    return float(np.mean(covs))


def app_random_coverage():
    return app_coverage(RandomPolicy, POLICY_STREAM["random"])


def app_randdfs_coverage():
    return app_coverage(RandDfsPolicy, POLICY_STREAM["randdfs"])
