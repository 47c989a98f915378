"""Frozen baseline-benchmark protocol: constants, determinism, smoke means."""

import numpy as np

from graphexplore import benchmarks as bm
from graphexplore.agents import RandDfsPolicy
from graphexplore.envs import maze

# Every frozen set built once per process: the protocol mazes and the
# held-out apps.
FROZEN_SET_CACHES = (bm.protocol_mazes, bm.app_eval_set)


def test_frozen_protocol_constants():
    # These values were calibrated once and frozen; drifting any of them
    # silently changes the published baseline numbers.
    assert bm.MAZE_LOOP_PROB == 0.18
    assert bm.MAZE_BUDGET == 36
    assert bm.MAZE_SIZE == 6
    assert bm.MAZE_EVAL_SEED_BASE == 8001
    assert bm.MAZE_EVAL_COUNT == 1000
    assert bm.POLICY_STREAM["random"] == 0
    assert bm.POLICY_STREAM["randdfs"] == 1


def test_episode_seed_deterministic_and_stream_separated():
    assert bm.episode_seed(8001, 0) == bm.episode_seed(8001, 0)
    assert bm.episode_seed(8001, 0) != bm.episode_seed(8001, 1)
    assert bm.episode_seed(8001, 0) != bm.episode_seed(8002, 0)


def test_smoke_means_are_reasonable():
    # 50 mazes, not the full 1000: quick sanity that the protocol runs and
    # the two baselines are ordered sensibly with plausible magnitudes.
    r = bm.random_baseline_coverage(count=50)
    d = bm.randdfs_baseline_coverage(count=50)
    assert 0.15 < r < 0.5
    assert 0.35 < d < 0.7
    assert d > r
    # Re-running reproduces exactly: the protocol is fully seeded.
    assert bm.random_baseline_coverage(count=50) == r


def test_maze_baseline_means_frozen(monkeypatch):
    # The full 1000-maze protocol; these are the frozen published values
    # (exact replay, not a tolerance band). The two protocols score one
    # shared set: each maze is generated once, not once per protocol call.
    bm.protocol_mazes.cache_clear()
    seeds = []

    def counting(width, height, loop_prob, seed):
        seeds.append(seed)
        return maze.generate_maze(width, height, loop_prob, seed)

    monkeypatch.setattr(bm, "generate_maze", counting)
    assert bm.random_baseline_coverage() == 0.3023333333333333
    assert bm.randdfs_baseline_coverage() == 0.5132777777777778
    assert seeds == list(range(bm.MAZE_EVAL_SEED_BASE,
                               bm.MAZE_EVAL_SEED_BASE + bm.MAZE_EVAL_COUNT))


def test_randdfs_with_visible_destinations_is_pinned():
    # The depth-first walker seeing where each door leads, as the learned
    # agent's belief graph shows it, on the 1,000 protocol mazes: the
    # comparison value of ROADMAP item 1, computed, not a frozen protocol.
    coverage = bm.maze_coverage(RandDfsPolicy, bm.POLICY_STREAM["randdfs"])
    assert coverage == 0.7954444444444445


def test_eval_env_distribution_matches_protocol():
    env = bm.maze_eval_env(8001)
    env.reset()
    assert env.maze.width == 6 and env.maze.height == 6
    assert env.budget == 36
    env2 = maze.MazeEnv(env.maze, budget=bm.MAZE_BUDGET, hide_destinations=True)
    env2.reset()
    assert env2.outgoing() and all(dest is None for _, dest in env2.outgoing())


def test_frozen_app_protocol_constants():
    assert bm.APP_BUDGET == 15
    assert bm.APP_EVAL_SEED_BASE == 16001
    assert bm.APP_EVAL_COUNT == 100
    assert bm.APP_MIN_SCREENS == 15
    assert bm.APP_ACTION_WIDTH == 10


def test_app_eval_set_fits_action_width():
    apps, seeds = bm.app_eval_set()
    assert len(apps) == 100 and len(set(seeds)) == 100
    assert all(15 <= len(g.screens) <= 20 for g in apps)
    assert max(g.max_out_degree() for g in apps) <= bm.APP_ACTION_WIDTH


def test_app_baseline_means_frozen():
    # Full 100-app benchmark is cheap; these are the frozen published values
    # (exact replay, not a tolerance band).
    d = bm.app_randdfs_coverage()
    assert d == 0.5137125042999656
    assert 0.47 <= d <= 0.57
    r = bm.app_random_coverage()
    assert r == 0.45146353629170966
    assert r < d


def test_maze_eval_env_is_not_cached():
    # Training samples eval envs with fresh seeds; a cache there would grow
    # without bound.
    before = [cache.cache_info().currsize for cache in FROZEN_SET_CACHES]
    rng = np.random.default_rng(0)
    for _ in range(500):
        bm.maze_eval_env(int(rng.integers(2**62)))
    assert [cache.cache_info().currsize for cache in FROZEN_SET_CACHES] == before
