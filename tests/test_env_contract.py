"""The env contract (graphexplore.episode): every environment has the
members the episode loop reads, the maze and app envs have the walker hooks,
the walkers' one action source, outgoing(), lists exactly the actions
action_mask() allows, belief-graph node ids never shift, and an episode's
coverage is its reward sum: the covered units over the env's unit count."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexplore.agents import RandomPolicy
from graphexplore.envs.appgraph import AppEnv, generate_er_app
from graphexplore.envs.karel import KarelEnv, WorldConfig, random_world_policy, sample_program
from graphexplore.envs.maze import MazeEnv, generate_maze
from graphexplore.episode import run_episode

EPISODE_LOOP = ("budget", "reward_normalizer", "reset", "step", "action_mask",
                "fully_explored")
WALKER_HOOKS = ("current_node", "outgoing", "reverse_action")
DELETED = ("source", "_adopt", "valid_action_list", "covered_count", "num_edge_types",
           "feature_width", "coverage_fraction")

ENVS = {
    "maze": lambda: MazeEnv(generate_maze(3, 3, 0.2, seed=1), budget=9),
    "app": lambda: AppEnv(generate_er_app(6, 0.5, seed=2), budget=6),
    "karel": lambda: KarelEnv(sample_program(np.random.default_rng(0))),
}


@pytest.mark.parametrize("kind", sorted(ENVS))
def test_env_has_the_contract_members_and_none_of_the_deleted(kind):
    env = ENVS[kind]()
    env.reset(np.random.default_rng(0))
    assert [name for name in EPISODE_LOOP if not hasattr(env, name)] == []
    hooks = [name for name in WALKER_HOOKS if callable(getattr(env, name, None))]
    assert hooks == ([] if kind == "karel" else list(WALKER_HOOKS))
    assert [name for name in DELETED if hasattr(env, name)] == []


@st.composite
def walker_envs(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.sampled_from(["maze", "app"])) == "maze":
        maze = generate_maze(draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                             draw(st.floats(0.0, 1.0)), seed)
        return MazeEnv(maze, budget=40, hide_destinations=draw(st.booleans()))
    graph = generate_er_app(draw(st.integers(1, 12)), draw(st.floats(0.0, 1.0)), seed)
    return AppEnv(graph, budget=40,
                  num_actions=graph.max_out_degree() + draw(st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(env=walker_envs(), episode_seed=st.integers(0, 2**31 - 1))
def test_outgoing_lists_exactly_the_masked_actions_at_every_step(env, episode_seed):
    # The walkers draw from outgoing() and the learned agent from the mask;
    # the frozen baseline values rest on the two agreeing, in ascending order.
    rng = np.random.default_rng(episode_seed)
    env.reset(rng)
    for _ in range(env.budget):
        actions = [a for a, _ in env.outgoing()]
        assert actions == np.flatnonzero(env.action_mask()).tolist()
        if not actions:
            break
        env.step(actions[int(rng.integers(len(actions)))])


@settings(max_examples=60, deadline=None)
@given(env=walker_envs(), episode_seed=st.integers(0, 2**31 - 1))
def test_belief_edges_come_in_pairs_at_every_step(env, episode_seed):
    # Messages flow both ways along every edge of a maze or app belief graph,
    # and its edge map holds one type per ordered pair.
    rng = np.random.default_rng(episode_seed)
    env.reset(rng)
    obs = env.observe()
    for t in range(env.budget + 1):
        pairs = {(u, v) for u, v, _ in obs.edges}
        assert len(pairs) == len(obs.edges)
        assert all((v, u) in pairs for u, v in pairs)
        assert all(0 <= u < obs.node_count and 0 <= v < obs.node_count for u, v in pairs)
        assert all(1 <= k <= obs.num_edge_types for _, _, k in obs.edges)
        actions = [a for a, _ in env.outgoing()]
        if t == env.budget or not actions:
            break
        obs = env.step(actions[int(rng.integers(len(actions)))])


@settings(max_examples=60, deadline=None)
@given(env=walker_envs(), episode_seed=st.integers(0, 2**31 - 1))
def test_node_ids_never_shift(env, episode_seed):
    # A belief graph only grows: each step's keys extend the previous ones,
    # in id order, so a node keeps its id for the whole episode.
    # compute_reward checks that coverage never shrinks, not that ids stay put.
    rng = np.random.default_rng(episode_seed)
    env.reset(rng)
    before = list(env.state.node_ids)
    for _ in range(env.budget):
        actions = [a for a, _ in env.outgoing()]
        if not actions:
            break
        env.step(actions[int(rng.integers(len(actions)))])
        node_ids = env.state.node_ids
        after = list(node_ids)
        assert after[:len(before)] == before
        assert list(node_ids.values()) == list(range(len(node_ids)))
        before = after


@settings(max_examples=60, deadline=None)
@given(env=walker_envs(), episode_seed=st.integers(0, 2**31 - 1))
def test_observations_are_snapshots_that_share_what_a_step_left_unchanged(env, episode_seed):
    # Consecutive observations share their edge tuple and coverage array until
    # the belief graph changes. A later step must never reach back into an
    # observation already handed out, and no consumer may write into one.
    rng = np.random.default_rng(episode_seed)
    env.reset(rng)
    obs = env.observe()
    recorded = []
    for t in range(env.budget + 1):
        if recorded:
            prev = recorded[-1][0]
            assert (obs.edges is prev.edges) == (obs.edges == prev.edges)
            assert (obs.coverage is prev.coverage) == (
                obs.coverage.shape == prev.coverage.shape
                and np.array_equal(obs.coverage, prev.coverage))
        recorded.append((obs, copy.deepcopy(obs)))
        actions = [a for a, _ in env.outgoing()]
        if t == env.budget or not actions:
            break
        obs = env.step(actions[int(rng.integers(len(actions)))])
    for obs, snapshot in recorded:
        assert obs.edges == snapshot.edges
        assert np.array_equal(obs.coverage, snapshot.coverage)
        assert np.array_equal(obs.node_features, snapshot.node_features)
        assert obs.node_count == snapshot.node_count
    with pytest.raises(ValueError, match="read-only"):
        obs.coverage[0] = 1.0 - obs.coverage[0]


def budget_against(draw, units):
    """A budget below, equal to or above `units`."""
    side = draw(st.sampled_from(["below", "equal", "above"]))
    if side == "below":
        return draw(st.integers(0, units - 1))
    return units if side == "equal" else draw(st.integers(units + 1, 3 * units))


@st.composite
def episodes(draw):
    """(env, policy) of a maze, an app or a Karel program."""
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(["maze", "app", "karel"]))
    if kind == "maze":
        maze = generate_maze(draw(st.integers(1, 5)), draw(st.integers(1, 5)),
                             draw(st.floats(0.0, 1.0)), seed)
        return MazeEnv(maze, budget=budget_against(draw, maze.cells())), RandomPolicy()
    if kind == "app":
        graph = generate_er_app(draw(st.integers(1, 12)), draw(st.floats(0.0, 1.0)), seed)
        return AppEnv(graph, budget=budget_against(draw, len(graph.screens))), RandomPolicy()
    return (KarelEnv(sample_program(np.random.default_rng(seed))),
            random_world_policy(WorldConfig(grid_side=draw(st.integers(1, 8)))))


def units_of(env):
    """(covered units, total units) read from the env's own state."""
    if isinstance(env, MazeEnv):
        return len(env.state.covered), env.maze.cells()
    if isinstance(env, AppEnv):
        return len(env.state.node_ids), len(env.graph.screens)
    return int(env._mask.sum()), env.units


@settings(max_examples=80, deadline=None)
@given(episode=episodes(), episode_seed=st.integers(0, 2**31 - 1))
def test_coverage_is_the_reward_sum_and_the_covered_share_of_the_units(episode, episode_seed):
    env, policy = episode
    history, traj = run_episode(env, policy, budget=env.budget, seed=episode_seed)
    covered, total = units_of(env)
    if len(history.records) == 1:
        # The start is earned by the first step's reward; with no step, the
        # episode covered nothing.
        covered = 0
    assert env.reward_normalizer == max(total, 1)
    assert sum(traj.rewards()) == pytest.approx(traj.final_coverage, abs=1e-12)
    assert traj.final_coverage == covered / max(total, 1) <= 1.0
