"""The env contract (graphexplore.episode): every environment has the
members the episode loop reads, the maze and app envs have the walker hooks,
the walkers' one action source, outgoing(), lists exactly the actions
action_mask() allows, belief-graph node ids never shift, a step's
covered-unit count is what observe() shows and only grows, the walkers
never observe and act the same when the env is observed, and an episode's
coverage is its reward sum: the covered units over the env's unit count."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexplore.agents import RandDfsPolicy, RandomPolicy
from graphexplore.envs import appgraph, maze
from graphexplore.envs.appgraph import AppEnv, generate_er_app
from graphexplore.envs.karel import graph as karel_graph
from graphexplore.envs.karel.env import KarelEnv, random_world_policy
from graphexplore.envs.karel.lang import sample_program
from graphexplore.envs.karel.worlds import WorldConfig
from graphexplore.envs.maze import MazeEnv, generate_maze
from graphexplore.episode import Draws, run_episode
from graphexplore.graphnet import MAX_EDGE_TYPES

EPISODE_LOOP = ("budget", "reward_normalizer", "reset", "step", "observe", "action_mask",
                "fully_explored")
WALKER_HOOKS = ("current_node", "outgoing", "reverse_action")
DELETED = ("source", "_adopt", "valid_action_list", "covered_count", "num_edge_types",
           "feature_width", "coverage_fraction")

ENVS = {
    "maze": lambda: MazeEnv(generate_maze(3, 3, 0.2, seed=1), budget=9),
    "app": lambda: AppEnv(generate_er_app(6, 0.5, seed=2), budget=6),
    "karel": lambda: KarelEnv(sample_program(np.random.default_rng(0))),
}
# Each env module's declared edge-type alphabet.
EDGE_TYPES = {MazeEnv: maze.NUM_EDGE_TYPES, AppEnv: appgraph.NUM_EDGE_TYPES,
              KarelEnv: karel_graph.NUM_EDGE_TYPES}


@pytest.mark.parametrize("kind", sorted(ENVS))
def test_env_has_the_contract_members_and_none_of_the_deleted(kind):
    env = ENVS[kind]()
    env.reset()
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
    env.reset()
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
    env.reset()
    obs = env.observe()
    for t in range(env.budget + 1):
        pairs = {(u, v) for u, v, _ in obs.edges}
        assert len(pairs) == len(obs.edges)
        assert all((v, u) in pairs for u, v in pairs)
        assert all(0 <= u < obs.node_count and 0 <= v < obs.node_count for u, v in pairs)
        assert all(1 <= k <= EDGE_TYPES[type(env)] for _, _, k in obs.edges)
        actions = [a for a, _ in env.outgoing()]
        if t == env.budget or not actions:
            break
        env.step(actions[int(rng.integers(len(actions)))])
        obs = env.observe()


def test_every_edge_alphabet_fits_the_message_layer():
    assert all(1 <= k <= MAX_EDGE_TYPES for k in EDGE_TYPES.values())


@settings(max_examples=60, deadline=None)
@given(program_seed=st.integers(0, 2**31 - 1), episode_seed=st.integers(0, 2**31 - 1))
def test_karel_edge_types_stay_in_its_alphabet(program_seed, episode_seed):
    env = KarelEnv(sample_program(np.random.default_rng(program_seed)))
    rng = Draws(episode_seed)
    policy = random_world_policy(WorldConfig())
    obs = env.reset()
    for _ in range(2):
        assert all(1 <= k <= karel_graph.NUM_EDGE_TYPES for _, _, k in obs.edges)
        env.step(policy(env, rng))
        obs = env.observe()


@settings(max_examples=60, deadline=None)
@given(env=walker_envs(), episode_seed=st.integers(0, 2**31 - 1))
def test_node_ids_never_shift(env, episode_seed):
    # A belief graph only grows: each observation's keys extend the previous
    # ones, in id order, so a node keeps its id for the whole episode.
    # A step's count shows that coverage never shrinks, not that ids stay put.
    rng = np.random.default_rng(episode_seed)
    env.reset()
    env.observe()
    before = list(env.state.belief.node_ids)
    for _ in range(env.budget):
        actions = [a for a, _ in env.outgoing()]
        if not actions:
            break
        env.step(actions[int(rng.integers(len(actions)))])
        env.observe()
        node_ids = env.state.belief.node_ids
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
    env.reset()
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
        env.step(actions[int(rng.integers(len(actions)))])
        obs = env.observe()
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
        return len(env.state.visited), env.maze.cells()
    if isinstance(env, AppEnv):
        return len(env.state.visited), len(env.graph.screens)
    return int(env._hits.sum()), env.units


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


def node_keys(env):
    """What each node id stands for, in id order: a maze cell, an app screen
    or a Karel graph node."""
    if isinstance(env, KarelEnv):
        return list(enumerate(env.graph.node_kinds))
    return list(env.state.belief.node_ids)


def explored_by_count(env, covered):
    """fully_explored() as the env's unit count `covered` says it should be;
    an app also ends on a dead-end screen."""
    if isinstance(env, MazeEnv):
        return covered == env.maze.cells()
    if isinstance(env, AppEnv):
        return covered == len(env.graph.screens) or not env.outgoing()
    return covered == env.units


@settings(max_examples=80, deadline=None)
@given(episode=episodes(), episode_seed=st.integers(0, 2**31 - 1))
def test_step_counts_what_observe_shows_and_coverage_only_grows(episode, episode_seed):
    # The episode loop reads only the count; the learned agent reads only
    # the observation. The two must agree at every step, and no coverage bit
    # may switch off.
    env, policy = episode
    rng = Draws(episode_seed)
    env.reset()
    before, keys = env.observe().coverage, node_keys(env)
    for _ in range(env.budget):
        if env.fully_explored():
            break
        covered = env.step(policy(env, rng))
        obs = env.observe()
        assert type(covered) is int and covered == obs.coverage.sum()
        assert len(obs.coverage) >= len(before)
        assert not (before > obs.coverage[:len(before)]).any()
        now = node_keys(env)
        assert now[:len(keys)] == keys
        assert env.fully_explored() == explored_by_count(env, covered)
        before, keys = obs.coverage, now


class Unobservable:
    """An env mixin whose observe() fails: walkers must never call it."""

    def observe(self):
        raise AssertionError("a walker observed the env")


class UnobservableMaze(Unobservable, MazeEnv):
    pass


class UnobservableApp(Unobservable, AppEnv):
    pass


class UnobservableKarel(Unobservable, KarelEnv):
    pass


WALKS = {
    "maze-random": lambda: (UnobservableMaze(generate_maze(4, 4, 0.2, seed=3), budget=16),
                            RandomPolicy()),
    "maze-randdfs": lambda: (UnobservableMaze(generate_maze(4, 4, 0.2, seed=3), budget=16,
                                              hide_destinations=True), RandDfsPolicy()),
    "app-random": lambda: (UnobservableApp(generate_er_app(8, 0.4, seed=3), budget=8),
                           RandomPolicy()),
    "app-randdfs": lambda: (UnobservableApp(generate_er_app(8, 0.4, seed=3), budget=8),
                            RandDfsPolicy()),
    "karel-random": lambda: (UnobservableKarel(sample_program(np.random.default_rng(3))),
                             random_world_policy(WorldConfig())),
}


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_walkers_never_observe(walk):
    env, policy = WALKS[walk]()
    history, traj = run_episode(env, policy, budget=env.budget, seed=0)
    assert len(history.records) > 1 and traj.final_coverage > 0.0


@settings(max_examples=60, deadline=None)
@given(env=walker_envs(), walker=st.sampled_from([RandomPolicy, RandDfsPolicy]),
       episode_seed=st.integers(0, 2**31 - 1))
def test_a_walker_acts_the_same_whether_or_not_the_env_is_observed(env, walker, episode_seed):
    # The walker hooks read only the env's own facts, never the belief graph
    # that observe builds, so observing before every decision changes no
    # action and no covered-unit count.
    twin = copy.deepcopy(env)
    plain, _ = run_episode(env, walker(), budget=env.budget, seed=episode_seed)
    inner = walker()

    def observing(env_, rng):
        env_.observe()
        return inner(env_, rng)

    observed, _ = run_episode(twin, observing, budget=twin.budget, seed=episode_seed)
    assert ([(rec.action, rec.covered) for rec in observed.records]
            == [(rec.action, rec.covered) for rec in plain.records])
