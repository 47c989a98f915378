import copy
import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexplore.agents import RandDfsPolicy, RandomPolicy
from graphexplore.benchmarks import app_eval_set
from graphexplore.envs.appgraph import (
    AppEnv,
    TransitionGraph,
    er_app_for_seed,
    generate_er_app,
)
from graphexplore.episode import EpisodeStepError, episode_objective, run_episode
from graphexplore.graphnet import BeliefNodes

from reference import app_reference_edges, brute_force_coverage


# -------------------------------------------------------------- generation


def test_er_app_deterministic():
    a = generate_er_app(15, 0.1, seed=7)
    b = generate_er_app(15, 0.1, seed=7)
    assert a == b
    c = generate_er_app(15, 0.1, seed=8)
    assert a != c


def test_er_app_p_zero_single_screen_trivial_coverage():
    g = generate_er_app(15, 0.0, seed=3)
    assert len(g.screens) == 1 and g.screens == (g.start,) and not g.transitions
    env = AppEnv(g, budget=15)
    history, traj = run_episode(env, RandomPolicy(), budget=15, seed=0)
    assert len(history.records) == 1  # born fully covered, no step taken
    # No step earns a reward, so the coverage, which equals the reward sum, is 0.
    assert traj.terminated_early and traj.final_coverage == 0.0
    assert episode_objective(history) == 0.0


def test_er_app_p_one_complete_graph_coverable_in_n_minus_one():
    n = 6
    g = generate_er_app(n, 1.0, seed=4)
    assert len(g.screens) == n
    assert g.max_out_degree() == n - 1

    def fresh_first(env, rng):
        out = env_graph.outgoing(env.state.current)
        for i, (_, dst) in enumerate(out):
            if dst not in env.state.visited:
                return i
        raise AssertionError("no fresh screen available")

    env_graph = g
    env = AppEnv(g, budget=15)
    history, traj = run_episode(env, fresh_first, budget=15, seed=0)
    assert traj.final_coverage == 1.0
    assert len(history.records) - 1 == n - 1  # one step per remaining screen


def test_er_app_actions_enumerate_neighbors_in_id_order():
    g = generate_er_app(5, 1.0, seed=0)
    # complete graph: screen "2" has neighbors 0,1,3,4 in that action order
    assert g.transitions[("2", "0")] == "0"
    assert g.transitions[("2", "1")] == "1"
    assert g.transitions[("2", "2")] == "3"
    assert g.transitions[("2", "3")] == "4"


def test_er_app_all_screens_reachable():
    for seed in range(10):
        g = er_app_for_seed(seed)
        seen = {g.start}
        queue = [g.start]
        while queue:
            u = queue.pop()
            for _, dst in g.outgoing(u):
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        assert seen == set(g.screens)


def app_digest():
    """SHA-256 over what the app generators draw: er_app_for_seed on seeds
    16001..16500 (the held-out set's range), and generate_er_app at the edge
    cases p in {0, 1}, with n in {1, 2} and n = 7. Each entry also covers the
    state its generator is left in; for er_app_for_seed that is the inner
    generator, replayed from the seed it draws."""
    digest = hashlib.sha256()

    def add(graph, rng):
        digest.update(repr((graph.screens, sorted(graph.transitions.items()), graph.start,
                            rng.bit_generator.state)).encode())

    for seed in range(16001, 16501):
        outer = np.random.default_rng(seed)
        n = int(outer.integers(15, 21))
        inner = np.random.default_rng(int(outer.integers(2 ** 62)))
        graph = generate_er_app(n, 0.1, inner)
        assert graph == er_app_for_seed(seed)
        add(graph, inner)
    for n in (1, 2, 7):
        for p in (0.0, 1.0):
            for seed in range(20):
                rng = np.random.default_rng(seed)
                add(generate_er_app(n, p, rng), rng)
    return digest.hexdigest()


def test_generated_apps_are_pinned():
    # The held-out app set and the app sampler draw from these; a new digest
    # changes every app.
    assert app_digest() == "30d2c48e42f0a666c0906690a2573f0728fef87e13cadfe1cdd0ea6742351326"


def test_transition_graph_is_immutable_and_copies_through_its_constructor():
    # The held-out app set is built once per process and shared by every
    # caller, so no caller may change a graph in it.
    graph = generate_er_app(8, 0.4, seed=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.start = "0"
    with pytest.raises(TypeError):
        graph.transitions[(graph.start, "0")] = graph.start
    for clone in (copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert clone == graph and clone.transitions is not graph.transitions
        assert all(clone.outgoing(s) == graph.outgoing(s) for s in graph.screens)
        with pytest.raises(TypeError):
            clone.transitions[(graph.start, "0")] = graph.start
    # A graph keeps a private copy of the dict it was built from.
    source = {("a", "0"): "b", ("b", "0"): "a"}
    graph = TransitionGraph(screens=("a", "b"), transitions=source, start="a")
    source[("a", "1")] = "a"
    assert ("a", "1") not in graph.transitions and graph.outgoing("a") == (("0", "b"),)


def test_er_app_rejects_bad_params():
    with pytest.raises(ValueError, match="at least one screen"):
        generate_er_app(0, 0.1, seed=0)
    with pytest.raises(ValueError, match="probability"):
        generate_er_app(5, 1.5, seed=0)


def test_heldout_er_apps_frozen_protocol():
    apps, seeds = app_eval_set(count=5)
    again, seeds2 = app_eval_set(count=5)
    assert seeds == seeds2 and all(a == b for a, b in zip(apps, again))
    assert seeds[0] >= 16001 and sorted(seeds) == list(seeds)
    assert all(len(g.screens) >= 15 for g in apps)


# ---------------------------------------------------------------- episodes


def line_graph():
    return TransitionGraph(
        screens=("a", "b", "c"),
        transitions={
            ("a", "fwd"): "b",
            ("b", "fwd"): "c",
            ("b", "back"): "a",
            ("c", "back"): "b",
        },
        start="a",
    )


def fresh_env(graph):
    env = AppEnv(graph, budget=15)
    env.reset()
    return env


def covered_nodes(env):
    """The covered-node count of the env's belief graph, observed now."""
    env.observe()
    return len(env.state.belief.covered)


def test_step_newly_visited_flags():
    # A step onto a fresh screen covers exactly one more screen; a revisit none.
    env = fresh_env(line_graph())
    env.step(0)  # a -> b, fresh
    assert covered_nodes(env) == 2
    env.step(0)  # b -(back)-> a, revisit (sorted: back, fwd)
    assert covered_nodes(env) == 2
    env.step(0)  # a -> b again
    assert covered_nodes(env) == 2
    assert env.state.current == "b"


def test_step_self_loop_not_newly_visited():
    g = TransitionGraph(
        screens=("a",), transitions={("a", "again"): "a"}, start="a"
    )
    env = fresh_env(g)
    env.step(0)
    assert covered_nodes(env) == 1


def test_step_invalid_action_errors():
    g = line_graph()
    with pytest.raises(ValueError, match="invalid action 1"):
        fresh_env(g).step(1)  # "a" has out-degree 1
    env = AppEnv(g, budget=15)
    with pytest.raises(EpisodeStepError):
        run_episode(env, lambda e, r: 5, budget=15, seed=0)


def test_budget_terminal():
    g = TransitionGraph(
        screens=("a", "b"),
        transitions={("a", "go"): "b", ("b", "go"): "a"},
        start="a",
    )
    env = AppEnv(g, budget=15)
    # full coverage after step 1 ends the episode early
    history, traj = run_episode(env, lambda e, r: 0, budget=15, seed=0)
    assert len(history.records) - 1 == 1 and traj.terminated_early
    # with more screens than the budget can reach, exactly 15 steps run
    big = generate_er_app(40, 0.05, seed=11)
    if len(big.screens) > 16:
        env = AppEnv(big, budget=15)
        history, _ = run_episode(env, RandomPolicy(), budget=15, seed=0)
        assert len(history.records) - 1 == 15


def test_reward_normalizer_is_screen_count():
    g = line_graph()
    env = AppEnv(g, budget=3)
    actions = iter([0, 1])  # a->b (only action), then b's sorted list: back, fwd
    history, _ = run_episode(env, lambda e, r: next(actions), budget=3, seed=0)
    rewards = [r.reward for r in history.records[1:]]
    # first step earns start + new screen, second earns the third screen
    assert rewards == pytest.approx([2 / 3, 1 / 3])
    assert episode_objective(history) == pytest.approx(1.0)
    assert env.reward_normalizer == 3.0


def test_observation_tracks_experienced_subgraph():
    g = line_graph()
    env = AppEnv(g, budget=5)
    obs0 = env.reset()
    assert obs0.node_count == 0  # setting 1: starts empty
    assert obs0.node_features.shape == (0, 1)  # the is-current column
    # before any step the belief graph is just the start screen
    pre = env.observe()
    assert pre.node_count == 1 and pre.edges == () and pre.coverage.tolist() == [1.0]
    assert env.outgoing() == [(0, None)]  # untried action, unknown target
    assert env.step(0) == 2  # visited screens
    obs1 = env.observe()
    assert obs1.node_count == 2
    assert (0, 1, 1) in obs1.edges and (1, 0, 2) in obs1.edges
    assert obs1.coverage.tolist() == [1.0, 1.0]
    assert obs1.node_features.tolist() == [[0.0], [1.0]]  # current marker on the landing screen
    # back at "a" the tried action now shows its destination
    env.step(0)
    assert env.outgoing() == [(0, "b")]
    # width = per-graph max out-degree (screen "b" has two actions)
    assert env.action_mask().tolist() == [True, False]


# A self-loop, two actions to one screen and a one-way exit to a dead end.
HAND_APP = TransitionGraph(
    screens=("a", "b", "c"),
    transitions={("a", "loop"): "a", ("a", "x"): "b", ("a", "y"): "b",
                 ("b", "back"): "a", ("b", "on"): "c"},
    start="a",
)


@settings(max_examples=60, deadline=None)
@given(
    graph=st.one_of(
        st.just(HAND_APP),
        st.builds(generate_er_app, st.integers(1, 12), st.floats(0.0, 1.0),
                  st.integers(0, 2**31 - 1)),
    ),
    choices=st.lists(st.integers(0, 2**16), max_size=40),
)
def test_observe_matches_a_from_scratch_rebuild(graph, choices):
    env = AppEnv(graph, budget=len(choices))
    env.reset()
    for k in range(len(choices) + 1):
        obs = env.observe()
        node_ids = env.state.belief.node_ids
        n = len(node_ids)
        assert obs.node_count == n and np.array_equal(obs.coverage, np.ones(n))
        current = node_ids[env.current_node()]
        assert obs.node_features[:, 0].tolist() == [float(i == current) for i in range(n)]
        assert sorted(obs.edges) == sorted(app_reference_edges(env.state))
        width = graph.out_degree(env.state.current)
        if k == len(choices) or width == 0:
            break
        env.step(choices[k] % width)


def test_action_mask_pads_to_width():
    g = line_graph()
    env = AppEnv(g, budget=5, num_actions=4)
    env.reset()
    assert env.action_mask().tolist() == [True, False, False, False]
    env.step(0)  # at "b", out-degree 2
    assert env.action_mask().tolist() == [True, True, False, False]


def test_action_width_defaults_to_and_must_fit_the_max_out_degree():
    assert AppEnv(line_graph(), budget=5).num_actions == 2
    assert AppEnv(line_graph(), budget=5, num_actions=2).num_actions == 2
    with pytest.raises(ValueError, match="out-degree 5 exceeds action width 3"):
        AppEnv(generate_er_app(6, 1.0, seed=0), budget=5, num_actions=3)


def test_dead_end_screen_ends_episode():
    g = TransitionGraph(
        screens=("a", "sink"),
        transitions={("a", "go"): "sink"},
        start="a",
    )
    env = AppEnv(g, budget=15)
    calls = []

    def policy(env_, rng):
        calls.append(env_.state.current)
        return 0

    history, traj = run_episode(env, policy, budget=15, seed=0)
    assert calls == ["a"]  # never consulted at the dead end
    assert traj.terminated_early and traj.final_coverage == 1.0


def test_reverse_action_back_button():
    g = line_graph()
    env = AppEnv(g, budget=5)
    env.reset()
    assert env.reverse_action(0) is None  # nothing to undo yet
    env.step(0)  # a -> b
    back = env.reverse_action(0)
    assert back == 0 and g.outgoing("b")[back] == ("back", "a")
    one_way = TransitionGraph(
        screens=("a", "b"),
        transitions={("a", "go"): "b", ("b", "on"): "b"},
        start="a",
    )
    env = AppEnv(one_way, budget=5)
    env.reset()
    env.step(0)
    assert env.reverse_action(0) is None  # no edge back to "a"


def test_a_walker_episode_links_no_edge():
    # Walkers never observe, so the belief graph stays empty: no node, no
    # coverage bit and no edge.
    for policy in (RandomPolicy(), RandDfsPolicy()):
        env = AppEnv(generate_er_app(8, 0.4, seed=3), budget=8)
        history, _ = run_episode(env, policy, budget=env.budget, seed=0)
        assert len(history.records) > 1 and len(env.state.visited) > 1
        assert env.state.belief == BeliefNodes()


def test_randdfs_covers_small_apps():
    for seed in (0, 1, 2):
        g = generate_er_app(8, 0.4, seed=seed)
        env = AppEnv(g, budget=60)
        _, traj = run_episode(env, RandDfsPolicy(), budget=60, seed=seed)
        assert traj.final_coverage == 1.0


def test_coverage_bounded_by_brute_force_optimum():
    for seed in (3, 4, 5):
        g = generate_er_app(10, 0.25, seed=seed)
        if len(g.screens) > 12 or len(g.screens) < 3:
            continue
        index = {s: i for i, s in enumerate(g.screens)}
        adj = [[] for _ in g.screens]
        for s in g.screens:
            adj[index[s]] = [index[d] for _, d in g.outgoing(s)]
        budget = 8
        oracle = brute_force_coverage(adj, index[g.start], budget)
        for policy, ep_seed in ((RandomPolicy(), 0), (RandDfsPolicy(), 1)):
            env = AppEnv(g, budget=budget)
            run_episode(env, policy, budget=budget, seed=ep_seed)
            assert len(env.state.visited) <= oracle.best_coverage
