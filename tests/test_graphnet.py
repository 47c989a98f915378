import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphexplore.envs.maze import MazeEnv, generate_maze
from graphexplore.graphnet import (
    BELIEF_FEATURE_WIDTH,
    BLOCK_NODES,
    MAX_EDGE_TYPES,
    BeliefNodes,
    GraphNet,
    GraphNetConfig,
    GraphObservation,
    block_sizes,
    empty_observation,
    pad_coverage_bit,
)
from graphexplore.tensor import (
    ParamSet,
    Tape,
    Tensor,
    concat,
    embed_lookup,
    reduce_sum,
    segment_aggregate,
)

from reference import grad_check, sigmoid


def make_obs(n, edges, feature_width=3, coverage=None, seed=0):
    rng = np.random.default_rng(seed)
    return GraphObservation(
        node_features=rng.normal(size=(n, feature_width)),
        edges=edges,
        coverage=np.zeros(n) if coverage is None else np.asarray(coverage, dtype=np.float64),
    )


def both_ways(pairs, k=1):
    out = []
    for u, v in pairs:
        out.append((u, v, k))
        out.append((v, u, k))
    return out


def make_net(seed=0, dtype=np.float32, **kwargs):
    params = ParamSet(seed=seed, dtype=dtype)
    config = GraphNetConfig(**{"d": 8, "rounds": 2, "feature_width": 3, **kwargs})
    return params, GraphNet(params, "enc", config)


def test_belief_observations_share_only_what_is_unchanged():
    nodes = BeliefNodes()
    nodes.admit("a")
    nodes.mark_covered("a")
    first = nodes.observation("a")
    assert nodes.observation("a").coverage is first.coverage
    nodes.admit("b")  # a new node, no bit set
    second = nodes.observation("a")
    assert second.coverage.tolist() == [1.0, 0.0]
    assert second.edges is first.edges and first.edges == ()
    nodes.link("a", "b", 1, 2)
    nodes.mark_covered("b")
    third = nodes.observation("b")
    assert third.coverage.tolist() == [1.0, 1.0] and third.edges == ((0, 1, 1), (1, 0, 2))
    nodes.link("a", "b", 1, 2)  # no change: the tuple stays
    assert nodes.observation("b").edges is third.edges
    assert first.coverage.tolist() == [1.0] and second.edges == ()


def test_observations_compare_by_identity():
    a, b = make_obs(2, [(0, 1, 1)]), make_obs(2, [(0, 1, 1)])
    assert (a == b) is False and (a == a) is True


def test_pad_coverage_bit_masks():
    obs = make_obs(4, [], coverage=[0, 0, 0, 0])
    padded = pad_coverage_bit(obs)
    assert padded.shape == (4, 4)
    assert np.array_equal(padded[:, -1], np.zeros(4))
    obs.coverage = np.ones(4)
    assert np.array_equal(pad_coverage_bit(obs)[:, -1], np.ones(4))


def test_pad_coverage_bit_width_contract():
    obs = make_obs(2, [], feature_width=7)
    assert pad_coverage_bit(obs).shape[1] == 8


def test_single_node_matches_handrolled_gru():
    # One node, no edges: each round applies the GRU to (zero message, state).
    params, net = make_net()
    obs = make_obs(1, [])
    out = net.propagate(net.project_features(obs), obs, [1]).data

    h = net.project_features(obs)
    zero = Tensor(np.zeros((1, net.config.d)))
    for _ in range(net.config.rounds):
        h = net.gru(zero, h, net.gru.input_weight())
    assert np.allclose(out, h.data, atol=1e-12)


def test_permutation_equivariance_of_node_embeddings():
    params, net = make_net(seed=4)
    edges = both_ways([(0, 1), (1, 2), (2, 3)]) + both_ways([(0, 3)], k=2)
    obs = make_obs(4, edges, coverage=[1, 0, 0, 1], seed=4)
    out = net.propagate(net.project_features(obs), obs, [4]).data

    perm = np.array([2, 0, 3, 1])  # new index of each old node
    inv = np.argsort(perm)
    permuted = GraphObservation(
        node_features=obs.node_features[inv],
        edges=[(perm[u], perm[v], k) for u, v, k in obs.edges],
        coverage=obs.coverage[inv],
    )
    out_perm = net.propagate(net.project_features(permuted), permuted, [4]).data
    assert np.allclose(out_perm, out[inv], atol=1e-12)


def test_rounds_must_be_positive():
    params = ParamSet(seed=0)
    with pytest.raises(ValueError, match="rounds"):
        GraphNet(params, "enc", GraphNetConfig(rounds=0))


def test_one_round_sees_one_hop_only():
    # Path 0-1-2: with one round the end nodes (degree 1) must differ from the
    # middle node (degree 2) even with identical starting features.
    params, net = make_net(rounds=1)
    obs = make_obs(3, both_ways([(0, 1), (1, 2)]))
    obs.node_features = np.ones((3, 3))
    out = net.propagate(net.project_features(obs), obs, [3]).data
    assert np.allclose(out[0], out[2], atol=1e-12)  # symmetric ends
    assert not np.allclose(out[0], out[1], atol=1e-6)


def test_receptive_field_limited_by_rounds():
    # Perturbing node 0's features must not reach nodes farther than L hops.
    for rounds in (1, 2):
        params, net = make_net(rounds=rounds)
        edges = both_ways([(0, 1), (1, 2), (2, 3), (3, 4)])
        base = make_obs(5, edges, seed=8)
        bumped = GraphObservation(
            node_features=base.node_features.copy(),
            edges=edges,
            coverage=base.coverage,
        )
        bumped.node_features[0] += 1.0
        a = net.propagate(net.project_features(base), base, [5]).data
        b = net.propagate(net.project_features(bumped), bumped, [5]).data
        changed = ~np.all(np.isclose(a, b, atol=1e-12), axis=1)
        for v in range(5):
            if v > rounds:
                assert not changed[v], f"node {v} changed with {rounds} rounds"
        assert changed[0]


@pytest.mark.parametrize("edge", [(0, 1, MAX_EDGE_TYPES + 1), (0, 2, MAX_EDGE_TYPES + 1)])
def test_edge_type_above_the_message_layer_width_errors(edge):
    # An edge of a type past the message layer's type columns must not be
    # counted under another node's or another type's column (or fail inside
    # numpy for the last node).
    params, net = make_net()
    obs = make_obs(3, [(1, 2, 1), edge])
    with pytest.raises(ValueError, match=rf"1\.\.MAX_EDGE_TYPES \({MAX_EDGE_TYPES}\)"):
        net.propagate(net.project_features(obs), obs, [3])


@pytest.mark.parametrize("edge", [(0, 2, 1), (2, 0, 1), (-1, 0, 1), (0, -1, 1)])
def test_edge_endpoint_outside_graph_errors(edge):
    params, net = make_net()
    obs = make_obs(2, [(0, 1, 1), edge])
    with pytest.raises(ValueError, match="endpoint"):
        net.propagate(net.project_features(obs), obs, [2])


def edge_level_propagate(net, h0, obs):
    """Reference: every edge (u, v, k) sends [h_v, h_u, onehot(k)] W + b to v,
    and the messages into a node are summed."""
    n, m = obs.node_count, len(obs.edges)
    edges = np.asarray(obs.edges, dtype=np.intp).reshape(-1, 3)
    src, dst = edges[:, 0], edges[:, 1]
    onehot = np.zeros((m, MAX_EDGE_TYPES))
    onehot[np.arange(m), edges[:, 2] - 1] = 1.0
    h = h0
    for _ in range(net.config.rounds):
        per_edge = net.message(concat([embed_lookup(h, dst), embed_lookup(h, src), Tensor(onehot)], axis=1))
        h = net.gru(segment_aggregate(per_edge, dst, n), h, net.gru.input_weight())
    return h


@st.composite
def typed_graphs(draw):
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.integers(1, MAX_EDGE_TYPES)), max_size=24))
    return n, edges


def encode_reference(net, observations):
    """Reference of encode_batch: each graph propagated edge by edge on its
    own, then read out on its own."""
    rows = []
    for obs in observations:
        h = edge_level_propagate(net, net.project_features(obs), obs)
        vector, _ = net.readout(h, np.zeros(obs.node_count, np.intp), 1)
        rows.append(vector)
    return concat(rows, axis=0)


def chain(n):
    return n, [(i, i + 1, 1 + i % MAX_EDGE_TYPES) for i in range(n - 1)]


@settings(max_examples=100, deadline=None)
@given(graphs=st.lists(typed_graphs(), min_size=1, max_size=12), seed=st.integers(0, 2**16))
# Parallel edges and self-loops; no edges at all; every type (nodes 0, 2-4 get no in-edges).
@example(graphs=[(3, [(0, 1, 2), (0, 1, 2), (1, 1, 5), (2, 2, 1), (1, 0, 3)])], seed=1)
@example(graphs=[(4, [])], seed=2)
@example(graphs=[(5, [(0, 1, k) for k in range(1, MAX_EDGE_TYPES + 1)])], seed=3)
# Above BLOCK_NODES: blocks of 70 + 40 and 30 + 60 nodes; the 40-node graph has no edges.
@example(graphs=[chain(70), (40, []), chain(30), chain(60)], seed=4)
# A block of exactly BLOCK_NODES nodes, then a block boundary between two graphs.
@example(graphs=[chain(BLOCK_NODES - 3), (3, [(0, 2, 1), (2, 0, 2)]), (2, [(1, 0, 1)])], seed=5)
def test_node_level_propagate_equals_edge_level(graphs, seed):
    params = ParamSet(seed=seed, dtype=np.float64)
    net = GraphNet(params, "enc", GraphNetConfig(d=6, rounds=3, feature_width=2))
    for p in params.named().values():  # nonzero biases
        p.data += np.random.default_rng(seed).normal(scale=0.3, size=p.data.shape)
    observations = [make_obs(n, edges, feature_width=2,
                             coverage=np.arange(n) % 2, seed=seed + i)
                    for i, (n, edges) in enumerate(graphs)]
    weights = Tensor(np.random.default_rng(seed + 1).normal(size=(len(graphs), 6)))
    results = []
    for encode in (net.encode_batch, lambda obs: encode_reference(net, obs)):
        with Tape() as tape:
            vectors = encode(observations)
            loss = reduce_sum(sigmoid(vectors) * weights)
        results.append((vectors.data, params.gradients(tape, loss)))
    (got, got_grads), (want, want_grads) = results
    assert np.max(np.abs(got - want)) <= 1e-12
    for name in want_grads:
        assert np.max(np.abs(got_grads[name].data - want_grads[name].data)) <= 1e-9, name


def test_block_sizes_group_consecutive_graphs_up_to_the_limit():
    assert block_sizes([70, 40, 30, 60]) == [110, 90]
    assert block_sizes([BLOCK_NODES - 3, 3, 2]) == [BLOCK_NODES, 2]
    assert block_sizes([5, BLOCK_NODES + 1, 5]) == [5, BLOCK_NODES + 1, 5]


@pytest.mark.parametrize("node_counts, edge", [
    ([3, 2], (1, 3, 2)),  # two graphs in one block
    ([BLOCK_NODES, 2], (BLOCK_NODES + 1, 0, 1)),  # two graphs in two blocks
])
def test_edge_joining_two_graphs_of_a_union_errors(node_counts, edge):
    params, net = make_net()
    n = sum(node_counts)
    union = make_obs(n, [(0, 1, 1), (n - 1, n - 2, 1), edge])
    with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}, {edge[2]}\) joins graphs"):
        net.propagate(net.project_features(union), union, node_counts)


def test_node_counts_must_add_up_to_the_union():
    params, net = make_net()
    union = make_obs(5, [(0, 1, 1)])
    with pytest.raises(ValueError, match="add up"):
        net.propagate(net.project_features(union), union, [3, 3])


def test_readout_identical_embeddings_symmetric():
    params, net = make_net()
    emb = Tensor(np.tile(np.arange(8.0), (2, 1)))
    g, alpha = net.readout(emb, np.zeros(2, np.intp), 1)
    assert np.allclose(alpha.data, [0.5, 0.5])
    assert np.allclose(g.data, emb.data[0])


def test_readout_single_node():
    params, net = make_net()
    emb = Tensor(np.random.default_rng(2).normal(size=(1, 8)))
    g, alpha = net.readout(emb, np.zeros(1, np.intp), 1)
    assert np.allclose(alpha.data, [1.0])
    assert np.allclose(g.data, emb.data[0])


def test_attention_weights_nonnegative_sum_to_one():
    params, net = make_net(seed=9)
    rng = np.random.default_rng(10)
    for n in (1, 3, 11):
        emb = Tensor(rng.normal(scale=3.0, size=(n, 8)))
        _, alpha = net.readout(emb, np.zeros(n, np.intp), 1)
        assert np.all(alpha.data >= 0.0)
        assert abs(float(alpha.data.sum()) - 1.0) < 1e-6


def test_graph_vector_permutation_invariant():
    params, net = make_net(seed=5)
    edges = both_ways([(0, 1), (1, 2), (0, 2), (2, 3)])
    obs = make_obs(4, edges, coverage=[0, 1, 0, 1], seed=5)
    g1 = net.encode_batch([obs]).data[0]

    perm = np.array([3, 1, 0, 2])
    inv = np.argsort(perm)
    permuted = GraphObservation(
        node_features=obs.node_features[inv],
        edges=[(perm[u], perm[v], k) for u, v, k in obs.edges],
        coverage=obs.coverage[inv],
    )
    g2 = net.encode_batch([permuted]).data[0]
    assert np.allclose(g1, g2, atol=1e-9)


def test_empty_graph_uses_learned_constant():
    params, net = make_net()
    vectors = net.encode_batch([empty_observation(3)])
    assert np.array_equal(vectors.data, net.empty_vec.data.reshape(1, 8))


def test_encode_batch_rows_equal_single_encodes():
    params, net = make_net(seed=8, dtype=np.float64)
    observations = [
        make_obs(4, both_ways([(0, 1), (1, 2), (2, 3)]), coverage=[1, 0, 0, 1], seed=1),
        empty_observation(3),
        make_obs(1, [], coverage=[1], seed=2),
        make_obs(3, both_ways([(0, 2)], k=2), coverage=[0, 1, 0], seed=3),
    ]
    batched = net.encode_batch(observations).data
    assert batched.shape == (4, 8)
    for row, obs in zip(batched, observations):
        assert np.allclose(row, net.encode_batch([obs]).data[0], rtol=0.0, atol=1e-12)


def test_coverage_mask_changes_graph_vector():
    params, net = make_net(seed=6)
    edges = both_ways([(0, 1), (1, 2)])
    a = make_obs(3, edges, coverage=[0, 0, 0], seed=6)
    b = make_obs(3, edges, coverage=[1, 0, 1], seed=6)
    ga = net.encode_batch([a]).data[0]
    gb = net.encode_batch([b]).data[0]
    assert np.linalg.norm(ga - gb) > 0.0


def test_encode_deterministic():
    params, net = make_net(seed=7)
    obs = make_obs(4, both_ways([(0, 1), (1, 2), (2, 3)]), coverage=[1, 0, 0, 0], seed=7)
    a = net.encode_batch([obs]).data
    b = net.encode_batch([obs]).data
    assert np.array_equal(a, b)
    ha = net.propagate(net.project_features(obs), obs, [4]).data
    hb = net.propagate(net.project_features(obs), obs, [4]).data
    assert np.array_equal(ha, hb)


def test_encoder_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for trial in range(20):
        params = ParamSet(seed=trial, dtype=np.float64)
        net = GraphNet(params, "enc", GraphNetConfig(d=5, rounds=2, feature_width=2))
        n = 5
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        edges = both_ways(pairs) + both_ways([(0, 1)], k=2)
        obs = GraphObservation(
            node_features=rng.normal(size=(n, 2)),
            edges=edges,
            coverage=(rng.random(n) < 0.5).astype(np.float64),
        )

        def fn(p):
            return reduce_sum(sigmoid(net.encode_batch([obs])))

        err = grad_check(fn, params.named(), eps=1e-5)
        assert err < 1e-4, f"trial {trial}: {err}"


def maze_observations(rng, count):
    """Belief graphs of `count` 6x6 mazes after random walks of 0-40 steps."""
    observations = []
    for _ in range(count):
        env = MazeEnv(generate_maze(6, 6, 0.2, int(rng.integers(2**31))), budget=40)
        env.reset()
        for _ in range(int(rng.integers(41))):
            exits = [d for d, _ in env.outgoing()]
            env.step(exits[int(rng.integers(len(exits)))])
        observations.append(env.observe())
    return observations


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_encoder_ignores_edge_order(dtype):
    # Environments list their edges in whatever order their edge map holds
    # them; the encoder reads a multiset, bit for bit, in both passes.
    rng = np.random.default_rng(20)
    for trial in range(4):
        observations = maze_observations(rng, 6)
        shuffled = [dataclasses.replace(obs, edges=[obs.edges[i]
                                                    for i in rng.permutation(len(obs.edges))])
                    for obs in observations]
        assert any(a.edges != b.edges for a, b in zip(observations, shuffled))
        params = ParamSet(seed=trial, dtype=dtype)
        net = GraphNet(params, "enc", GraphNetConfig(d=16, rounds=3,
                                                      feature_width=BELIEF_FEATURE_WIDTH))
        runs = []
        for batch in (observations, shuffled):
            with Tape() as tape:
                vectors = net.encode_batch(batch)
                loss = reduce_sum(sigmoid(vectors))
            runs.append((vectors.data, params.gradients(tape, loss)))
        (v0, g0), (v1, g1) = runs
        assert v0.dtype == dtype and np.array_equal(v0, v1)
        for name in g0:
            assert np.array_equal(g0[name].data, g1[name].data), name
