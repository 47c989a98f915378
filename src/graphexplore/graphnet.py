"""Graph encoder: gated message passing over typed directed edges, with the
messages into a node summed (as in Li et al.'s gated graph networks), attention
readout to a fixed-width graph vector, and the belief-graph observations the
maze and app environments hand to it.

The encoder consumes a GraphObservation: the currently known subgraph, whose
node features end in a per-node coverage bit. The bit is a feature column like
any other before any learned transformation, so the same encoder weights serve
both "what does the graph look like" and "what is left to visit". Edges are an
unordered collection of (u, v, k): propagate reads them only through per-node
counts, so its result depends on the edge multiset, not on the order in which
an environment lists it. A belief graph has at most one edge per (u, v).

GraphNet.encode_batch is the one encoding entry point. Rollouts call it once
per lockstep step, on the tape when training, and the learner backpropagates
through those calls rather than encoding again. It encodes many observations
at once as their disjoint union (as in PyG's batching): node rows are
stacked, edges are offset into them, message passing runs once on the union,
and the readout's attention softmax and weighted sum run per graph through
segment operations. Since no edge crosses graphs, each graph's vector equals
its own encoding; a single observation is the union of one. Callers that need node states or readout
attention run the stages (project_features, propagate, readout) themselves.

Messages are computed per node, not per edge. The message function is one
linear layer W (rows W_dst, W_src, W_type) with bias b, so the sum of
[h_v, h_u, onehot(k)] W + b over the in-edges (u, v, k) of v is

    [deg_v h_v, sum_u h_u, typecounts_v] W + deg_v b

where deg_v is v's in-degree and typecounts_v counts its in-edges per type.
Linearity is what lets the sum move inside W: with a nonlinearity between
layers, each edge's message would have to be formed on its own. Degrees,
type counts and in-edge counts are fixed for an encode and built once before
its rounds. Since no edge crosses graphs, a union's in-edge count matrix is
block-diagonal: consecutive graphs share a dense block of at most BLOCK_NODES
nodes (a larger graph gets its own), and sum_u h_u is one product per block.
A round costs those block products and one product on node rows; a node
without in-edges gets an exactly zero message.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    GRUCell,
    Linear,
    Tensor,
    concat,
    embed_lookup,
    graph_message,
    matmul,
    reshape,
    segment_aggregate,
    segment_softmax,
)

MAX_EDGE_TYPES = 8  # width of the message layer's edge-type input; environments declare K <= this

# Most nodes in one in-edge count block. A block of b nodes costs a dense
# (b, b) @ (b, d) product per round, so its cost per node grows with b, while
# each block adds one Python-level product. On the last union of a 100-maze
# greedy evaluation (907 nodes, 1,660 edges; d=64, 5 rounds, one BLAS thread
# on 2 cores), propagate's forward took 7.4-7.9 ms with blocks of at most 36,
# 64 or 128 nodes, 10.3 ms with 256 and 14.6 ms as one block; the one block
# grows quadratically with the union.
BLOCK_NODES = 128


@dataclass(eq=False)
class GraphObservation:
    """A (sub)graph whose node features end in the coverage bit. Observations
    compare by identity: the feature array has no single truth value to
    compare by.

    node_features holds an environment's raw feature columns, then one 0/1
    column: whether the node is covered. Edges are directed (u, v, k) with
    type k in 1..MAX_EDGE_TYPES (GraphNet.propagate checks endpoints and
    types, and that no edge joins two graphs of a union); undirected
    environments insert both directions. They form a multiset: their order
    means nothing. The agent's position, where an environment has one, is a
    raw feature: the is-current column of a belief graph
    (BeliefNodes.observation).

    A maze or app belief graph hands out its edges as a tuple, shared by
    consecutive observations until the graph changes (see BeliefNodes), and
    a fresh feature array per observation.
    """

    node_features: np.ndarray  # (node_count, raw width + 1); the last column is the coverage bit
    edges: Sequence  # of (u, v, k), in no particular order; a union holds an (m, 3) int array

    @property
    def node_count(self):
        return len(self.node_features)

    def is_empty(self):
        return self.node_count == 0


def empty_observation(feature_width):
    """The graph of no nodes, for raw features `feature_width` wide."""
    return GraphObservation(node_features=np.zeros((0, feature_width + 1)), edges=())


# ------------------------------------------- belief graphs of maze and app


BELIEF_FEATURE_WIDTH = 1  # a belief graph's one raw feature column: is the node current


@dataclass
class BeliefNodes:
    """A growing belief graph, the one builder of maze and app observations.
    A key (a maze cell, an app screen) gets the next node id when it is first
    admitted and keeps it, so coverage bits line up from one observation to
    the next. links holds at most one edge type per ordered node pair. An
    env state owns one as `belief`, which only the env's observe builds.

    Observations share one edge tuple until link adds or retypes an edge;
    each builds its own [is-current | covered] feature array."""

    node_ids: dict = field(default_factory=dict)  # key -> node id, in id order
    links: dict = field(default_factory=dict)  # (u, v) -> edge type
    covered: set = field(default_factory=set)  # ids of covered nodes
    # The edges the latest observation handed out, kept until they change (None: stale).
    _edges: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def admit(self, key):
        if key not in self.node_ids:
            self.node_ids[key] = len(self.node_ids)

    def mark_covered(self, key):
        """Set the coverage bit of admitted `key`, which must not be set yet."""
        self.covered.add(self.node_ids[key])

    def link(self, a, b, k, back):
        """Edge a -> b of type k between admitted keys, backed by b -> a of
        type `back` unless b -> a is already an edge."""
        u, v = self.node_ids[a], self.node_ids[b]
        if self.links.get((u, v)) != k or (v, u) not in self.links:
            self.links[(u, v)] = k
            self.links.setdefault((v, u), back)
            self._edges = None

    def observation(self, current_key):
        """Observation of the graph with the agent on `current_key`: node
        features [is-current | covered], built afresh."""
        if self._edges is None:
            self._edges = tuple((u, v, k) for (u, v), k in self.links.items())
        features = np.zeros((len(self.node_ids), BELIEF_FEATURE_WIDTH + 1))
        features[self.node_ids[current_key], 0] = 1.0
        features[list(self.covered), -1] = 1.0
        return GraphObservation(node_features=features, edges=self._edges)


@dataclass
class GraphNetConfig:
    d: int = 64
    rounds: int = 5
    feature_width: int = 1  # raw width: node features hold one more column, the coverage bit


class GraphNet:
    """Message-passing encoder with shared weights across rounds.

    Per round, each edge (u, v, k) contributes a linear map of
    [mu_v, mu_u, onehot(k)] to node v's incoming message; messages are summed
    per node (empty neighborhoods give zero) and a GRU folds the message into
    the node state. Because the map is linear, propagate forms each node's
    sum directly as [deg_v mu_v, sum_u mu_u, typecounts_v] W + deg_v b (see
    the module docstring); the per-edge form is kept as the reference in the
    tests. Readout is an attention-weighted sum of final node states.
    """

    def __init__(self, params, name, config):
        if config.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {config.rounds}")
        self.config = config
        d = config.d
        self.project = Linear(params, f"{name}/project", config.feature_width + 1, d)
        self.message = Linear(params, f"{name}/message/l0", 2 * d + MAX_EDGE_TYPES, d)
        self.gru = GRUCell(params, f"{name}/gru", d, d)
        self.w_att = params.get_or_init(f"{name}/readout/W_att", (d,), init="normal")
        self.empty_vec = params.get_or_init(f"{name}/empty_graph", (d,), init="normal")

    # -- stages ------------------------------------------------------------

    def project_features(self, obs):
        """Node features, coverage bit included, linearly mapped to width d.
        These are the pre-message-passing node states (round 0), in the
        parameters' dtype, to which the features are cast first."""
        return self.project(Tensor(obs.node_features.astype(self.project.W.data.dtype)))

    def propagate(self, h0, obs, node_counts):
        """L message-passing rounds from initial node states h0 (n, d).

        obs is a disjoint union of graphs with node_counts[i] nodes each, in
        order ([n] for one graph); no edge may join two of them. Messages are
        formed per node (see the module docstring), and what is fixed for the
        encode is built once before the rounds: the in-degree and edge-type
        counts, the in-edge count blocks and the GRU's [Wx_zr | Wx_n]. A round is one graph_message op (one product
        per block for the neighbour sums, then one (n, 2d + MAX_EDGE_TYPES)
        product with W) and one gru_cell op."""
        n = obs.node_count
        graph_nodes = np.asarray(node_counts, dtype=np.intp)
        if graph_nodes.sum() != n:
            raise ValueError(f"node counts {graph_nodes.tolist()} do not add up to the {n} nodes")
        edges = np.asarray(obs.edges, dtype=np.intp).reshape(-1, 3)
        src, dst, etype = edges[:, 0], edges[:, 1], edges[:, 2]
        graph = np.repeat(np.arange(len(graph_nodes)), graph_nodes)  # node -> graph of the union
        if len(edges):
            if edges[:, :2].min() < 0 or edges[:, :2].max() >= n:
                raise ValueError(f"edge endpoint outside [0, {n})")
            if etype.min() < 1 or etype.max() > MAX_EDGE_TYPES:
                raise ValueError(f"edge type outside 1..MAX_EDGE_TYPES ({MAX_EDGE_TYPES}): "
                                 f"{etype.min()}..{etype.max()}")
            crossing = np.flatnonzero(graph[src] != graph[dst])
            if len(crossing):
                u, v, k = edges[crossing[0]].tolist()
                raise ValueError(f"edge ({u}, {v}, {k}) joins graphs {graph[u]} and {graph[v]} "
                                 f"of the union")
        dtype = self.message.W.data.dtype
        blocks = adjacency_blocks(src, dst, block_sizes(graph_nodes), dtype)
        counts = np.bincount(dst * MAX_EDGE_TYPES + etype - 1,
                             minlength=n * MAX_EDGE_TYPES).reshape(n, MAX_EDGE_TYPES)
        type_counts = counts.astype(dtype)  # small integers: exact
        degree = type_counts.sum(axis=1, keepdims=True)
        Wx = self.gru.input_weight()
        h = h0
        for _ in range(self.config.rounds):
            messages = graph_message(h, self.message.W, self.message.b, blocks, degree,
                                     type_counts)
            h = self.gru(messages, h, Wx)
        return h

    def readout(self, node_embeddings, graph_ids, num_graphs):
        """(graph_vectors (num_graphs, d), attention_weights (n,)) from final
        node states; graph_ids[i] is the graph node i belongs to, and the
        attention softmax runs within each graph."""
        scores = matmul(node_embeddings, self.w_att)
        alpha = segment_softmax(scores, graph_ids, num_graphs)
        weighted = reshape(alpha, (alpha.data.shape[0], 1)) * node_embeddings
        return segment_aggregate(weighted, graph_ids, num_graphs), alpha

    def encode_batch(self, observations):
        """(R, d) graph vectors, one row per observation: the non-empty
        observations are encoded by one message passing run over their
        disjoint union, and empty ones get the learned empty-graph row."""
        full = [i for i, obs in enumerate(observations) if not obs.is_empty()]
        vectors = None
        if full:
            union, graph_ids = union_observation([observations[i] for i in full])
            h = self.propagate(self.project_features(union), union,
                               [observations[i].node_count for i in full])
            vectors, _ = self.readout(h, graph_ids, len(full))
        if len(full) < len(observations):
            rows = np.full(len(observations), len(full))  # the empty-graph row
            rows[full] = np.arange(len(full))
            empty = reshape(self.empty_vec, (1, self.config.d))
            table = empty if vectors is None else concat([vectors, empty], axis=0)
            vectors = embed_lookup(table, rows)
        return vectors


def block_sizes(node_counts):
    """Node counts of the in-edge count blocks: consecutive graphs of a union
    share a block while it stays within BLOCK_NODES nodes, and a larger
    graph gets a block of its own."""
    sizes = [0]
    for c in node_counts:
        if sizes[-1] and sizes[-1] + c > BLOCK_NODES:
            sizes.append(0)
        sizes[-1] += int(c)
    return sizes


def adjacency_blocks(src, dst, sizes, dtype):
    """The diagonal blocks of the in-edge count matrix, of the given sizes
    and in `dtype`: block[v, u] counts the edges u -> v, numbered within the
    block. Every edge must lie within one block."""
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    cells = np.cumsum(sizes * sizes) - sizes * sizes  # offset of each block's cells
    block = np.repeat(np.arange(len(sizes)), sizes)[dst]
    lo = starts[block]
    flat = cells[block] + (dst - lo) * sizes[block] + (src - lo)
    counts = np.bincount(flat, minlength=int((sizes * sizes).sum())).astype(dtype)
    return [counts[c : c + s * s].reshape(s, s) for c, s in zip(cells.tolist(), sizes.tolist())]


def union_observation(observations):
    """Disjoint union of observations: node rows stacked in order, edges
    offset into them. Returns (union, graph_ids) where graph_ids[i] is the
    index of the observation node i came from."""
    counts = [obs.node_count for obs in observations]
    offsets = np.cumsum([0] + counts[:-1])
    edges = [np.asarray(obs.edges, dtype=np.intp).reshape(-1, 3) + [off, off, 0]
             for obs, off in zip(observations, offsets)]
    union = GraphObservation(
        node_features=np.concatenate([obs.node_features for obs in observations], axis=0),
        edges=np.concatenate(edges, axis=0),
    )
    return union, np.repeat(np.arange(len(observations)), counts)
