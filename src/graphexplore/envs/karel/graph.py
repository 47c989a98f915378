"""Program AST to coverage graph.

Nodes: a run root, one node per statement, one node per condition token
(not() wrappers are their own nodes), and a true/false outcome anchor pair
per condition site. Coverage units live on statement nodes and anchors
(KarelGraph.unit_nodes places them); the root and condition nodes never carry
coverage, so the sum of an observation's coverage over nodes equals the
number of covered units.

Directed edge types:
  1 ast-child       parent -> child (root->stmt, stmt->cond, not->inner,
                    branch stmt->anchors, anchor->branch-body stmt,
                    repeat->body stmt)
  2 next-statement  consecutive statements in one block
  3 cond-to-true    condition root -> true anchor
  4 cond-to-false   condition root -> false anchor
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...graphnet import GraphObservation
from .lang import ACTIONS

NUM_EDGE_TYPES = 4

NODE_KINDS = (
    "run",
    "move",
    "turnLeft",
    "turnRight",
    "putMarker",
    "pickMarker",
    "if",
    "ifElse",
    "while",
    "repeat",
    "frontIsClear",
    "leftIsClear",
    "rightIsClear",
    "markersPresent",
    "noMarkersPresent",
    "not",
    "true-anchor",
    "false-anchor",
)
_REPEAT_BUCKETS = 5  # counts 1,2,3,4,>=5
FEATURE_WIDTH = len(NODE_KINDS) + _REPEAT_BUCKETS


@dataclass
class KarelGraph:
    node_kinds: tuple  # kind name per node, index order frozen
    features: np.ndarray  # (n, FEATURE_WIDTH) float64 one-hot rows
    edges: tuple  # (src, dst, type) triples
    # Node of each coverage unit in report order: statement stmt_id at
    # [stmt_id], then branch b's true and false anchors at
    # [n_statements + 2b] and [n_statements + 2b + 1].
    unit_nodes: np.ndarray  # (n_statements + 2 * n_branches,) intp
    n_statements: int
    n_branches: int

    @property
    def node_count(self):
        return len(self.node_kinds)

    def observation(self, hits):
        """The graph with the 0/1 unit `hits`, in report order, on their nodes."""
        coverage = np.zeros(self.node_count)
        coverage[self.unit_nodes] = hits
        return GraphObservation(self.features.copy(), self.edges, coverage)


def _feature_row(kind, repeat_count=0):
    row = np.zeros(FEATURE_WIDTH)
    row[NODE_KINDS.index(kind)] = 1.0
    if kind == "repeat":
        row[len(NODE_KINDS) + min(repeat_count, _REPEAT_BUCKETS) - 1] = 1.0
    return row


def program_to_graph(program):
    kinds = []
    features = []
    edges = []
    stmt_nodes = [0] * program.n_statements
    anchor_nodes = [0] * (2 * program.n_branches)

    def add_node(kind, repeat_count=0):
        kinds.append(kind)
        features.append(_feature_row(kind, repeat_count))
        return len(kinds) - 1

    def add_cond(cond, parent):
        idx = add_node(cond.name)
        edges.append((parent, idx, 1))
        if cond.name == "not":
            add_cond(cond.inner, idx)
        return idx

    def add_block(stmts, parent):
        prev = None
        for s in stmts:
            idx = add_node(s.kind, s.count)
            stmt_nodes[s.stmt_id] = idx
            edges.append((parent, idx, 1))
            if prev is not None:
                edges.append((prev, idx, 2))
            prev = idx
            if s.kind in ACTIONS:
                continue
            if s.kind == "repeat":
                add_block(s.body, idx)
                continue
            cond_idx = add_cond(s.cond, idx)
            t_idx = add_node("true-anchor")
            edges.append((idx, t_idx, 1))
            edges.append((cond_idx, t_idx, 3))
            add_block(s.body, t_idx)
            f_idx = add_node("false-anchor")
            edges.append((idx, f_idx, 1))
            edges.append((cond_idx, f_idx, 4))
            add_block(s.orelse, f_idx)
            anchor_nodes[2 * s.branch_id:2 * s.branch_id + 2] = t_idx, f_idx

    root = add_node("run")
    add_block(program.body, root)
    return KarelGraph(
        node_kinds=tuple(kinds),
        features=np.array(features) if features else np.zeros((0, FEATURE_WIDTH)),
        edges=tuple(edges),
        unit_nodes=np.array(stmt_nodes + anchor_nodes, dtype=np.intp),
        n_statements=program.n_statements,
        n_branches=program.n_branches,
    )

