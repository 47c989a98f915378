"""Exact reference solvers used to anchor the learned agents and tests:
tree traversal optimum and brute-force budgeted coverage on small graphs.

Graphs here are plain adjacency lists (list of neighbor lists); converting
from richer observation types is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_NODES = 14
MAX_BUDGET = 14  # full coverage of any tree with n <= 8 needs at most 2*7-1 = 13 steps


@dataclass
class OracleResult:
    best_coverage: int
    witness: list  # node sequence of a best walk
    nodes_expanded: int


def _check_tree(adj):
    n = len(adj)
    edge_endpoints = sum(len(nbrs) for nbrs in adj)
    if edge_endpoints != 2 * (n - 1):
        raise ValueError(f"not a tree: {edge_endpoints // 2} edges for {n} nodes")
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != n:
        raise ValueError("not a tree: graph is disconnected")


def tree_optimal_steps(adj, start):
    """Minimum steps to visit every node of a tree: each of the n-1 edges is
    walked twice except those on the longest root path, which is left for
    last and walked once."""
    _check_tree(adj)
    n = len(adj)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return 2 * (n - 1) - max(dist.values())


def brute_force_coverage(adj, start, budget):
    """Exhaustive best-coverage walk within a step budget, memoized on
    (node, visited bitmask, steps left). Exponential by design; the size
    bounds keep it honest."""
    n = len(adj)
    if n > MAX_NODES:
        raise ValueError(f"graph too large for brute force: {n} > {MAX_NODES}")
    if budget > MAX_BUDGET:
        raise ValueError(f"budget too large for brute force: {budget} > {MAX_BUDGET}")
    full = (1 << n) - 1
    memo = {}
    expanded = 0

    def best(node, mask, left):
        nonlocal expanded
        if left == 0 or mask == full:
            return 0, ()
        key = (node, mask, left)
        hit = memo.get(key)
        if hit is not None:
            return hit
        expanded += 1
        top_gain, top_path = 0, ()
        for nxt in adj[node]:
            bit = 1 << nxt
            gain = 0 if mask & bit else 1
            sub_gain, sub_path = best(nxt, mask | bit, left - 1)
            if gain + sub_gain > top_gain:
                top_gain, top_path = gain + sub_gain, (nxt,) + sub_path
        memo[key] = (top_gain, top_path)
        return memo[key]

    gain, path = best(start, 1 << start, budget)
    return OracleResult(
        best_coverage=gain + 1,
        witness=list(path),
        nodes_expanded=expanded,
    )


def replay_walk(adj, start, witness):
    """Walks the witness through the adjacency structure; returns covered
    count. Raises if the witness uses a non-edge."""
    covered = {start}
    cur = start
    for nxt in witness:
        if nxt not in adj[cur]:
            raise ValueError(f"witness step {cur} -> {nxt} is not an edge")
        covered.add(nxt)
        cur = nxt
    return len(covered)


def full_coverage_budget(adj, start, upper):
    """Smallest budget whose brute-force best covers every node."""
    n = len(adj)
    for budget in range(upper + 1):
        if brute_force_coverage(adj, start, budget).best_coverage == n:
            return budget
    raise ValueError(f"no full-coverage walk within {upper} steps")


def random_tree(n, rng):
    """Uniform-ish random tree: each node i >= 1 attaches to a random earlier
    node. Returns an adjacency list."""
    adj = [[] for _ in range(n)]
    for i in range(1, n):
        j = int(rng.integers(i))
        adj[i].append(j)
        adj[j].append(i)
    return adj


def er_adjacency(n, p, rng, connected_from=None):
    """Erdos-Renyi adjacency list. With connected_from set, resamples until
    that node's component spans the graph."""
    while True:
        adj = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adj[i].append(j)
                    adj[j].append(i)
        if connected_from is None:
            return adj
        seen = {connected_from}
        stack = [connected_from]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == n:
            return adj
