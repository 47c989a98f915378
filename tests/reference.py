"""Test-only references: the finite-difference gradient check, the composed
tape ops that the fused primitives are checked against, a rollout's
per-episode policy outputs and replayed inputs, the app belief graph's edges
rebuilt from scratch, the Karel interpreter on numpy grid cells, and exact
coverage solvers on small graphs.

Graphs in the solvers are plain adjacency lists (list of neighbor lists);
converting from richer observation types is the caller's job.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from graphexplore.envs.karel.lang import ACTIONS
from graphexplore.envs.karel.machine import FACINGS, MAX_MARKERS, WALL, CoverageReport
from graphexplore.tensor.core import Tape, _emit, as_tensor

# ----------------------------------------------------------------- grad_check


def grad_check(fn, params, eps=1e-5):
    """Compare analytic gradients of fn against central finite differences.

    fn takes the name-keyed parameter map and returns a scalar Tensor; it must
    be pure (same params, same value), and every parameter float64. Returns
    the max over all coordinates of
    |analytic - numeric| / max(eps, |analytic| + |numeric|).

    The floor eps keeps the score relative where the gradient is large and
    makes it absolute where it is not: a central difference is only good to
    about eps^2 (truncation) plus rounding / eps, so below eps the ratio of
    two near-zero numbers (say a saturated gate's 1e-11 gradient) would
    measure the rounding of the loss, not the gradient.
    """
    if eps == 0:
        raise ValueError("grad_check: eps must be nonzero")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            # Rounding moves a float32 loss by ~1e-7 of its size, which the
            # 2e-5 wide difference turns into an error of ~5e-3 per unit.
            raise ValueError(f"grad_check: parameter {name!r} is {p.data.dtype}, not float64; "
                             f"finite differences need a float64 model")
    with Tape() as tape:
        loss = fn(params)
    if not np.all(np.isfinite(loss.data)):
        raise ValueError("grad_check: fn returned non-finite value")
    analytic = tape.gradients(loss, params=params.values())
    worst = 0.0
    for name, p in params.items():
        a = analytic[p].data
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(fn(params).data)
            flat[i] = orig - eps
            lo = float(fn(params).data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError(f"grad_check: fn returned non-finite value perturbing {name!r}")
            numeric = (hi - lo) / (2.0 * eps)
            ana = float(a.reshape(-1)[i])
            err = abs(ana - numeric) / max(abs(eps), abs(ana) + abs(numeric))
            if err > worst:
                worst = err
    return worst


# ------------------------------------------------------------- reference ops


def sigmoid(a):
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        return (g * out * (1.0 - out),)

    return _emit(out, (a,), backward)


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return _emit(out, (a,), backward)


def softmax(a, axis=-1):
    a = as_tensor(a)
    if a.data.shape[axis] == 0:
        raise ValueError(f"softmax: empty axis {axis} in shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _emit(out, (a,), backward)


# ------------------------------------------------------------ rollouts


def episode_outputs(batch, k):
    """Episode k's (log-probabilities, entropies, values) as float lists, read
    from the step-stacked outputs of the batch's rollout."""
    if batch.outputs is None:
        return [], [], []
    return tuple(t.data[batch.rows[k]].tolist() for t in batch.outputs)


def replayed_inputs(env, episode):
    """(observations, masks): the observation and the action mask before
    each decision of `episode`, replayed on a fresh copy of `env`.
    observations[t] is what the agent saw with records[t], the newest record
    at decision t."""
    env = copy.deepcopy(env)
    observations = [env.reset()]
    masks = []
    for rec in episode.history.records[1:]:
        masks.append(env.action_mask())
        env.step(rec.action)
        observations.append(env.observe())
    return observations[:len(masks)], masks


# ------------------------------------------------------- app belief graph


def app_reference_edges(state):
    """Edges of an app belief graph rebuilt from the taken transitions: one
    type-1 edge per experienced (src, dst) screen pair, plus a type-2 reverse
    (dst, src) where that reverse was never taken. Node ids are those of the
    state's belief graph, which must have been observed since the last
    step."""
    node_ids = state.belief.node_ids
    forward = set()
    for (src, _), dst in state.taken.items():
        forward.add((node_ids[src], node_ids[dst]))
    edges = [(u, v, 1) for u, v in sorted(forward)]
    edges.extend((v, u, 2) for u, v in sorted(forward) if (v, u) not in forward)
    return edges


# ------------------------------------------------------- Karel interpreter

_DELTA = {"N": (-1, 0), "E": (0, 1), "S": (1, 0), "W": (0, -1)}


class _Halt(Exception):
    def __init__(self, error):
        self.error = error


class _Exec:
    """Hero pose and a private copy of the grid, stepped cell by cell on the
    (side, side) numpy grid with explicit bounds checks."""

    def __init__(self, world, step_cap):
        self.grid = world.grid.copy()
        self.hero = world.hero
        self.facing = world.facing
        self.step_cap = step_cap
        self.steps = 0

    def _spend(self):
        if self.steps >= self.step_cap:
            raise _Halt("step_cap")
        self.steps += 1

    def _ahead(self, turn=0):
        f = FACINGS[(FACINGS.index(self.facing) + turn) % 4]
        dr, dc = _DELTA[f]
        return self.hero[0] + dr, self.hero[1] + dc

    def _clear(self, turn):
        r, c = self._ahead(turn)
        side = self.grid.shape[0]
        return 0 <= r < side and 0 <= c < side and self.grid[r, c] != WALL

    def eval_cond(self, cond):
        if cond.name == "not":
            return not self.eval_cond(cond.inner)
        if cond.name == "frontIsClear":
            return self._clear(0)
        if cond.name == "leftIsClear":
            return self._clear(-1)
        if cond.name == "rightIsClear":
            return self._clear(1)
        here = self.grid[self.hero]
        if cond.name == "markersPresent":
            return here > 0
        return here == 0  # noMarkersPresent

    def do_action(self, kind):
        self._spend()
        side = self.grid.shape[0]
        if kind == "move":
            r, c = self._ahead(0)
            if not (0 <= r < side and 0 <= c < side) or self.grid[r, c] == WALL:
                raise _Halt("wall_crash")
            self.hero = (r, c)
        elif kind == "turnLeft":
            self.facing = FACINGS[(FACINGS.index(self.facing) - 1) % 4]
        elif kind == "turnRight":
            self.facing = FACINGS[(FACINGS.index(self.facing) + 1) % 4]
        elif kind == "putMarker":
            if self.grid[self.hero] >= MAX_MARKERS:
                raise _Halt("marker_overflow")
            self.grid[self.hero] += 1
        else:  # pickMarker
            if self.grid[self.hero] <= 0:
                raise _Halt("no_marker")
            self.grid[self.hero] -= 1


def reference_execute(program, world, step_cap=1000):
    """The coverage report of envs.karel.machine.execute, from an interpreter
    that indexes the numpy grid and writes hits into numpy arrays as it goes.
    Same fuel rules: one unit per primitive action and per condition check."""
    stmt_hit = np.zeros(program.n_statements, dtype=np.int8)
    branch_hit = np.zeros((program.n_branches, 2), dtype=np.int8)
    ex = _Exec(world, step_cap)
    error = None

    def check(stmt):
        ex._spend()
        taken = ex.eval_cond(stmt.cond)
        branch_hit[stmt.branch_id, 0 if taken else 1] = 1
        return taken

    def run_block(stmts):
        for s in stmts:
            stmt_hit[s.stmt_id] = 1
            if s.kind in ACTIONS:
                ex.do_action(s.kind)
            elif s.kind == "if":
                if check(s):
                    run_block(s.body)
            elif s.kind == "ifElse":
                if check(s):
                    run_block(s.body)
                else:
                    run_block(s.orelse)
            elif s.kind == "while":
                while check(s):
                    run_block(s.body)
            else:  # repeat
                for _ in range(s.count):
                    run_block(s.body)

    try:
        run_block(program.body)
    except _Halt as halt:
        error = halt.error
    return CoverageReport(stmt_hit=stmt_hit, branch_hit=branch_hit, error=error, steps=ex.steps)


# ------------------------------------------------------------- exact solvers

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
