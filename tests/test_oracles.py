import numpy as np
import pytest

from graphexplore.envs.appgraph import er_adjacency

from reference import (
    brute_force_coverage,
    full_coverage_budget,
    random_tree,
    replay_walk,
    tree_optimal_steps,
)


def path_adj(n):
    adj = [[] for _ in range(n)]
    for i in range(n - 1):
        adj[i].append(i + 1)
        adj[i + 1].append(i)
    return adj


def star_adj(leaves):
    adj = [[] for _ in range(leaves + 1)]
    for i in range(1, leaves + 1):
        adj[0].append(i)
        adj[i].append(0)
    return adj


def complete_adj(n):
    return [[j for j in range(n) if j != i] for i in range(n)]


def reaches_every_node(adj, start):
    seen = {start}
    stack = [start]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def test_tree_path_from_endpoint():
    assert tree_optimal_steps(path_adj(4), 0) == 3


def test_tree_star_from_center():
    assert tree_optimal_steps(star_adj(3), 0) == 5


def test_tree_paths_all_lengths():
    for n in range(2, 65):
        assert tree_optimal_steps(path_adj(n), 0) == n - 1


def test_tree_rejects_non_tree():
    adj = path_adj(3)
    adj[0].append(2)
    adj[2].append(0)
    with pytest.raises(ValueError, match="not a tree"):
        tree_optimal_steps(adj, 0)
    with pytest.raises(ValueError, match="disconnected"):
        tree_optimal_steps([[1, 2], [0, 2], [0, 1], []], 0)  # triangle + isolate


def test_brute_force_complete_k4():
    for start in range(4):
        result = brute_force_coverage(complete_adj(4), start, 3)
        assert result.best_coverage == 4
        assert replay_walk(complete_adj(4), start, result.witness) == 4


def test_brute_force_path_budget2():
    result = brute_force_coverage(path_adj(4), 0, 2)
    assert result.best_coverage == 3


def test_brute_force_bounds():
    with pytest.raises(ValueError, match="too large"):
        brute_force_coverage(complete_adj(15), 0, 3)
    with pytest.raises(ValueError, match="budget"):
        brute_force_coverage(complete_adj(4), 0, 15)


def test_brute_force_beats_random_rollouts():
    rng = np.random.default_rng(0)
    matched = 0
    for trial in range(50):
        n = int(rng.integers(5, 11))
        adj = er_adjacency(n, 0.35, rng)
        while not reaches_every_node(adj, 0):
            adj = er_adjacency(n, 0.35, rng)
        oracle = brute_force_coverage(adj, 0, 6)
        best_random = 0
        for _ in range(200):
            covered = {0}
            cur = 0
            for _ in range(6):
                if not adj[cur]:
                    break
                cur = adj[cur][int(rng.integers(len(adj[cur])))]
                covered.add(cur)
            best_random = max(best_random, len(covered))
        assert oracle.best_coverage >= best_random
        if oracle.best_coverage == best_random:
            matched += 1
    assert matched >= 1


def test_witness_replay_exactness():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        adj = random_tree(n, rng)
        result = brute_force_coverage(adj, 0, 8)
        assert replay_walk(adj, 0, result.witness) == result.best_coverage


def test_full_coverage_budget_matches_tree_formula():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        adj = random_tree(n, rng)
        expect = tree_optimal_steps(adj, 0)
        assert full_coverage_budget(adj, 0, 14) == expect


def test_replay_rejects_non_edges():
    with pytest.raises(ValueError, match="not an edge"):
        replay_walk(path_adj(3), 0, [2])
