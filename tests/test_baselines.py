import numpy as np
import pytest

from graphexplore.agents import RandDfsPolicy, RandomPolicy, random_act
from graphexplore.envs.appgraph import AppEnv, TransitionGraph, generate_er_app
from graphexplore.envs.maze import Maze, MazeEnv, generate_maze
from graphexplore.episode import run_episode

from reference import tree_optimal_steps


def test_random_act_single_choice():
    rng = np.random.default_rng(0)
    assert random_act([2], rng) == 2


def test_random_act_uniform():
    rng = np.random.default_rng(1)
    counts = np.zeros(4)
    for _ in range(100_000):
        counts[random_act([0, 1, 2, 3], rng)] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 0.25) < 0.01)


def test_random_act_reproducible():
    a = [random_act(range(5), np.random.default_rng(7)) for _ in range(20)]
    b = [random_act(range(5), np.random.default_rng(7)) for _ in range(20)]
    assert a == b


def test_random_act_empty_errors():
    with pytest.raises(ValueError, match="no valid actions"):
        random_act([], np.random.default_rng(0))


def corridor_maze(n):
    """1 x n corridor, start at the west end."""
    passages = np.zeros((1, n), dtype=np.uint8)
    for c in range(n - 1):
        passages[0, c] |= 1 << 1  # E
        passages[0, c + 1] |= 1 << 3  # W
    return Maze(width=n, height=1, passages=passages, start=(0, 0))


def maze_tree_adjacency(maze):
    adj = [[] for _ in range(maze.cells())]
    for r in range(maze.height):
        for c in range(maze.width):
            u = r * maze.width + c
            for d, (nr, nc) in maze.exits(r, c):
                if d in (1, 2):  # E, S: each passage once
                    v = nr * maze.width + nc
                    adj[u].append(v)
                    adj[v].append(u)
    return adj


def test_randdfs_path_graph_no_waste():
    for n in (2, 5, 9):
        env = MazeEnv(corridor_maze(n), budget=4 * n)
        history, traj = run_episode(env, RandDfsPolicy(), budget=4 * n, seed=0)
        assert traj.final_coverage == 1.0
        assert len(history.records) - 1 == n - 1  # exactly n-1 moves


def test_randdfs_tree_within_edge_bound():
    for seed in range(20):
        maze = generate_maze(5, 5, 0.0, seed=seed)  # spanning tree
        n = maze.cells()
        env = MazeEnv(maze, budget=2 * (n - 1))
        _, traj = run_episode(env, RandDfsPolicy(), budget=2 * (n - 1), seed=seed)
        assert traj.final_coverage == 1.0


def test_randdfs_tree_revisits_only_backtrack():
    # Avoidance is by stack membership, so revisits are possible in general
    # (popped nodes are fair game). On a tree with visible destinations the
    # only door to a popped region is the entry door, which stays blocked
    # until the parent itself pops, so every revisit must be a return to the
    # DFS parent.
    class Recorder(RandDfsPolicy):
        def __init__(self):
            super().__init__()
            self.moves = []

        def __call__(self, env, rng):
            action = super().__call__(env, rng)
            self.moves.append((env.current_node(), action))
            return action

    for seed in range(10):
        maze = generate_maze(5, 5, 0.0, seed=seed)
        policy = Recorder()
        env2 = MazeEnv(maze, budget=200)
        run_episode(env2, policy, budget=200, seed=seed)
        # Replay the recorded (source, action) moves against a fresh env to get
        # destinations, then check the parent rule.
        env3 = MazeEnv(maze, budget=200)
        env3.reset(np.random.default_rng(seed))
        parent = {env3.current_node(): None}
        pos = env3.current_node()
        for src, action in policy.moves:
            assert src == pos
            env3.step(action)
            dest = env3.current_node()
            if dest in parent:  # revisit
                assert parent[src] == dest, f"seed {seed}: revisit {src}->{dest} not a backtrack"
            else:
                parent[dest] = src
            pos = dest


def test_randdfs_hidden_corridor_completes_with_bounces():
    # With destinations hidden the walker probes doors blind: a probe back
    # toward the stack bounces (two wasted steps), so a corridor still
    # completes, within a 4x bound instead of exactly n-1.
    for n, seed in [(4, 0), (7, 1), (10, 2)]:
        maze = corridor_maze(n)
        env = MazeEnv(maze, budget=4 * n, hide_destinations=True)
        history, traj = run_episode(env, RandDfsPolicy(), budget=4 * n, seed=seed)
        assert traj.final_coverage == 1.0
        assert len(history.records) - 1 >= n - 1


def test_randdfs_hidden_loopy_maze_completes():
    # Bounces and wandering burn budget but never wedge the walker: given a
    # generous budget it still covers everything (slowest of these seeds
    # finishes at 531 steps).
    for seed in range(5):
        maze = generate_maze(6, 6, 0.3, seed=seed)
        env = MazeEnv(maze, budget=800, hide_destinations=True)
        _, traj = run_episode(env, RandDfsPolicy(), budget=800, seed=seed)
        assert traj.final_coverage == 1.0


def test_randdfs_cannot_backtrack_over_a_one_way_entry():
    # a -x-> b is one-way and b's only action loops, so once b's loop is
    # tried the walker must back out of b and has no return ticket. Seed 1
    # takes x first; taking y first covers all three screens on reaching b,
    # which ends the episode before the loop is tried.
    g = TransitionGraph(
        screens=("a", "b", "c"),
        transitions={("a", "x"): "b", ("a", "y"): "c", ("b", "loop"): "b", ("c", "back"): "a"},
        start="a",
    )
    with pytest.raises(ValueError, match="cannot backtrack: action 0 is irreversible"):
        run_episode(AppEnv(g, budget=20), RandDfsPolicy(), budget=20, seed=1)


def test_randdfs_cannot_undo_a_one_way_probe_onto_the_stack():
    # a -go-> b -on-> c -jump-> a: the probe from c lands on the stack root,
    # which has no edge back to c. Seed 1 takes go first (side is a dead end).
    g = TransitionGraph(
        screens=("a", "b", "c", "d"),
        transitions={("a", "go"): "b", ("a", "side"): "d", ("b", "on"): "c", ("c", "jump"): "a"},
        start="a",
    )
    with pytest.raises(ValueError, match="cannot return from node 0: action 0 is irreversible"):
        run_episode(AppEnv(g, budget=20), RandDfsPolicy(), budget=20, seed=1)


def test_randdfs_coverage_monotone_in_budget():
    maze = generate_maze(6, 6, 0.1, seed=3)
    cov = []
    for budget in (5, 10, 20, 40, 70):
        env = MazeEnv(maze, budget=budget)
        _, traj = run_episode(env, RandDfsPolicy(), budget=budget, seed=11)
        cov.append(traj.final_coverage)
    assert cov == sorted(cov)


def test_randdfs_optimal_on_trees_is_bounded_by_oracle():
    # DFS needs at most 2(n-1) steps; the optimum needs tree_optimal_steps.
    for seed in range(5):
        maze = generate_maze(4, 4, 0.0, seed=seed)
        adj = maze_tree_adjacency(maze)
        start = maze.start[0] * maze.width + maze.start[1]
        opt = tree_optimal_steps(adj, start)
        env = MazeEnv(maze, budget=64)
        history, _ = run_episode(env, RandDfsPolicy(), budget=64, seed=seed)
        steps_used = len(history.records) - 1
        assert opt <= steps_used <= 2 * (maze.cells() - 1)
