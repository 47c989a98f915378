import copy
import dataclasses
import hashlib
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexplore.agents import RandomPolicy
from graphexplore.envs.maze import (
    DELTAS,
    DIRECTIONS,
    E,
    MAZE_LOOP_PROB,
    MAZE_SIZE,
    OPPOSITE,
    Maze,
    MazeEnv,
    N,
    S,
    W,
    generate_maze,
    heldout_mazes,
)
from graphexplore.episode import run_episode
from graphexplore.graphnet import BeliefNodes


def open_grid(w, h, start=(0, 0)):
    passages = np.zeros((h, w), dtype=np.uint8)
    for r in range(h):
        for c in range(w):
            if c + 1 < w:
                passages[r, c] |= 1 << E
                passages[r, c + 1] |= 1 << W
            if r + 1 < h:
                passages[r, c] |= 1 << S
                passages[r + 1, c] |= 1 << N
    return Maze(width=w, height=h, passages=passages, start=start)


def passage_count(maze):
    """Open passages, each counted once (both of its cells list it)."""
    return sum(len(maze.open_dirs(r, c)) for r in range(maze.height)
               for c in range(maze.width)) // 2


def test_generate_1x1():
    maze = generate_maze(1, 1, 0.0, seed=0)
    assert passage_count(maze) == 0
    assert maze.start == (0, 0)


def test_generate_tree_edge_count():
    for seed in range(10):
        maze = generate_maze(6, 6, 0.0, seed=seed)
        assert passage_count(maze) == 35


def test_generate_full_open():
    maze = generate_maze(4, 3, 1.0, seed=1)
    # every interior wall open: edges of the full grid graph
    assert passage_count(maze) == 3 * 3 + 4 * 2


def test_generate_deterministic_and_symmetric():
    a = generate_maze(6, 6, 0.3, seed=42)
    b = generate_maze(6, 6, 0.3, seed=42)
    assert np.array_equal(a.passages, b.passages) and a.start == b.start
    for r in range(6):
        for c in range(6):
            if E in a.open_dirs(r, c):
                assert W in a.open_dirs(r, c + 1)
            if S in a.open_dirs(r, c):
                assert N in a.open_dirs(r + 1, c)


def test_generate_connected():
    for seed in range(5):
        maze = generate_maze(5, 5, 0.0, seed=seed)
        seen = {maze.start}
        stack = [maze.start]
        while stack:
            r, c = stack.pop()
            for d in maze.open_dirs(r, c):
                nxt = (r + ((-1, 0, 1, 0)[d]), c + ((0, 1, 0, -1)[d]))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert len(seen) == 25


def fresh_env(maze):
    env = MazeEnv(maze, budget=maze.cells())
    env.reset()
    return env


def test_observe_start_neighborhood():
    # Start cell with exactly two open sides: 3 nodes, both directions per passage.
    env = fresh_env(open_grid(2, 2, start=(0, 0)))
    obs = env.observe()
    assert obs.node_count == 3
    assert sorted(obs.coverage) == [0.0, 0.0, 1.0]
    assert len(obs.edges) == 4  # 2 passages, both directions
    assert obs.node_features[:, 0].tolist() == [1.0, 0.0, 0.0]  # the start is node 0


def test_observe_full_coverage():
    env = fresh_env(open_grid(2, 2))
    for d in (E, S, W):
        env.step(d)
    obs = env.observe()
    assert obs.node_count == 4
    assert np.all(obs.coverage == 1.0)


def test_observe_features_have_no_coordinates():
    # Feature width is exactly the is-current column: nothing in the schema
    # can carry (row, col).
    env = fresh_env(open_grid(3, 3, start=(1, 1)))
    obs = env.observe()
    assert obs.node_features.shape == (obs.node_count, 1)
    assert obs.node_features[env.state.belief.node_ids[env.current_node()], 0] == 1.0
    assert obs.node_features[:, 0].sum() == 1.0


def covered_nodes(env):
    """The covered-node count of the env's belief graph, observed now."""
    env.observe()
    return len(env.state.belief.covered)


def test_step_deltas_and_errors():
    # A step onto a fresh cell covers exactly one more cell; a revisit none.
    env = fresh_env(open_grid(2, 2, start=(0, 0)))
    covered = covered_nodes(env)
    env.step(E)
    assert covered_nodes(env) == covered + 1
    env.step(W)
    assert covered_nodes(env) == covered + 1
    with pytest.raises(ValueError, match="blocked direction N from"):
        env.step(N)
    for direction in (4, -1):
        with pytest.raises(ValueError, match=f"unknown direction {direction}"):
            env.step(direction)


def test_corner_cell_action_bound():
    for seed in range(5):
        env = fresh_env(generate_maze(4, 4, 1.0, seed=seed))
        env.state.position = (0, 0)
        assert env.action_mask().sum() <= 2


# (width, height, loop_prob, seeds): degenerate sizes, no and all extra
# openings, a non-square grid, and the frozen distribution on the held-out
# and protocol seeds.
MAZE_DIGEST_SETTINGS = (
    (1, 1, 0.0, range(50)),
    (1, 1, 1.0, range(50)),
    (6, 6, 0.0, range(100)),
    (6, 6, 1.0, range(100)),
    (4, 7, 0.5, range(100)),
    (6, 6, 0.18, range(7001, 7101)),
    (6, 6, 0.18, range(8001, 9001)),
)


def maze_digest():
    """SHA-256 over what generate_maze draws in MAZE_DIGEST_SETTINGS: each
    maze's start and passages, and the generator state the draw leaves
    behind (default_rng hands a Generator back unchanged, so the state is
    readable after the call)."""
    digest = hashlib.sha256()
    for width, height, loop_prob, seeds in MAZE_DIGEST_SETTINGS:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            maze = generate_maze(width, height, loop_prob, rng)
            digest.update(repr((maze.start, maze.passages.tolist(),
                                rng.bit_generator.state)).encode())
    return digest.hexdigest()


def test_generated_mazes_are_pinned():
    # Training, held-out evaluation and the frozen protocols all run on these
    # draws; a new digest changes every maze.
    assert maze_digest() == "598d81e155e196a7353ae3f359aeae7931eab08a026865e48c28adbbf5430513"


def test_heldout_set_is_stable():
    a = heldout_mazes(3)
    b = heldout_mazes(3)
    for x, y in zip(a, b):
        assert np.array_equal(x.passages, y.passages) and x.start == y.start


def test_env_reset_returns_empty_graph():
    env = MazeEnv(generate_maze(4, 4, 0.1, seed=5), budget=16)
    obs = env.reset()
    assert obs.node_count == 0
    assert env.reward_normalizer == 16.0


def test_env_mask_matches_valid_actions():
    env = MazeEnv(generate_maze(4, 4, 0.0, seed=6), budget=16)
    env.reset()
    mask = env.action_mask()
    assert np.flatnonzero(mask).tolist() == env.maze.open_dirs(*env.state.position)
    assert np.flatnonzero(mask).tolist() == [d for d, _ in env.outgoing()]


@pytest.mark.parametrize("start, stored", [([1, 1], (1, 1)), ((0.0, 1.0), (0, 1)),
                                           ((np.int64(2), np.uint8(0)), (2, 0))])
def test_maze_stores_its_start_as_two_python_ints(start, stored):
    # A list start once built, and reset then raised "unhashable type: 'list'".
    maze = open_grid(3, 3, start=start)
    assert maze.start == stored and [type(x) for x in maze.start] == [int, int]
    env = fresh_env(maze)
    env.observe()
    assert env.state.position == env.current_node() == stored
    assert env.state.belief.node_ids[stored] == 0


@pytest.mark.parametrize("start", [(0.5, 1), (1, None), (1,), (1, 1, 1), "ab", 3,
                                   (float("nan"), 0), (float("inf"), 0)])
def test_maze_rejects_a_start_that_is_not_two_integers(start):
    with pytest.raises(ValueError, match=r"is not a \(row, col\) pair of integers"):
        open_grid(3, 3, start=start)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 6),
    height=st.integers(1, 6),
    loop_prob=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_table_matches_the_passage_bits(width, height, loop_prob, seed):
    maze = generate_maze(width, height, loop_prob, seed)
    assert list(maze.table) == [(r, c) for r in range(height) for c in range(width)]
    for (r, c), (exits, destinations) in maze.table.items():
        bits = int(maze.passages[r, c])
        want = tuple((d, (r + DELTAS[d][0], c + DELTAS[d][1]))
                     for d in DIRECTIONS if bits >> d & 1)
        assert exits == want
        assert list(destinations.items()) == list(want)
        assert maze.open_dirs(r, c) == [d for d, _ in want]
    for twin in (copy.deepcopy(maze), pickle.loads(pickle.dumps(maze))):
        assert twin.table == maze.table
        assert np.array_equal(twin.passages, maze.passages) and twin.start == maze.start


def test_maze_rejects_passages_of_another_shape():
    with pytest.raises(ValueError, match=r"passages shape \(2, 1\) is not \(height, width\) \(1, 2\)"):
        Maze(width=2, height=1, passages=[[0], [0]], start=(0, 0))


@pytest.mark.parametrize("start", [(-1, 0), (0, 2), (1, 0), (0, -1)])
def test_maze_rejects_a_start_off_the_grid(start):
    with pytest.raises(ValueError, match=r"outside the 1x2 grid"):
        Maze(width=2, height=1, passages=[[1 << E, 1 << W]], start=start)


@pytest.mark.parametrize("d", DIRECTIONS)
def test_maze_rejects_a_border_cell_that_opens_off_the_grid(d):
    # On a 1x2 grid a cell opening N once let a step reach (-1, 0), whose
    # negative index read row 0's table, and the env counted 3 cells of 2.
    # Open d at each cell where d leads outside.
    maze = open_grid(2, 1)
    for c in range(2):
        if not (0 <= DELTAS[d][0] < 1 and 0 <= c + DELTAS[d][1] < 2):
            passages = maze.passages.copy()
            passages[0, c] |= 1 << d
            with pytest.raises(ValueError, match=f"a border cell opens {'NESW'[d]}, off the grid"):
                Maze(width=2, height=1, passages=passages, start=(0, 0))


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(2, 6),
    height=st.integers(1, 6),
    loop_prob=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_maze_rejects_a_one_way_passage(width, height, loop_prob, seed, data):
    # Maze(2, 1, [[1 << E, 0]], (0, 0)) once built: after step(E) the env had
    # no exits, reverse_action still answered W, and step(W) raised "blocked
    # direction W". Flipping one side between two cells of a generated maze
    # leaves exactly one passage open one way, and the error names its cell.
    maze = generate_maze(width, height, loop_prob, seed)
    sides = [(r, c, d) for r in range(height) for c in range(width) for d in DIRECTIONS
             if 0 <= r + DELTAS[d][0] < height and 0 <= c + DELTAS[d][1] < width]
    r, c, d = data.draw(st.sampled_from(sides))
    passages = maze.passages.copy()
    passages[r, c] ^= 1 << d
    cell, other = (r, c), (r + DELTAS[d][0], c + DELTAS[d][1])
    if not passages[r, c] >> d & 1:  # the flip closed (r, c): its neighbour is one-way
        cell, other, d = other, cell, OPPOSITE[d]
    with pytest.raises(ValueError, match=re.escape(
            f"cell {cell} opens {'NESW'[d]}, but its neighbour {other} "
            f"does not open {'NESW'[OPPOSITE[d]]}")):
        Maze(width=width, height=height, passages=passages, start=maze.start)


def test_passages_are_read_only_once_built():
    passages = np.zeros((1, 2), dtype=np.uint8)
    passages[0, 0] |= 1 << E
    passages[0, 1] |= 1 << W
    maze = Maze(width=2, height=1, passages=passages, start=(0, 0))
    with pytest.raises(ValueError, match="read-only"):
        maze.passages[0, 0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        maze.passages = np.zeros((1, 2), dtype=np.uint8)
    # The maze keeps its own copy: the builder's array stays writable and
    # writing it does not reach the maze.
    passages[0, 0] = 0
    assert maze.open_dirs(0, 0) == [E]


def test_deepcopy_of_a_mid_episode_env_steps_like_the_original():
    env = MazeEnv(generate_maze(5, 5, 0.3, seed=3), budget=40)
    env.reset()
    rng = np.random.default_rng(1)
    for _ in range(6):
        acts = [d for d, _ in env.outgoing()]
        env.step(acts[int(rng.integers(len(acts)))])
    twin = copy.deepcopy(env)
    assert not twin.maze.passages.flags.writeable
    for _ in range(20):
        acts = [d for d, _ in env.outgoing()]
        assert np.array_equal(twin.action_mask(), env.action_mask())
        assert twin.outgoing() == env.outgoing()
        a = acts[int(rng.integers(len(acts)))]
        assert twin.step(a) == env.step(a)
        mine, theirs = env.observe(), twin.observe()
        assert theirs.edges == mine.edges
        assert np.array_equal(theirs.coverage, mine.coverage)
        assert np.array_equal(theirs.node_features, mine.node_features)
    # The copy has its own state: stepping it leaves the original alone.
    position = env.state.position
    twin.step(twin.outgoing()[0][0])
    assert env.state.position == position and twin.state.position != position


def reference_observation(maze, walk):
    """From-scratch belief graph after walking `walk` from the start: node
    ids by discovery order (a cell's open neighbours are sighted in N, E, S,
    W order each time it is the current cell), and, for every visited cell,
    (u, v, d+1) per open side plus (v, u, opposite+1) while v is unvisited.
    Returns (edges, coverage, current node id, node ids)."""
    node_ids = {}

    def arrive(cell):
        node_ids.setdefault(cell, len(node_ids))
        for d in maze.open_dirs(*cell):
            node_ids.setdefault((cell[0] + DELTAS[d][0], cell[1] + DELTAS[d][1]),
                                len(node_ids))

    pos = maze.start
    visited = {pos}
    arrive(pos)
    for d in walk:
        pos = (pos[0] + DELTAS[d][0], pos[1] + DELTAS[d][1])
        visited.add(pos)
        arrive(pos)
    order = sorted(node_ids, key=node_ids.get)
    coverage = np.zeros(len(order))
    edges = []
    for cell in order:
        if cell not in visited:
            continue
        u = node_ids[cell]
        coverage[u] = 1.0
        for d in maze.open_dirs(*cell):
            other = (cell[0] + DELTAS[d][0], cell[1] + DELTAS[d][1])
            v = node_ids[other]
            edges.append((u, v, d + 1))
            if other not in visited:
                edges.append((v, u, OPPOSITE[d] + 1))
    return edges, coverage, node_ids[pos], node_ids


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 7),
    height=st.integers(1, 7),
    loop_prob=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    hide=st.booleans(),
    choices=st.lists(st.integers(0, 3), max_size=60),
)
def test_incremental_observe_matches_a_from_scratch_rebuild(width, height, loop_prob, seed, hide,
                                                             choices):
    env = MazeEnv(generate_maze(width, height, loop_prob, seed), budget=len(choices),
                  hide_destinations=hide)
    env.reset()
    walk = []
    obs = env.observe()
    for k in range(len(choices) + 1):
        edges, coverage, current, node_ids = reference_observation(env.maze, walk)
        # Edge order means nothing to the encoder: compare multisets, and a
        # belief graph holds at most one edge per (u, v).
        assert sorted(obs.edges) == sorted(edges)
        assert len({(u, v) for u, v, _ in obs.edges}) == len(obs.edges)
        assert np.array_equal(obs.coverage, coverage)
        assert env.state.belief.node_ids == node_ids
        assert current == env.state.belief.node_ids[env.current_node()]
        features = np.zeros((len(coverage), 1))
        features[current, 0] = 1.0
        assert np.array_equal(obs.node_features, features)
        pos = env.state.position
        exits = [(d, (pos[0] + DELTAS[d][0], pos[1] + DELTAS[d][1]))
                 for d in env.maze.open_dirs(*pos)]
        assert env.outgoing() == [(d, None if hide else cell) for d, cell in exits]
        if k == len(choices) or not exits:
            break
        d = exits[choices[k] % len(exits)][0]
        walk.append(d)
        env.step(d)
        obs = env.observe()


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 7),
    height=st.integers(1, 7),
    loop_prob=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    choices=st.lists(st.integers(0, 3), max_size=60),
)
def test_observing_after_unobserved_steps_matches_a_from_scratch_rebuild(width, height, loop_prob,
                                                                         seed, choices):
    # Edges are linked when observed; a twin observed after every step links
    # them one visit at a time and must hand out the same edge tuple.
    maze = generate_maze(width, height, loop_prob, seed)
    env, twin = MazeEnv(maze, budget=len(choices)), MazeEnv(maze, budget=len(choices))
    env.reset()
    twin.reset()
    walk = []
    for choice in choices:
        exits = maze.open_dirs(*env.state.position)
        if not exits:
            break
        walk.append(exits[choice % len(exits)])
        env.step(walk[-1])
        twin.step(walk[-1])
        twin.observe()
    obs = env.observe()
    edges, coverage, current, _ = reference_observation(maze, walk)
    assert sorted(obs.edges) == sorted(edges)
    assert obs.edges == twin.observe().edges
    assert np.array_equal(obs.coverage, coverage)
    assert current == env.state.belief.node_ids[env.current_node()]


def test_a_walker_episode_links_no_edge():
    # Walkers never observe, so the belief graph stays empty: no node, no
    # coverage bit and no edge.
    env = MazeEnv(generate_maze(MAZE_SIZE, MAZE_SIZE, MAZE_LOOP_PROB, 1), budget=36)
    history, _ = run_episode(env, RandomPolicy(), budget=env.budget, seed=0)
    assert len(history.records) == env.budget + 1 and len(env.state.visited) > 1
    assert env.state.belief == BeliefNodes()
