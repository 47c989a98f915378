"""Procedurally generated 2D grid mazes with partial observability.

The agent sees the subgraph it has traversed plus 1-hop vision from the
current cell: adjacent open cells appear as frontier nodes (coverage bit 0)
whose own walls stay unknown until visited. Observations carry no coordinates;
node identity is discovery order, and edges are typed by compass direction so
the agent can tell which action leads along which edge.

A Maze is immutable once built: its passage array is read-only and each
cell's open directions are tabled at construction. MazeEnv is the one way to
reset and step a maze; its step returns the visited-cell count and its
observe, through the module-level observe that perfbench traces as
envs.observe, builds the observations only the learned agent reads. A step
admits and covers cells but links no edge: observe links the cells visited
since the last observation, so walkers, which never observe, build no edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphnet import BELIEF_FEATURE_WIDTH, BeliefNodes, empty_observation

N, E, S, W = 0, 1, 2, 3
DIRECTIONS = (N, E, S, W)
DIR_NAMES = "NESW"
DELTAS = ((-1, 0), (0, 1), (1, 0), (0, -1))
OPPOSITE = (S, W, N, E)
NUM_EDGE_TYPES = 4  # edge type = direction + 1
# Open directions of each possible uint8 passage mask.
_DIRS_OF_MASK = tuple(tuple(d for d in DIRECTIONS if bits >> d & 1) for bits in range(256))

# The frozen maze distribution of training, held-out evaluation and the
# baseline protocols. The extra-opening probability was calibrated once so the
# uniform-random walker and the depth-first walker land on their reference
# mean coverages, then frozen here.
MAZE_SIZE = 6
MAZE_LOOP_PROB = 0.18


@dataclass(frozen=True)
class Maze:
    width: int
    height: int
    passages: np.ndarray  # (height, width) uint8, bit d set = open toward DELTAS[d]
    start: tuple

    def __post_init__(self):
        # A read-only copy, so the direction table built from it cannot go stale.
        passages = np.array(self.passages, dtype=np.uint8)
        if passages.shape != (self.height, self.width):
            raise ValueError(f"passages shape {passages.shape} is not (height, width) "
                             f"{(self.height, self.width)}")
        if not (0 <= self.start[0] < self.height and 0 <= self.start[1] < self.width):
            raise ValueError(f"start {self.start} outside the {self.height}x{self.width} grid")
        for side, d in ((passages[0], N), (passages[:, -1], E), (passages[-1], S),
                        (passages[:, 0], W)):
            if (side >> d & 1).any():
                raise ValueError(f"a border cell opens {DIR_NAMES[d]}, off the grid")
        passages.flags.writeable = False
        object.__setattr__(self, "passages", passages)
        # _dirs[r][c]: the open directions of (r, c), in N, E, S, W order.
        object.__setattr__(self, "_dirs", [[_DIRS_OF_MASK[bits] for bits in row]
                                           for row in passages.tolist()])

    def __reduce__(self):
        # Copies and pickles go through the constructor, which re-freezes the
        # passages and rebuilds the direction table.
        return Maze, (self.width, self.height, self.passages, self.start)

    def is_open(self, r, c, d):
        return d in self._dirs[r][c]

    def open_dirs(self, r, c):
        return list(self._dirs[r][c])

    def exits(self, r, c):
        """[(direction, neighbour cell), ...] of the open sides of (r, c)."""
        return [(d, (r + DELTAS[d][0], c + DELTAS[d][1])) for d in self._dirs[r][c]]

    def cells(self):
        return self.width * self.height


def generate_maze(width, height, loop_prob, seed):
    """Randomized-DFS spanning tree over the cell grid, then each remaining
    interior wall is removed independently with probability loop_prob.

    The carving runs on Python lists, and the wall draws are taken as one
    rng.random(m) after the DFS: the walls still closed then are exactly the
    ones a wall-by-wall pass would test, in the same row-major order."""
    if width < 1 or height < 1:
        raise ValueError(f"maze dimensions must be >= 1, got {width}x{height}")
    if not (0.0 <= loop_prob <= 1.0):
        raise ValueError(f"loop_prob {loop_prob} outside [0, 1]")
    rng = np.random.default_rng(seed)
    passages = [[0] * width for _ in range(height)]
    start = (int(rng.integers(height)), int(rng.integers(width)))
    visited = [[False] * width for _ in range(height)]
    visited[start[0]][start[1]] = True
    stack = [start]
    while stack:
        r, c = stack[-1]
        options = []
        for d in DIRECTIONS:
            nr, nc = r + DELTAS[d][0], c + DELTAS[d][1]
            if 0 <= nr < height and 0 <= nc < width and not visited[nr][nc]:
                options.append((d, nr, nc))
        if not options:
            stack.pop()
            continue
        d, nr, nc = options[int(rng.integers(len(options)))]
        passages[r][c] |= 1 << d
        passages[nr][nc] |= 1 << OPPOSITE[d]
        visited[nr][nc] = True
        stack.append((nr, nc))
    if loop_prob > 0.0:
        # Each interior wall once, as its cell's E or S side.
        walls = [(r, c, d) for r in range(height) for c in range(width) for d in (E, S)
                 if r + DELTAS[d][0] < height and c + DELTAS[d][1] < width
                 and not passages[r][c] >> d & 1]
        for (r, c, d), u in zip(walls, rng.random(len(walls)).tolist()):
            if u < loop_prob:
                passages[r][c] |= 1 << d
                passages[r + DELTAS[d][0]][c + DELTAS[d][1]] |= 1 << OPPOSITE[d]
    return Maze(width=width, height=height, passages=passages, start=start)


@dataclass
class MazeState(BeliefNodes):
    """Exploration state. Every seen cell is admitted as a node in discovery
    order (start=0, then sightings in N,E,S,W order); visited cells are covered.
    unlinked holds (cell, exits) for each cell visited since the last
    observation, in visit order."""

    position: tuple
    unlinked: list = field(default_factory=list)


def observe(state):
    """Belief graph: visited + frontier nodes, and both directions of every
    passage incident to a visited cell, typed by compass direction. The one
    feature column marks the current node; the coverage bit rides in the
    observation's coverage mask.

    The cells visited since the last observation are linked first, in visit
    order: each open side d both ways, typed d+1 outward and opposite+1 back.
    That is the order in which linking at each visit would fill links, so the
    edge tuple is the same."""
    for cell, exits in state.unlinked:
        for d, other in exits:
            state.link(cell, other, d + 1, OPPOSITE[d] + 1)
    state.unlinked.clear()
    return state.observation(state.position)


# ------------------------------------------------------------ env interface


class MazeEnv:
    """Episode adapter over one fixed Maze, implementing the env contract of
    graphexplore.episode, walker hooks included. Actions are directions N, E,
    S, W (0..3); a step returns the count of visited cells. The initial
    observation is the empty graph; the start cell's coverage is earned by
    the first step's reward. Rewards normalize by the cell count. Belief
    edges are linked when observed, not when stepped."""

    num_actions = 4

    def __init__(self, maze, budget, hide_destinations=False):
        self.maze = maze
        self.budget = budget
        # hide_destinations withholds neighbor ids from outgoing(), so walker
        # baselines must probe doors to learn where they lead. The benchmark
        # protocol evaluates the depth-first walker this way.
        self.hide_destinations = hide_destinations
        self.reward_normalizer = float(maze.cells())
        self.state = None

    def reset(self, rng):
        start = self.maze.start
        self.state = MazeState(position=start)
        self.state.admit(start)
        self._visit(start)
        return empty_observation(BELIEF_FEATURE_WIDTH)

    def _visit(self, cell):
        """First visit of `cell`: cover it and admit its neighbours. Its
        edges wait in state.unlinked until the next observe."""
        state = self.state
        state.mark_covered(cell)
        exits = self.maze.exits(*cell)
        for _, other in exits:
            state.admit(other)
        state.unlinked.append((cell, exits))

    def observe(self):
        return observe(self.state)

    def step(self, direction):
        """Move one cell along an open passage, visiting the destination if
        it is new."""
        r, c = self.state.position
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if not self.maze.is_open(r, c, direction):
            raise ValueError(f"blocked direction {DIR_NAMES[direction]} from {(r, c)}")
        dest = (r + DELTAS[direction][0], c + DELTAS[direction][1])
        self.state.position = dest
        if self.state.node_ids[dest] not in self.state.covered:
            self._visit(dest)
        return len(self.state.covered)

    def action_mask(self):
        mask = np.zeros(4, dtype=bool)
        mask[self.maze.open_dirs(*self.state.position)] = True
        return mask

    def fully_explored(self):
        return len(self.state.covered) == self.maze.cells()

    # Walker hooks.

    def current_node(self):
        return self.state.node_ids[self.state.position]

    def outgoing(self):
        exits = self.maze.exits(*self.state.position)
        if self.hide_destinations:
            return [(d, None) for d, _ in exits]
        return [(d, self.state.node_ids[other]) for d, other in exits]

    def reverse_action(self, direction):
        return OPPOSITE[direction]


def heldout_mazes(count=100):
    """The fixed evaluation set of trained agents: seeds 7001..7000+count, as
    a tuple."""
    return tuple(generate_maze(MAZE_SIZE, MAZE_SIZE, MAZE_LOOP_PROB, seed)
                 for seed in range(7001, 7001 + count))
