"""Procedurally generated 2D grid mazes with partial observability.

The agent sees the subgraph it has traversed plus 1-hop vision from the
current cell: adjacent open cells appear as frontier nodes (coverage bit 0)
whose own walls stay unknown until visited. Observations carry no coordinates;
node identity is discovery order, and edges are typed by compass direction so
the agent can tell which action leads along which edge.

A Maze is immutable once built: its passage array is read-only and its
table holds, for each cell, the open sides as exits and as a direction ->
destination map, in entries built once per process and shared by every maze
of the same grid shape. MazeEnv is the one way to reset and step a maze; its
step is one table lookup and returns the visited-cell count, and its walker
hooks speak in cells. Its observe, through the module-level observe that
perfbench traces as envs.observe, builds the belief graph only the learned
agent reads, from the cells visited since the last observation, so walkers,
which never observe, build none.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..graphnet import BELIEF_FEATURE_WIDTH, BeliefNodes, empty_observation
from . import grid_cell, integer_cells

N, E, S, W = 0, 1, 2, 3
DIRECTIONS = (N, E, S, W)
DIR_NAMES = "NESW"
DELTAS = ((-1, 0), (0, 1), (1, 0), (0, -1))
OPPOSITE = (S, W, N, E)
NUM_EDGE_TYPES = 4  # edge type = direction + 1

# The frozen maze distribution of training, held-out evaluation and the
# baseline protocols. The extra-opening probability was calibrated once so the
# uniform-random walker and the depth-first walker land on their reference
# mean coverages, then frozen here.
MAZE_SIZE = 6
MAZE_LOOP_PROB = 0.18


@functools.cache
def _grid_cells(height, width):
    """The cells of a height x width grid in row-major order, one tuple per
    cell shared by every maze of that shape as its table's keys."""
    return tuple(itertools.product(range(height), range(width)))


@functools.cache
def _cell_entry(height, width, cell, bits):
    """(exits, destinations) of `cell` under passage mask `bits`: exits the
    ((direction, neighbour), ...) of its open sides in N, E, S, W order,
    destinations the dict of the same pairs. Checked to stay on the grid;
    built once per process and shared by every maze that uses it."""
    exits = []
    for d in DIRECTIONS:
        if bits >> d & 1:
            other = (cell[0] + DELTAS[d][0], cell[1] + DELTAS[d][1])
            if not (0 <= other[0] < height and 0 <= other[1] < width):
                raise ValueError(f"a border cell opens {DIR_NAMES[d]}, off the grid")
            exits.append((d, other))
    exits = tuple(exits)
    return exits, dict(exits)


@dataclass(frozen=True)
class Maze:
    width: int
    height: int
    passages: np.ndarray  # (height, width) uint8, bit d set = open toward DELTAS[d]
    start: tuple  # (row, col), stored as two Python ints
    # cell -> (exits, destinations); read-only, as mazes share the entries (see _cell_entry).
    table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A read-only copy, so the table built from it cannot go stale.
        passages = np.array(integer_cells(self.passages, 0, 15, "passages"), dtype=np.uint8)
        if passages.shape != (self.height, self.width):
            raise ValueError(f"passages shape {passages.shape} is not (height, width) "
                             f"{(self.height, self.width)}")
        start = grid_cell(self.start, "start")
        if not (0 <= start[0] < self.height and 0 <= start[1] < self.width):
            raise ValueError(f"start {start} outside the {self.height}x{self.width} grid")
        passages.flags.writeable = False
        object.__setattr__(self, "passages", passages)
        object.__setattr__(self, "start", start)
        table = {cell: _cell_entry(self.height, self.width, cell, bits)
                 for cell, bits in zip(_grid_cells(self.height, self.width),
                                       passages.ravel().tolist())}
        for cell, (exits, _) in table.items():  # row-major, so the first one-way side is named
            for d, other in exits:
                if OPPOSITE[d] not in table[other][1]:
                    raise ValueError(f"cell {cell} opens {DIR_NAMES[d]}, but its neighbour "
                                     f"{other} does not open {DIR_NAMES[OPPOSITE[d]]}")
        object.__setattr__(self, "table", table)

    def __reduce__(self):
        # Copies and pickles go through the constructor, which re-freezes the
        # passages and rebuilds the table.
        return Maze, (self.width, self.height, self.passages, self.start)

    def open_dirs(self, r, c):
        return list(self.table[r, c][1])

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
class MazeState:
    """Exploration state: the agent's cell and the set of visited cells.
    unseen logs (cell, exits) for each first visit, in visit order, until
    observe takes it into belief, the learned agent's view of the maze."""

    position: tuple
    visited: set = field(default_factory=set)
    unseen: list = field(default_factory=list)
    belief: BeliefNodes = field(default_factory=BeliefNodes)


def observe(state):
    """Belief graph: visited + frontier nodes, and both directions of every
    passage incident to a visited cell, typed by compass direction. The
    features are [is-current | covered] per node.

    The cells visited since the last observation go in first, in visit
    order: each is admitted and covered, then each open side d admits its
    neighbour (N, E, S, W order) and links both ways, typed d+1 outward and
    opposite+1 back, so ids and edges do not depend on when the env is observed."""
    belief = state.belief
    for cell, exits in state.unseen:
        belief.admit(cell)
        belief.mark_covered(cell)
        for d, other in exits:
            belief.admit(other)
            belief.link(cell, other, d + 1, OPPOSITE[d] + 1)
    state.unseen.clear()
    return belief.observation(state.position)


# ------------------------------------------------------------ env interface


class MazeEnv:
    """Episode adapter over one fixed Maze, implementing the env contract of
    graphexplore.episode, walker hooks included. Actions are directions N, E,
    S, W (0..3); a step returns the count of visited cells. The initial
    observation is the empty graph; the start cell's coverage is earned by
    the first step's reward. Rewards normalize by the cell count."""

    num_actions = 4

    def __init__(self, maze, budget, hide_destinations=False):
        self.maze = maze
        self.budget = budget
        # hide_destinations withholds neighbour cells from outgoing(), so walker
        # baselines must probe doors to learn where they lead. The benchmark
        # protocol evaluates the depth-first walker this way.
        self.hide_destinations = hide_destinations
        self.reward_normalizer = float(maze.cells())
        self.state = None

    def reset(self):
        start = self.maze.start
        self.state = MazeState(position=start)
        self._visit(start)
        return empty_observation(BELIEF_FEATURE_WIDTH)

    def _visit(self, cell):
        """First visit of `cell`, logged for the next observe."""
        self.state.visited.add(cell)
        self.state.unseen.append((cell, self.maze.table[cell][0]))

    def observe(self):
        return observe(self.state)

    def step(self, direction):
        """Move one cell along an open passage, visiting the destination if
        it is new: one lookup in the maze's table, whose destinations hold
        exactly the open directions."""
        state = self.state
        try:
            dest = self.maze.table[state.position][1][direction]
        except (KeyError, TypeError):
            if direction not in DIRECTIONS:
                raise ValueError(f"unknown direction {direction!r}") from None
            raise ValueError(f"blocked direction {DIR_NAMES[direction]} "
                             f"from {state.position}") from None
        state.position = dest
        if dest not in state.visited:
            self._visit(dest)
        return len(state.visited)

    def action_mask(self):
        mask = np.zeros(4, dtype=bool)
        mask[self.maze.open_dirs(*self.state.position)] = True
        return mask

    def fully_explored(self):
        return len(self.state.visited) == self.maze.cells()

    # Walker hooks: positions are cells.

    def current_node(self):
        return self.state.position

    def outgoing(self):
        exits = self.maze.table[self.state.position][0]
        if self.hide_destinations:
            return [(d, None) for d, _ in exits]
        return list(exits)

    def reverse_action(self, direction):
        return OPPOSITE[direction]


def heldout_mazes(count=100):
    """The fixed evaluation set of trained agents: seeds 7001..7000+count, as
    a tuple."""
    return tuple(generate_maze(MAZE_SIZE, MAZE_SIZE, MAZE_LOOP_PROB, seed)
                 for seed in range(7001, 7001 + count))
