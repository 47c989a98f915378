"""Screen-transition exploration over synthetic apps sampled as random graphs.

A TransitionGraph is a deterministic screen/slot/target map: screens are
0..m-1, and action slot i of a screen leads to one fixed screen. Episodes
start knowing nothing: the observed subgraph holds only visited screens and
the transitions actually taken, so the destination of an untried slot is
unknown until the agent commits to it. Coverage is visited screens over all
screens; the evaluation protocol's budget is benchmarks.APP_BUDGET steps.
AppEnv is the one way to reset and step an app; an action is a slot index,
its step returns the visited-screen count and its walker hooks speak in
screens. Its observe, through the module-level observe that perfbench traces
as envs.observe, builds the belief graph only the learned agent reads, from
the transitions first taken since the last one.

reverse_action models a tester's back button: immediately after a transition
the environment can name the slot at the new screen that returns to the
previous one (or None when the graph has no such edge, as in a one-way
flow).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphnet import BELIEF_FEATURE_WIDTH, BeliefNodes, empty_observation

NUM_EDGE_TYPES = 2  # 1 = experienced transition, 2 = synthetic reverse orientation


@dataclass(frozen=True)
class TransitionGraph:
    """Deterministic screen-transition map of screens 0..m-1, where m is
    len(slots): slots[s][i] is the screen that action slot i of screen s
    leads to. Tuples of ints all through, so a graph is immutable as built;
    anything else, a target or start that is no screen included, raises
    ValueError naming where it sits. generate_er_app keeps only the start
    screen's component, so every screen of its graphs is reachable."""

    slots: tuple  # of tuples of target screens
    start: int

    def __post_init__(self):
        if type(self.slots) is not tuple or any(type(row) is not tuple for row in self.slots):
            raise ValueError(f"slots must be a tuple of tuples, got {self.slots!r}")
        m = len(self.slots)
        if type(self.start) is not int or not 0 <= self.start < m:
            raise ValueError(f"start {self.start!r} is not a screen in 0..{m - 1}")
        for s, row in enumerate(self.slots):
            for i, dst in enumerate(row):
                if type(dst) is not int or not 0 <= dst < m:
                    raise ValueError(f"screen {s} slot {i}: target {dst!r} is not a screen "
                                     f"in 0..{m - 1}")

    @property
    def screens(self):
        return range(len(self.slots))

    def max_out_degree(self):
        return max(map(len, self.slots), default=0)


def er_adjacency(n, p, rng):
    """Erdos-Renyi adjacency list (list of neighbor lists): each of the
    n(n-1)/2 undirected edges is drawn independently with probability p, in
    one rng.random call over the pairs i < j in row-major order."""
    adj = [[] for _ in range(n)]
    rows, cols = np.triu_indices(n, 1)
    hits = rng.random(len(rows)) < p
    for i, j in zip(rows[hits].tolist(), cols[hits].tolist()):
        adj[i].append(j)
        adj[j].append(i)
    return adj


def generate_er_app(n, p, seed):
    """Synthetic app: undirected edges drawn independently with probability p
    over n screens, restricted to the connected component of a uniformly
    chosen start screen. The component's screens are renumbered 0..m-1 in
    ascending order, slot k of a screen leads to its k-th smallest
    neighbor, and both directions of an edge are slots."""
    if n < 1:
        raise ValueError(f"need at least one screen, got n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    adj = er_adjacency(n, p, rng)
    start = int(rng.integers(n))
    component = {start}
    queue = [start]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v not in component:
                component.add(v)
                queue.append(v)
    order = sorted(component)
    screen = {u: j for j, u in enumerate(order)}
    slots = tuple(tuple(screen[v] for v in sorted(adj[u])) for u in order)
    return TransitionGraph(slots=slots, start=screen[start])


# ------------------------------------------------------------------ episodes


@dataclass
class AppState:
    """Exploration state. unseen logs (src, dst) per first take of a transition,
    after (None, start), until observe takes it into belief."""

    current: int
    previous: int = None  # the screen the latest step left
    visited: set = field(default_factory=set)
    taken: set = field(default_factory=set)  # (screen, slot) pairs taken
    unseen: list = field(default_factory=list)
    belief: BeliefNodes = field(default_factory=BeliefNodes)


def observe(state):
    """Belief graph: visited screens plus experienced transitions. Every node
    carries the coverage bit (visited implies covered here); a synthetic
    reverse edge (type 2) backs any one-way experienced transition so messages
    flow both directions. The arrivals logged since the last observation go in
    first, in order: a new screen is admitted and covered, and src -> dst linked."""
    belief = state.belief
    for src, dst in state.unseen:
        if dst not in belief.node_ids:
            belief.admit(dst)
            belief.mark_covered(dst)
        if src is not None:
            belief.link(src, dst, 1, 2)
    state.unseen.clear()
    return belief.observation(state.current)


class AppEnv:
    """Episode adapter over one fixed TransitionGraph, implementing the env
    contract of graphexplore.episode, walker hooks included; a step returns
    the count of visited screens. The initial observation is the empty
    graph; the start screen's coverage is earned by the first step's reward.
    Rewards normalize by the screen count.

    num_actions fixes the policy-facing action width (default and minimum:
    the graph's max out-degree): action i is slot i of the current screen,
    with the mask covering i >= its out-degree."""

    def __init__(self, graph, budget, num_actions=None):
        if num_actions is None:
            num_actions = graph.max_out_degree()
        if graph.max_out_degree() > num_actions:
            raise ValueError(
                f"graph max out-degree {graph.max_out_degree()} exceeds "
                f"action width {num_actions}"
            )
        self.graph = graph
        self.budget = budget
        self.num_actions = num_actions
        self.reward_normalizer = float(len(graph.slots))
        self.state = None

    def reset(self):
        start = self.graph.start
        self.state = AppState(current=start, visited={start}, unseen=[(None, start)])
        return empty_observation(BELIEF_FEATURE_WIDTH)

    def observe(self):
        return observe(self.state)

    def step(self, action_index):
        """Take slot action_index of the current screen, visiting the target
        screen if it is new, as only a first take can be."""
        state = self.state
        row = self.graph.slots[state.current]
        if not 0 <= action_index < len(row):
            raise ValueError(
                f"invalid action {action_index} at screen {state.current} "
                f"({len(row)} available)"
            )
        dst = row[action_index]
        if (state.current, action_index) not in state.taken:
            state.taken.add((state.current, action_index))
            state.unseen.append((state.current, dst))
            state.visited.add(dst)
        state.previous = state.current
        state.current = dst
        return len(state.visited)

    def action_mask(self):
        mask = np.zeros(self.num_actions, dtype=bool)
        mask[: len(self.graph.slots[self.state.current])] = True
        return mask

    def fully_explored(self):
        # A dead-end screen (the end of a one-way flow) also ends the
        # episode: no action can change anything further.
        return (len(self.state.visited) == len(self.graph.slots)
                or not self.graph.slots[self.state.current])

    # Walker hooks: positions are screens.

    def current_node(self):
        return self.state.current

    def outgoing(self):
        current, taken = self.state.current, self.state.taken
        return [(i, dst if (current, i) in taken else None)
                for i, dst in enumerate(self.graph.slots[current])]

    def reverse_action(self, action_index):
        """The first slot of the current screen that returns to the screen
        the latest step came from; None when no slot leads back."""
        row = self.graph.slots[self.state.current]
        return row.index(self.state.previous) if self.state.previous in row else None


def er_app_for_seed(seed):
    """One dataset draw: app size uniform in [15, 20], then an independent
    generator seed. Keyed by a single integer so evaluation sets are nameable
    by seed ranges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(15, 21))
    return generate_er_app(n, 0.1, seed=int(rng.integers(2 ** 62)))

