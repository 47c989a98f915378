"""Screen-transition exploration over synthetic apps sampled as random graphs.

A TransitionGraph is a deterministic screen/action/target map. Episodes start
knowing nothing: the observed subgraph holds only visited screens and the
transitions actually taken, so the destination of an untried action is unknown
until the agent commits to it. Coverage is visited screens over all screens;
the evaluation protocol's budget is benchmarks.APP_BUDGET steps. AppEnv is the
one way to reset and step an app; its step returns the visited-screen count
and its walker hooks speak in screens. Its observe, through the module-level
observe that perfbench traces as envs.observe, builds the belief graph only
the learned agent reads, from the transitions first taken since the last one.

reverse_action models a tester's back button: immediately after a transition
the environment can name the action at the new screen that returns to the
previous one (or None when the graph has no such edge, as in a one-way
flow).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ..graphnet import BELIEF_FEATURE_WIDTH, BeliefNodes, empty_observation

NUM_EDGE_TYPES = 2  # 1 = experienced transition, 2 = synthetic reverse orientation


@dataclass(frozen=True)
class TransitionGraph:
    """Deterministic screen-transition map; immutable after construction.

    Screen ids and action keys are strings. At most one target per
    (screen, action); every screen is reachable from start (generate_er_app
    keeps only the start screen's component). transitions is a read-only
    view of a private copy, so the outgoing table built from it cannot go
    stale.
    """

    screens: tuple
    transitions: Mapping  # (src, action) -> dst
    start: str

    def __post_init__(self):
        transitions = MappingProxyType(dict(self.transitions))
        object.__setattr__(self, "transitions", transitions)
        by_screen = {s: [] for s in self.screens}
        for (src, action), dst in transitions.items():
            by_screen[src].append((action, dst))
        object.__setattr__(self, "_outgoing",
                           {s: tuple(sorted(pairs)) for s, pairs in by_screen.items()})

    def __reduce__(self):
        # A mappingproxy neither pickles nor deep-copies: copies and pickles
        # go through the constructor with a plain dict.
        return TransitionGraph, (self.screens, dict(self.transitions), self.start)

    def outgoing(self, screen):
        """Outgoing (action, target) pairs sorted by action key."""
        return self._outgoing[screen]

    def out_degree(self, screen):
        return len(self._outgoing[screen])

    def max_out_degree(self):
        return max((len(p) for p in self._outgoing.values()), default=0)


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
    chosen start screen. Action k at a screen leads to its k-th smallest
    neighbor, and both directions of an edge are actions."""
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
    transitions = {}
    for u in component:
        for k, v in enumerate(sorted(adj[u])):
            transitions[(str(u), str(k))] = str(v)
    screens = tuple(sorted(str(u) for u in component))
    return TransitionGraph(screens=screens, transitions=transitions, start=str(start))


# ------------------------------------------------------------------ episodes


@dataclass
class AppState:
    """Exploration state. unseen logs (src, dst) per first take of a transition,
    after (None, start), until observe takes it into belief."""

    current: str
    previous: str = None  # the screen the latest step left
    visited: set = field(default_factory=set)
    taken: dict = field(default_factory=dict)  # (src, action) -> dst, first-take order
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
    the graph's max out-degree): action i means the i-th entry of the current
    screen's sorted outgoing list, with the mask covering i >= out-degree."""

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
        self.reward_normalizer = float(len(graph.screens))
        self.state = None

    def reset(self):
        start = self.graph.start
        self.state = AppState(current=start, visited={start}, unseen=[(None, start)])
        return empty_observation(BELIEF_FEATURE_WIDTH)

    def observe(self):
        return observe(self.state)

    def step(self, action_index):
        """Take the action_index-th outgoing action of the current screen,
        visiting the target screen if it is new, as only a first take can be."""
        state = self.state
        out = self.graph.outgoing(state.current)
        if not 0 <= action_index < len(out):
            raise ValueError(
                f"invalid action {action_index} at screen {state.current!r} "
                f"({len(out)} available)"
            )
        action, dst = out[action_index]
        if (state.current, action) not in state.taken:
            state.taken[state.current, action] = dst
            state.unseen.append((state.current, dst))
            state.visited.add(dst)
        state.previous = state.current
        state.current = dst
        return len(state.visited)

    def action_mask(self):
        mask = np.zeros(self.num_actions, dtype=bool)
        mask[: self.graph.out_degree(self.state.current)] = True
        return mask

    def fully_explored(self):
        # A dead-end screen (the end of a one-way flow) also ends the
        # episode: no action can change anything further.
        return len(self.state.visited) == len(self.graph.screens) or (
            self.graph.out_degree(self.state.current) == 0
        )

    # Walker hooks: positions are screens.

    def current_node(self):
        return self.state.current

    def outgoing(self):
        current, taken = self.state.current, self.state.taken
        return [(i, dst if (current, action) in taken else None)
                for i, (action, dst) in enumerate(self.graph.outgoing(current))]

    def reverse_action(self, action_index):
        """Index of the action at the current screen that returns to the
        screen the latest step came from; None when no edge leads back."""
        if self.state.previous is None:
            return None
        for i, (_, dst) in enumerate(self.graph.outgoing(self.state.current)):
            if dst == self.state.previous:
                return i
        return None


def er_app_for_seed(seed):
    """One dataset draw: app size uniform in [15, 20], then an independent
    generator seed. Keyed by a single integer so evaluation sets are nameable
    by seed ranges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(15, 21))
    return generate_er_app(n, 0.1, seed=int(rng.integers(2 ** 62)))

