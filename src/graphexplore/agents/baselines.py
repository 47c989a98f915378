"""Non-learned reference policies: uniform random and randomized depth-first
search.

Both walk an environment through the walker hooks of the env contract
(graphexplore.episode) and draw their actions from outgoing(). reverse_action
is only queried right after the move it undoes (position-aware environments
answer for their latest transition); the walker stores the answer as the
frame's return ticket for when it backtracks later.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def random_act(actions, rng):
    """Uniform choice from a sequence of valid actions."""
    if not actions:
        raise ValueError("no valid actions to choose from")
    return actions[int(rng.integers(len(actions)))]


class RandomPolicy:
    """run_episode adapter: random_act over the actions of env.outgoing()."""

    def __call__(self, history, env, rng):
        return random_act([a for a, _ in env.outgoing()], rng)


# ------------------------------------------------------------------ RandDFS


@dataclass
class _Frame:
    node: int
    untried: list  # (action, dest-or-None), consumed in random order
    entry_action: object = None  # action that led here; None at the root
    return_action: object = None  # undoing action, resolved on arrival


@dataclass
class DfsStack:
    """Avoidance is by stack membership only: a node popped off the stack is
    fair game again, so the walker can wander back into finished territory and
    burn budget there. That blindness is the point of this baseline."""

    frames: list = field(default_factory=list)
    on_stack: set = field(default_factory=set)

    def top(self):
        return self.frames[-1] if self.frames else None

    def pop(self):
        frame = self.frames.pop()
        self.on_stack.discard(frame.node)
        return frame


def randdfs_act(stack, env, rng):
    """One depth-first move: follow a random untried edge out of the current
    node that does not lead back onto the stack; with none available,
    backtrack by undoing the entry action. Edges pointing into the stack stay
    untried (their targets may pop later). Returns None once the stack has
    emptied."""
    cur = env.current_node()
    top = stack.top()
    if top is None or top.node != cur:
        raise ValueError(f"stack top does not match current node {cur}")
    untried = top.untried
    candidates = [
        i for i, (_, dest) in enumerate(untried) if dest is None or dest not in stack.on_stack
    ]
    if candidates:
        action, _ = untried.pop(candidates[int(rng.integers(len(candidates)))])
        return action
    if top.entry_action is None:  # root exhausted
        stack.pop()
        return None
    if top.return_action is None:
        raise ValueError(f"cannot backtrack: action {top.entry_action!r} is irreversible")
    stack.pop()
    return top.return_action


class RandDfsPolicy:
    """Stateful DFS walker for run_episode. Tracks arrivals to keep the stack
    aligned with the agent's position; probing an unknown edge that lands on a
    node already on the stack is undone by an immediate reverse move. Arriving
    anywhere off the stack (fresh or previously popped) pushes a new frame."""

    def __init__(self):
        self.stack = DfsStack()
        self.last_action = None
        self.bouncing = False

    def __call__(self, history, env, rng):
        cur = env.current_node()
        top = self.stack.top()
        if top is None:
            # First call, or a restart after the stack ran dry.
            self._push(env, cur, self.last_action)
        elif self.bouncing:
            self.bouncing = False  # back on the stack top after an undo
        elif cur not in self.stack.on_stack:
            self._push(env, cur, self.last_action)
        elif top.node != cur:
            parent = self.stack.frames[-2].node if len(self.stack.frames) >= 2 else None
            if cur == parent and not top.untried:
                # The probe that emptied the frame happened to walk back to the
                # parent; undoing it just to backtrack again would waste two
                # steps, so accept the arrival as the backtrack.
                self.stack.pop()
            else:
                # Unknown edge landed somewhere on the stack: undo it.
                back = env.reverse_action(self.last_action)
                if back is None:
                    raise ValueError(
                        f"cannot return from node {cur}: action {self.last_action!r} is irreversible"
                    )
                self.bouncing = True
                self.last_action = back
                return back
        action = randdfs_act(self.stack, env, rng)
        if action is None:
            # Root exhausted. Take a random step; the next call restarts the
            # stack from wherever that lands.
            action = random_act([a for a, _ in env.outgoing()], rng)
        self.last_action = action
        return action

    def _push(self, env, node, entry_action):
        ticket = env.reverse_action(entry_action) if entry_action is not None else None
        self.stack.on_stack.add(node)
        self.stack.frames.append(
            _Frame(
                node=node,
                untried=list(env.outgoing()),
                entry_action=entry_action,
                return_action=ticket,
            )
        )
