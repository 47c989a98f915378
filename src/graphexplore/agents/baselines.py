"""Non-learned reference policies: uniform random and randomized depth-first
search.

Both walk an environment through the walker hooks of the env contract
(graphexplore.episode), comparing its position keys only for equality, and
draw their actions from outgoing(). Their rng is run_episode's
graphexplore.episode.Draws: each choice among k actions is one below(k).
reverse_action is only queried right after the move it undoes
(position-aware environments answer for their latest transition); the
walker stores the answer as the frame's return ticket.
"""

from __future__ import annotations

from dataclasses import dataclass


def random_act(actions, rng):
    """Uniform choice from a sequence of valid actions, by rng.below (a
    graphexplore.episode.Draws)."""
    if not actions:
        raise ValueError("no valid actions to choose from")
    return actions[rng.below(len(actions))]


class RandomPolicy:
    """run_episode adapter: random_act over the actions of env.outgoing()."""

    def __call__(self, env, rng):
        return random_act([a for a, _ in env.outgoing()], rng)


# ------------------------------------------------------------------ RandDFS


@dataclass
class _Frame:
    node: object  # the position key of current_node()
    untried: list  # (action, dest-key-or-None), consumed in random order
    entry_action: object = None  # action that led here; None at the root
    return_action: object = None  # undoing action, resolved on arrival


class RandDfsPolicy:
    """Stateful DFS walker for run_episode. Tracks arrivals to keep the stack
    aligned with the agent's position; probing an unknown edge that lands on a
    node already on the stack is undone by an immediate reverse move. Arriving
    anywhere off the stack (fresh or previously popped) pushes a new frame.

    Avoidance is by stack membership only: a node popped off the stack is
    fair game again, so the walker can wander back into finished territory and
    burn budget there. That blindness is the point of this baseline."""

    def __init__(self):
        self.frames = []  # the DFS stack, root first
        self.on_stack = set()  # the nodes of frames
        self.last_action = None
        self.bouncing = False

    def __call__(self, env, rng):
        cur = env.current_node()
        if not self.frames:
            # First call, or a restart after the stack ran dry.
            self._push(env, cur, self.last_action)
        elif self.bouncing:
            self.bouncing = False  # back on the stack top after an undo
        elif cur not in self.on_stack:
            self._push(env, cur, self.last_action)
        elif self.frames[-1].node != cur:
            parent = self.frames[-2].node if len(self.frames) >= 2 else None
            if cur == parent and not self.frames[-1].untried:
                # The probe that emptied the frame happened to walk back to the
                # parent; undoing it just to backtrack again would waste two
                # steps, so accept the arrival as the backtrack.
                self._pop()
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
        action = self._advance(cur, rng)
        if action is None:
            # Root exhausted. Take a random step; the next call restarts the
            # stack from wherever that lands.
            action = random_act([a for a, _ in env.outgoing()], rng)
        self.last_action = action
        return action

    def _advance(self, cur, rng):
        """One depth-first move from the stack top at node cur: follow a random
        untried edge that does not lead back onto the stack; with none
        available, backtrack by undoing the entry action. Edges pointing into
        the stack stay untried (their targets may pop later). Returns None once
        the stack has emptied."""
        top = self.frames[-1]
        if top.node != cur:
            raise ValueError(f"stack top does not match current node {cur}")
        candidates = [
            i for i, (_, dest) in enumerate(top.untried) if dest is None or dest not in self.on_stack
        ]
        if candidates:
            action, _ = top.untried.pop(candidates[rng.below(len(candidates))])
            return action
        if top.entry_action is None:  # root exhausted
            self._pop()
            return None
        if top.return_action is None:
            raise ValueError(f"cannot backtrack: action {top.entry_action!r} is irreversible")
        self._pop()
        return top.return_action

    def _push(self, env, node, entry_action):
        ticket = env.reverse_action(entry_action) if entry_action is not None else None
        self.on_stack.add(node)
        self.frames.append(
            _Frame(
                node=node,
                untried=list(env.outgoing()),
                entry_action=entry_action,
                return_action=ticket,
            )
        )

    def _pop(self):
        self.on_stack.discard(self.frames.pop().node)
