"""Learned policy heads on top of the history encoding F(h_t).

Two action modes: a masked categorical over a fixed action set, and an
autoregressive grid decoder (size prefix, then row-major cell tokens) for
grid-world inputs. Both heads expose the same pair of entry points: act() for
choosing one action per row of a (K, w) batch during lockstep rollouts, which
also returns the taken actions' log-probabilities and the entropies as
tensors (on the active tape, if any), and score() for re-evaluating given
actions.

Masking uses a -1e30 logit offset: large enough that exp() underflows to an
exact 0 probability, small enough that log-space arithmetic stays finite, so
entropy terms contribute exactly 0 instead of NaN.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..episode import TrajectoryBatch, advance_episode, begin_episode
from ..tensor import (
    Embedding,
    Linear,
    LSTMCell,
    MLP,
    Tensor,
    concat,
    embed_lookup,
    entropy,
    load_params,
    log_softmax,
    no_grad,
    save_params,
    reshape,
    slice_,
    tanh,
)

MASK_OFFSET = -1e30


def _pick(t, i):
    """Scalar Tensor t[i] from a 1-D tensor."""
    return reshape(slice_(t, i, i + 1), ())


def masked_log_probs(logits, mask):
    """Log-probabilities over the last axis of (A,) or (D, A) logits, with
    invalid entries pinned near MASK_OFFSET. Returns (log_probs, probs); probs
    are exp(log_probs), exactly 0 on masked-out entries, and carry no
    gradient: they only pick actions (entropy() differentiates through
    log_probs)."""
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[-1] != logits.data.shape[-1]:
            raise ValueError(f"action mask width {mask.shape[-1]} does not match "
                             f"the head width {logits.data.shape[-1]}")
        if not mask.any(axis=-1).all():
            raise ValueError("all actions are masked")
        logits = logits + np.where(mask, 0.0, MASK_OFFSET)  # in the logits' dtype
    log_probs = log_softmax(logits)
    return log_probs, Tensor(np.exp(log_probs.data))


def stack_masks(masks):
    """(K, A) boolean rows of per-row action masks, or None when no row has
    one; a row without a mask may take any action."""
    width = next((len(m) for m in masks if m is not None), None)
    if width is None:
        return None
    return np.stack([np.ones(width, dtype=bool) if m is None else np.asarray(m, dtype=bool)
                     for m in masks])


def sample_index(probs, rng):
    c = np.cumsum(probs)
    c[-1] = 1.0
    i = int(np.searchsorted(c, rng.random(), side="right"))
    if probs[i] == 0.0:
        # The draw fell in the rounding gap that c[-1] = 1.0 hands to a masked
        # last action; it belongs to the last action with positive probability.
        i = int(np.flatnonzero(probs)[-1])
    return i


class CategoricalHead:
    """Masked softmax over a fixed action set."""

    def __init__(self, params, name, in_width, n_actions):
        self.out = Linear(params, f"{name}/logits", in_width, n_actions)
        self.n_actions = n_actions

    def act(self, F, rngs, mode="sample", masks=None):
        """One action per row of F (K, w): row k samples from rngs[k] (greedy:
        takes the argmax) among the actions masks[k] allows (None: any).
        Returns (K actions, (K,) log-probabilities of the taken actions,
        (K,) entropies)."""
        log_probs, probs = masked_log_probs(self.out(F), stack_masks(masks or ()))
        if mode == "greedy":
            actions = [int(np.argmax(p)) for p in probs.data]
        else:
            actions = [sample_index(p, rng) for p, rng in zip(probs.data, rngs)]
        return actions, self._taken(log_probs, actions), entropy(log_probs)

    def score(self, F, action, mask=None):
        """(log-probability of the taken action, entropy) per row: F is (w,)
        with one action and an (A,) mask, or (D, w) with D actions and a
        (D, A) mask."""
        log_probs, _ = masked_log_probs(self.out(F), mask)
        return self._taken(log_probs, action), entropy(log_probs)

    def _taken(self, log_probs, actions):
        """Entry actions[k] of row k of log_probs, gathered by one lookup."""
        actions = np.asarray(actions, dtype=np.intp)
        rows = np.arange(actions.size).reshape(actions.shape)
        return embed_lookup(reshape(log_probs, (-1,)), rows * self.n_actions + actions)


class _Decoder:
    """LSTM machinery of the grid head: the conditioning vector F seeds the
    initial [h | c] state and rides along with every step's input."""

    def __init__(self, params, name, in_width, hidden, n_rows, out_dim):
        self.hidden = hidden
        self.embed = Embedding(params, f"{name}/tok", n_rows, hidden)
        self.init_h = Linear(params, f"{name}/init_h", in_width, hidden)
        self.init_c = Linear(params, f"{name}/init_c", in_width, hidden)
        self.cell = LSTMCell(params, f"{name}/cell", hidden + in_width, hidden)
        self.out = Linear(params, f"{name}/out", hidden, out_dim)

    def start(self, F):
        return tanh(concat([self.init_h(F), self.init_c(F)], axis=0))

    def advance(self, state, token_row, F):
        """(h, next state) after feeding `token_row`'s embedding."""
        x = concat([reshape(self.embed([token_row]), (self.hidden,)), F], axis=0)
        state = self.cell(x, state)
        return slice_(state, 0, self.hidden), state


@dataclass(frozen=True)
class GridAction:
    """A decoded grid: side length and row-major cell token ids."""

    size: int
    tokens: tuple

    def __str__(self):
        return f"{self.size}x{self.size}:" + ",".join(str(t) for t in self.tokens)


class GridDecoder:
    """Grid head: one size-prefix token choosing the side length, then size^2
    cell tokens. Exactly one hero token is enforced by masking: hero tokens are
    masked out after one is placed, and everything else is masked out when the
    last cell would otherwise leave the grid without a hero."""

    def __init__(self, params, name, in_width, vocab, hero_ids, sizes=(4, 5, 6, 7, 8), hidden=32):
        self.vocab = list(vocab)
        self.hero_ids = frozenset(hero_ids)
        if not self.hero_ids:
            raise ValueError("grid decoder needs at least one hero token id")
        self.sizes = tuple(sizes)
        n_vocab = len(self.vocab)
        # Embedding rows: cell tokens, then one row per size choice, then BOS.
        self.bos_row = n_vocab + len(self.sizes)
        self.dec = _Decoder(params, name, in_width, hidden, self.bos_row + 1, n_vocab)
        self.size_out = Linear(params, f"{name}/size", hidden, len(self.sizes))

    def _cell_mask(self, hero_done, cells_left):
        mask = np.ones(len(self.vocab), dtype=bool)
        if hero_done:
            for h in self.hero_ids:
                mask[h] = False
        elif cells_left == 1:
            mask[:] = False
            for h in self.hero_ids:
                mask[h] = True
        return mask

    def _walk(self, F, rng=None, mode="sample", forced=None):
        h, state = self.dec.advance(self.dec.start(F), self.bos_row, F)
        size_log_probs, size_probs = masked_log_probs(self.size_out(h), None)
        if forced is not None:
            size_idx = self.sizes.index(forced.size)
        elif mode == "greedy":
            size_idx = int(np.argmax(size_probs.data))
        else:
            size_idx = sample_index(size_probs.data, rng)
        total_lp = _pick(size_log_probs, size_idx)
        total_ent = entropy(size_log_probs)
        size = self.sizes[size_idx]
        prev = len(self.vocab) + size_idx  # the size token's embedding row
        tokens = []
        hero_done = False
        for i in range(size * size):
            h, state = self.dec.advance(state, prev, F)
            mask = self._cell_mask(hero_done, size * size - i)
            log_probs, probs = masked_log_probs(self.dec.out(h), mask)
            if forced is not None:
                tok = forced.tokens[i]
            elif mode == "greedy":
                tok = int(np.argmax(probs.data))
            else:
                tok = sample_index(probs.data, rng)
            total_lp = total_lp + _pick(log_probs, tok)
            total_ent = total_ent + entropy(log_probs)
            hero_done = hero_done or tok in self.hero_ids
            tokens.append(tok)
            prev = tok
        action = forced if forced is not None else GridAction(size=size, tokens=tuple(tokens))
        return action, total_lp, total_ent

    def act(self, F, rngs, mode="sample", masks=None):
        """One grid per row of F (K, w), row k decoded with rngs[k]; masks
        are unused, since the decoder masks its own tokens. Returns (K grids,
        (K,) log-probabilities, (K,) entropies)."""
        walks = [self._walk(reshape(slice_(F, k, k + 1, axis=0), F.data.shape[1:]),
                            rng=rngs[k], mode=mode) for k in range(F.data.shape[0])]
        return ([action for action, _, _ in walks],
                concat([reshape(lp, (1,)) for _, lp, _ in walks]),
                concat([reshape(ent, (1,)) for _, _, ent in walks]))

    def score(self, F, action, mask=None):
        if action.size not in self.sizes:
            raise ValueError(f"size {action.size} not among {self.sizes}")
        _, lp, ent = self._walk(F, forced=action)
        return lp, ent


class ValueHead:
    """Value estimate: (w,) -> scalar, or (D, w) -> (D,)."""

    def __init__(self, params, name, in_width, hidden=32):
        self.net = MLP(params, name, [in_width, hidden, 1])

    def __call__(self, F):
        return reshape(self.net(F), F.data.shape[:-1])


class PolicyModel:
    """Bundle of everything a learned agent needs: the parameter store, the
    history encoder, and the action/value heads. run_episodes is the agent's
    one rollout path, stepping a batch of episodes in lockstep; the trainer
    backpropagates through the forward pass it records."""

    def __init__(self, params, encoder, head, value_head):
        self.params = params
        self.encoder = encoder
        self.head = head
        self.value_head = value_head

    def run_episodes(self, envs, seeds, mode="sample"):
        """Roll one episode per env in lockstep and return the
        TrajectoryBatch of their K episodes in env order. Episode k resets
        envs[k] with, and draws its actions from, its own
        default_rng(seeds[k]) and runs until full coverage or envs[k].budget
        decisions, so it takes the same actions in any batch. Each step
        serves every live episode with one summaries call (one GraphNet pass
        over the union of their newest graphs), one fold of their history
        states as rows, one head call and one value call; the envs then step
        one by one, and an episode that ends leaves the live set, its state
        rows dropped by a gather.

        mode is "sample" or "greedy". Either way the batch keeps the
        log-probability, entropy and value of every decision once, as
        `outputs` stacked step by step, and episode k's rows of them as
        `rows[k]`. Greedy rollouts record nothing. A sample rollout inside an
        open Tape records its whole forward pass there, so the learner
        backpropagates through `outputs` without encoding anything again."""
        if len(envs) != len(seeds):
            raise ValueError(f"{len(envs)} envs but {len(seeds)} seeds")
        first = {}
        for k, env in enumerate(envs):
            j = first.setdefault(id(env), k)
            if j != k:
                raise ValueError(f"envs {j} and {k} are the same object; "
                                 f"each episode needs its own env")
        rngs = [np.random.default_rng(seed) for seed in seeds]
        starts = [begin_episode(env, rng, env.budget) for env, rng in zip(envs, rngs)]
        trajs = [traj for traj, _ in starts]
        live = [k for k, (_, over) in enumerate(starts) if not over]
        state = self.encoder.init_state(len(live))
        steps = []  # (logprob, entropy, value) rows of each step's live episodes
        rows = [[] for _ in envs]  # episode k's decisions: rows of the steps, stacked
        offset = 0
        with no_grad() if mode == "greedy" else nullcontext():
            while live:
                histories = [trajs[k].history for k in live]
                F, state = self.encoder.fold(state, self.encoder.summaries(
                    [h.last() for h in histories], [h.program for h in histories]))
                masks = [envs[k].action_mask() for k in live]
                actions, logprob, entropy = self.head.act(
                    F, [rngs[k] for k in live], mode=mode, masks=masks)
                value = self.value_head(F)
                steps.append((logprob, entropy, value))
                kept = []
                for row, (k, action) in enumerate(zip(live, actions)):
                    rows[k].append(offset + row)
                    if not advance_episode(envs[k], trajs[k], action):
                        kept.append(row)
                offset += len(live)
                if len(kept) < len(live):
                    live = [live[row] for row in kept]
                    if state is not None:
                        state = embed_lookup(state, kept)
            outputs = tuple(concat(parts) for parts in zip(*steps)) if steps else None
        return TrajectoryBatch(episodes=trajs, outputs=outputs,
                               rows=[np.asarray(r, dtype=np.intp) for r in rows])

    def save(self, path, meta=None):
        save_params(path, self.params.snapshot(), meta=meta)

    def load(self, path):
        arrays, meta = load_params(path)
        self.params.load_values(arrays)
        return meta
