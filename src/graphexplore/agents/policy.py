"""Learned policy heads on top of the history encoding F(h_t).

The action head is a masked categorical over a fixed action set. It has two
entry points: act() for choosing one action per row of a (K, w) batch during
lockstep rollouts, which also returns the taken actions' log-probabilities
and the entropies as tensors (on the active tape, if any), and score() for
re-evaluating the given actions of the rows of a (D, w) batch.

Masking uses a -1e30 logit offset: large enough that exp() underflows to an
exact 0 probability, small enough that log-space arithmetic stays finite, so
entropy terms contribute exactly 0 instead of NaN.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..episode import TrajectoryBatch, advance_episode, begin_episode
from ..tensor import (
    Linear,
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
)

MASK_OFFSET = -1e30


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

    def score(self, F, actions, masks=None):
        """((D,) log-probabilities of the given actions, (D,) entropies) of
        the rows of F (D, w): row k took actions[k] among the actions
        masks[k] allows (None: any), as in act()."""
        log_probs, _ = masked_log_probs(self.out(F), stack_masks(masks or ()))
        return self._taken(log_probs, actions), entropy(log_probs)

    def _taken(self, log_probs, actions):
        """Entry actions[k] of row k of log_probs, gathered by one lookup."""
        actions = np.asarray(actions, dtype=np.intp)
        return embed_lookup(reshape(log_probs, (-1,)),
                            np.arange(len(actions)) * self.n_actions + actions)


class ValueHead:
    """Value estimate: (D, w) -> (D,)."""

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
        TrajectoryBatch of their K episodes in env order. Episode k draws
        its actions from its own default_rng(seeds[k]) and runs until full
        coverage or envs[k].budget decisions, so it takes the same actions
        in any batch. Each step serves every live episode with one summaries
        call (one GraphNet pass over the union of their newest graphs), one
        fold of their history states as rows, one head call and one value
        call; the envs then step one by one. An episode that goes on is
        observed for its next decision; one that ends leaves the live set,
        its state rows dropped by a gather.

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
        starts = [begin_episode(env, env.budget) for env in envs]
        trajs = [traj for traj, _, _ in starts]
        newest = [obs for _, obs, _ in starts]  # each episode's latest observation
        live = [k for k, (_, _, over) in enumerate(starts) if not over]
        state = self.encoder.init_state(len(live))
        steps = []  # (logprob, entropy, value) rows of each step's live episodes
        rows = [[] for _ in envs]  # episode k's decisions: rows of the steps, stacked
        offset = 0
        with no_grad() if mode == "greedy" else nullcontext():
            while live:
                F, state = self.encoder.fold(state, self.encoder.summaries(
                    [newest[k] for k in live], [trajs[k].history.last() for k in live]))
                masks = [envs[k].action_mask() for k in live]
                actions, logprob, entropy = self.head.act(
                    F, [rngs[k] for k in live], mode=mode, masks=masks)
                value = self.value_head(F)
                steps.append((logprob, entropy, value))
                kept = []
                for row, (k, action) in enumerate(zip(live, actions)):
                    rows[k].append(offset + row)
                    if not advance_episode(envs[k], trajs[k], action):
                        newest[k] = envs[k].observe()
                        kept.append(row)
                offset += len(live)
                if len(kept) < len(live):
                    live = [live[row] for row in kept]
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
