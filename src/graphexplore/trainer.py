"""Synchronized advantage actor-critic over a distribution of environments.

Each update collects one batch of full on-policy episodes with the current
parameters, stepping them in lockstep (PolicyModel.run_episodes: one union
GraphNet encode, one history fold, one head call and one value call per step
for all live episodes), and then makes a single gradient step. Returns are
undiscounted suffix sums (finite-horizon coverage objective), advantages are
returns minus the value baseline, and the update clips the global gradient
norm.

A2C steps once per batch with the parameters that collected it, so the
learner's forward pass would repeat the rollout's exactly. Instead the
rollout runs on the gradient tape (collect_rollouts opens it), its batch
keeps the log-probability, entropy and value tensors of every decision once
(TrajectoryBatch.outputs, with each episode's rows), and the learner builds
the loss from them and runs only the backward pass, as A3C-style learners
backpropagate through the rollout's own forward (Mnih et al., 1602.01783).
The update then releases the tape.

`train` is the one training loop, returning (and optionally streaming as JSON
lines) one record per update, and `zero_shot_coverage` is the held-out
evaluation.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .episode import run_episode  # noqa: F401  perfbench/layers.py wraps trainer.run_episode by name
from .tensor import (
    GradientError,
    OptimizerState,
    Tape,
    clip_global_norm,
    embed_lookup,
    optimizer_step,
    reduce_sum,
)


@dataclass
class TrainConfig:
    """Knobs for the training loop. env_sampler is a callable rng -> fresh
    environment instance; seed fully determines the run. workers and
    episodes_per_worker only set the batch size (their product) and the
    layout of the per-episode seed streams; a batch's episodes always run
    in lockstep in one process."""

    seed: int
    env_sampler: object = None
    workers: int = 32
    episodes_per_worker: int = 1
    learning_rate: float = 1e-3
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    clip_norm: float = 1.0
    total_updates: int = 100
    eval_every: int = 10

    def __post_init__(self):
        for name, low in (("workers", 1), ("episodes_per_worker", 1), ("total_updates", 0),
                          ("eval_every", 0), ("entropy_coef", 0), ("value_coef", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # A zero clip norm scales every gradient to zero, so nothing would train.
        for name in ("learning_rate", "clip_norm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass
class UpdateStats:
    mean_return: float
    policy_loss: float
    value_loss: float
    entropy: float
    grad_norm: float
    skip_reason: str = ""  # why the step was skipped, parameters untouched; "" if applied

    @property
    def skipped(self):
        return bool(self.skip_reason)

    def validate(self):
        for name in ("mean_return", "policy_loss", "value_loss", "entropy", "grad_norm"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite stat {name}")
        return self


def _episode_seeds(config, round_index, worker, episode):
    """Per-(round, worker, episode) independent streams: (env seed, episode seed)."""
    ss = np.random.SeedSequence([config.seed, round_index, worker, episode])
    a, b = ss.generate_state(2)
    return int(a), int(b)


def collect_rollouts(model, env_sampler, config, round_index=0):
    """Sample fresh environments and run one full episode on each from the
    model's current parameters, all in lockstep, recording the forward pass
    on a new Tape that the returned batch carries. The batch is ordered by
    (worker, episode) and every episode draws from its own seed stream, so an
    episode does not depend on the rest of the batch. A failure aborts the
    whole collection."""
    envs, seeds = [], []
    for w in range(config.workers):
        for e in range(config.episodes_per_worker):
            env_seed, ep_seed = _episode_seeds(config, round_index, w, e)
            envs.append(env_sampler(np.random.default_rng(env_seed)))
            seeds.append(ep_seed)
    with Tape() as tape:
        batch = model.run_episodes(envs, seeds, mode="sample")
    batch.tape = tape
    return batch


def episode_returns(episode):
    """Undiscounted suffix sums: R_t = r_t + R_{t+1}, R after the end = 0."""
    return np.cumsum(episode.rewards()[::-1])[::-1].tolist()


def batch_loss(batch, config):
    """Actor-critic loss over the batch (per-episode sums, averaged over
    episodes), built on the batch's tape from the log-probability, entropy
    and value tensors that its rollout (PolicyModel.run_episodes in sample
    mode inside the tape) recorded for every decision. Returns (loss,
    components dict)."""
    if not batch.episodes:
        raise ValueError("empty batch")
    if len(batch.rows) != len(batch.episodes):
        raise ValueError(f"batch has {len(batch.episodes)} episodes "
                         f"but rows for {len(batch.rows)}")
    episodes = [ep for ep in batch.episodes if len(ep.history.records) >= 2]
    if not episodes:
        raise ValueError("batch contains no decisions to learn from")
    if batch.outputs is None:
        cause = "it holds no policy outputs"
    elif not batch.outputs[0].requires_grad:
        cause = "its outputs were not recorded: a greedy rollout, or one outside a Tape"
    elif batch.tape is None:
        cause = "an update already backpropagated through its tape and released it"
    else:
        cause = ""
    if cause:
        raise ValueError(f"batch has no recorded forward: {cause}")
    rows = np.concatenate(batch.rows)
    with batch.tape:
        logprob, entropy, value = (embed_lookup(t, rows) for t in batch.outputs)
        returns = np.concatenate([episode_returns(ep) for ep in episodes])
        advantage = returns - value.data
        # The constant operands take the tensors' dtype (see tensor.core).
        err = value - returns
        terms = (
            logprob * -advantage
            + (err * err) * config.value_coef
            + entropy * (-config.entropy_coef)
        )
        n_ep = len(batch.episodes)
        loss = reduce_sum(terms) * (1.0 / n_ep)
    components = {
        "policy_loss": float(np.sum(-advantage * logprob.data)) / n_ep,
        "value_loss": float(np.sum(err.data ** 2)) / n_ep,
        "entropy": float(np.sum(entropy.data)) / len(returns),
    }
    return loss, components


def a2c_update(model, batch, config, opt_state):
    """One synchronized gradient step from a collected batch, applied through
    the caller's Adam state `opt_state`, which carries the moments from one
    update to the next. The backward pass runs through the batch's recorded
    rollout forward, and the batch's tape is released afterwards, so a batch
    serves one update. Returns (model, UpdateStats); a non-finite loss or
    gradient skips the step, leaves every parameter untouched and names the
    cause in skip_reason."""
    try:
        loss, parts = batch_loss(batch, config)
        mean_return = float(np.mean([sum(ep.rewards()) for ep in batch.episodes]))
        if not np.isfinite(loss.data):
            return model, UpdateStats(mean_return, 0.0, 0.0, 0.0, 0.0,
                                      skip_reason=f"non-finite loss {float(loss.data)}")
        grads = model.params.gradients(batch.tape, loss)
    finally:
        batch.tape = None
    grads, norm = clip_global_norm(grads, config.clip_norm)
    try:
        optimizer_step(model.params.named(), grads, opt_state)
    except GradientError as e:
        return model, UpdateStats(mean_return, **parts, grad_norm=0.0,
                                  skip_reason=f"non-finite gradient for parameter {e.param_name!r}")
    return model, UpdateStats(mean_return, **parts, grad_norm=norm).validate()


def zero_shot_coverage(model, env_set, config):
    """Greedy single episode per environment, all in lockstep, no parameter
    change. Returns the mean coverage; an empty env_set is an error."""
    env_set = list(env_set)
    if not env_set:
        raise ValueError("zero_shot_coverage needs at least one environment: env_set is empty")
    seeds = [int(np.random.SeedSequence([config.seed, 900_000 + i]).generate_state(1)[0])
             for i in range(len(env_set))]
    return model.run_episodes(env_set, seeds, mode="greedy").mean_coverage()


def train(model, config, eval_envs=None, records_path=None, checkpoint_path=None):
    """Run the full loop: collect, update, evaluate zero-shot on eval_envs
    every config.eval_every updates, and checkpoint the best eval model.
    Returns (model, records): one dict per update with `update`, the
    UpdateStats fields and `eval_coverage` (None off-cadence). With
    records_path, each record is also streamed there as one JSON line. A
    checkpoint_path without an evaluation to pick the model by raises
    ValueError before the first update."""
    if config.env_sampler is None:
        raise ValueError("config.env_sampler is required for training")
    if checkpoint_path:
        if not eval_envs:
            raise ValueError("checkpoint_path needs eval_envs: evaluation picks the model it keeps")
        if not 0 < config.eval_every <= config.total_updates:
            raise ValueError(f"checkpoint_path needs an evaluation: eval_every {config.eval_every} "
                             f"is not in 1..total_updates ({config.total_updates})")
    opt_state = OptimizerState(lr=config.learning_rate)
    records = []
    best = -1.0
    with open(records_path, "w") if records_path else nullcontext() as out:
        for u in range(config.total_updates):
            batch = collect_rollouts(model, config.env_sampler, config, round_index=u)
            model, stats = a2c_update(model, batch, config, opt_state=opt_state)
            ev = None
            if eval_envs and config.eval_every and (u + 1) % config.eval_every == 0:
                ev = zero_shot_coverage(model, eval_envs, config)
                if checkpoint_path and ev > best:
                    best = ev
                    model.save(checkpoint_path, meta={"update": str(u + 1), "eval": f"{ev:.6f}"})
            records.append({"update": u + 1, **asdict(stats), "eval_coverage": ev})
            if out:
                out.write(json.dumps(records[-1]) + "\n")
                out.flush()
    return model, records
