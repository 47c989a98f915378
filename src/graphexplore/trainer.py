"""Synchronized advantage actor-critic over a distribution of environments.

Each update collects one batch of full on-policy episodes with the current
parameters, stepping them in lockstep (PolicyModel.run_episodes: one union
GraphNet encode, one history fold, one head call and one value call per step
for all live episodes), and then a single learner step replays the batch on
the gradient tape. Returns are undiscounted suffix sums (finite-horizon
coverage objective), advantages are returns minus the value baseline, and the
update clips the global gradient norm.

The learner step is batched across the whole update: one
HistoryEncoder.prefix_encodings call encodes every decision's history (one
GraphNet pass over the disjoint union of all recorded graphs, the history
LSTM folding all episodes in parallel), one head call and one value call
score every decision, and one backward pass runs over a tape of a few ops per
decision.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .agents.policy import stack_masks
from .episode import TrajectoryBatch
from .episode import run_episode  # noqa: F401  perfbench/layers.py wraps trainer.run_episode by name
from .tensor import (
    GradientError,
    OptimizerState,
    Tape,
    Tensor,
    clip_global_norm,
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
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        for name in ("entropy_coef", "value_coef", "clip_norm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


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
    model's current parameters, all in lockstep. The batch is ordered by
    (worker, episode) and every episode draws from its own seed stream, so an
    episode does not depend on the rest of the batch. A failure aborts the
    whole collection."""
    envs, seeds = [], []
    for w in range(config.workers):
        for e in range(config.episodes_per_worker):
            env_seed, ep_seed = _episode_seeds(config, round_index, w, e)
            envs.append(env_sampler(np.random.default_rng(env_seed)))
            seeds.append(ep_seed)
    return TrajectoryBatch(episodes=model.run_episodes(envs, seeds, mode="sample")).validate()


def episode_returns(episode):
    """Undiscounted suffix sums: R_t = r_t + R_{t+1}, R after the end = 0."""
    rewards = episode.rewards()
    returns = [0.0] * len(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc += rewards[t]
        returns[t] = acc
    return returns


def _decision_masks(episodes):
    """(D, A) action masks of every decision, or None when no decision has
    one; a decision without a mask may take any action."""
    return stack_masks([m for ep in episodes
                        for m in (ep.masks or [None] * (len(ep.history.records) - 1))])


def batch_loss(model, batch, config):
    """Actor-critic loss over the batch (per-episode sums, averaged over
    episodes), built on the active tape. Returns (loss, components dict).

    Decision t of an episode is made from F(h_t), the fold of the summaries
    of records 0..t, so the encoder's prefix encodings of every episode's
    records but the last give one row per decision; one head and one value
    call score them all."""
    if not batch.episodes:
        raise ValueError("empty batch")
    episodes = [ep for ep in batch.episodes if len(ep.history.records) >= 2]
    if not episodes:
        raise ValueError("batch contains no decisions to learn from")
    F = model.encoder.prefix_encodings([ep.history.records[:-1] for ep in episodes],
                                       [ep.history.program for ep in episodes])
    actions = [rec.action for ep in episodes for rec in ep.history.records[1:]]
    logprob, entropy = model.head.score(F, actions, mask=_decision_masks(episodes))
    value = model.value_head(F)
    returns = np.concatenate([episode_returns(ep) for ep in episodes])
    advantage = returns - value.data
    err = value - Tensor(returns)
    terms = (
        logprob * Tensor(-advantage)
        + (err * err) * config.value_coef
        + entropy * (-config.entropy_coef)
    )
    n_ep = len(batch.episodes)
    loss = reduce_sum(terms) * (1.0 / n_ep)
    components = {
        "policy_loss": float(np.sum(-advantage * logprob.data)) / n_ep,
        "value_loss": float(np.sum(err.data ** 2)) / n_ep,
        "entropy": float(np.sum(entropy.data)) / len(actions),
    }
    return loss, components


def a2c_update(model, batch, config, opt_state):
    """One synchronized gradient step from a collected batch, applied through
    the caller's Adam state `opt_state`, which carries the moments from one
    update to the next. Returns (model, UpdateStats); a non-finite loss or
    gradient skips the step, leaves every parameter untouched and names the
    cause in skip_reason."""
    mean_return = float(np.mean([sum(ep.rewards()) for ep in batch.episodes]))
    with Tape() as tape:
        loss, parts = batch_loss(model, batch, config)
        if not np.isfinite(loss.data):
            return model, UpdateStats(
                mean_return=mean_return, policy_loss=0.0, value_loss=0.0,
                entropy=0.0, grad_norm=0.0, skip_reason=f"non-finite loss {float(loss.data)}",
            )
        grads = model.params.gradients(tape, loss)
    grads, norm = clip_global_norm(grads, config.clip_norm)
    try:
        optimizer_step(model.params.named(), grads, opt_state)
    except GradientError as e:
        return model, UpdateStats(
            mean_return=mean_return, policy_loss=parts["policy_loss"],
            value_loss=parts["value_loss"], entropy=parts["entropy"],
            grad_norm=0.0, skip_reason=f"non-finite gradient for parameter {e.param_name!r}",
        )
    stats = UpdateStats(
        mean_return=mean_return,
        policy_loss=parts["policy_loss"],
        value_loss=parts["value_loss"],
        entropy=parts["entropy"],
        grad_norm=norm,
    )
    return model, stats.validate()


METRICS_HEADER = "update,mean_return,policy_loss,value_loss,entropy,grad_norm,eval_coverage"


class MetricsWriter:
    """Line-per-update CSV stream; eval_coverage is blank off-cadence."""

    def __init__(self, path):
        self.f = open(path, "w")
        self.f.write(METRICS_HEADER + "\n")

    def write(self, update, stats, eval_coverage=None):
        ev = "" if eval_coverage is None else f"{eval_coverage:.10g}"
        self.f.write(
            f"{update},{stats.mean_return:.10g},{stats.policy_loss:.10g},"
            f"{stats.value_loss:.10g},{stats.entropy:.10g},{stats.grad_norm:.10g},{ev}\n"
        )
        self.f.flush()

    def close(self):
        self.f.close()


def zero_shot_coverage(model, env_set, config):
    """Greedy single episode per environment, all in lockstep, no parameter
    change."""
    env_set = list(env_set)
    seeds = [int(np.random.SeedSequence([config.seed, 900_000 + i]).generate_state(1)[0])
             for i in range(len(env_set))]
    model.run_episodes(env_set, seeds, mode="greedy")
    return float(np.mean([env.coverage_fraction() for env in env_set]))


def fine_tune(model, env, config, updates, eval_envs=None, eval_every=None, target=None):
    """Continue RL on one environment from the given initialization (the model
    is deep-copied; the caller's parameters never move). Returns the tuned
    model and the list of per-eval coverages; stops early once `target`
    coverage is reached if one is given."""
    tuned = copy.deepcopy(model)
    # Every episode of a lockstep batch needs its own env; reset rebuilds all
    # of a copy's state, so seeded results do not depend on the copying.
    sampler = lambda rng: copy.deepcopy(env)  # noqa: E731
    opt_state = OptimizerState(lr=config.learning_rate)
    curve = []
    for u in range(updates):
        batch = collect_rollouts(tuned, sampler, config, round_index=u)
        tuned, _ = a2c_update(tuned, batch, config, opt_state=opt_state)
        if eval_every and (u + 1) % eval_every == 0:
            cov = zero_shot_coverage(tuned, eval_envs or [env], config)
            curve.append(cov)
            if target is not None and cov >= target:
                break
    return tuned, curve


def evaluate(model, env_set, protocol, config, fine_tune_updates=None):
    """Held-out evaluation. zero_shot: greedy episodes with frozen parameters.
    fine_tune: per-environment RL continuation (budget = fine_tune_updates,
    default config.total_updates), then a greedy episode; the incoming model
    is never mutated."""
    env_set = list(env_set)
    if not env_set:
        raise ValueError("empty environment set")
    if protocol == "zero_shot":
        return zero_shot_coverage(model, env_set, config)
    if protocol == "fine_tune":
        updates = config.total_updates if fine_tune_updates is None else fine_tune_updates
        covs = []
        for env in env_set:
            tuned, _ = fine_tune(model, env, config, updates)
            covs.append(zero_shot_coverage(tuned, [env], config))
        return float(np.mean(covs))
    raise ValueError(f"unknown protocol {protocol!r}")


def train(model, config, eval_envs=None, metrics_path=None, checkpoint_path=None):
    """Run the full loop: collect, update, periodically evaluate zero-shot on
    eval_envs, stream metrics, and checkpoint the best eval model."""
    if config.env_sampler is None:
        raise ValueError("config.env_sampler is required for training")
    writer = MetricsWriter(metrics_path) if metrics_path else None
    opt_state = OptimizerState(lr=config.learning_rate)
    history = []
    best = -1.0
    try:
        for u in range(config.total_updates):
            batch = collect_rollouts(model, config.env_sampler, config, round_index=u)
            model, stats = a2c_update(model, batch, config, opt_state=opt_state)
            ev = None
            if eval_envs and config.eval_every and (u + 1) % config.eval_every == 0:
                ev = zero_shot_coverage(model, eval_envs, config)
                if checkpoint_path and ev > best:
                    best = ev
                    model.save(checkpoint_path, meta={"update": str(u + 1), "eval": f"{ev:.6f}"})
            if writer:
                writer.write(u + 1, stats, ev)
            history.append(stats)
    finally:
        if writer:
            writer.close()
    return model, history
