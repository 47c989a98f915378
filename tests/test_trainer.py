"""Actor-critic trainer: rollout collection, update math, training loop, zero-shot evaluation."""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from graphexplore import trainer
from graphexplore.agents import CategoricalHead, ValueHead
from graphexplore.agents.policy import PolicyModel
from graphexplore.envs.appgraph import AppEnv, generate_er_app
from graphexplore.envs.maze import Maze, MazeEnv, generate_maze
from graphexplore.episode import (
    EpisodeHistory,
    EpisodeTrajectory,
    HistoryEncoder,
    HistoryEncoderConfig,
    StepRecord,
    TrajectoryBatch,
    run_episode,
)
from graphexplore.graphnet import GraphNet, GraphNetConfig, GraphObservation
from graphexplore.tensor import GradientError, OptimizerState, ParamSet, Tape, core, reduce_sum
from graphexplore.trainer import (
    TrainConfig,
    UpdateStats,
    a2c_update,
    batch_loss,
    collect_rollouts,
    episode_returns,
    train,
    zero_shot_coverage,
    _episode_seeds,
)
from reference import episode_outputs, replayed_inputs


def tiny_model(seed=0, width=12, n_actions=4, zero_value=False, rounds=1, dtype=np.float32):
    params = ParamSet(seed=seed, dtype=dtype)
    gnet = GraphNet(params, "gnn", GraphNetConfig(d=6, rounds=rounds, feature_width=1))
    enc = HistoryEncoder(
        params,
        "hist",
        HistoryEncoderConfig(
            recurrent_width=width, action_width=4, action_vocab=n_actions,
            temporal_mode="autoregressive", conditioning="graph",
        ),
        gnet,
    )
    head = CategoricalHead(params, "pi", width, n_actions)
    vhead = ValueHead(params, "v", width, hidden=8)
    if zero_value:
        for name, p in params.named().items():
            if name.startswith("v/"):
                p.data[...] = 0.0
    return PolicyModel(params, enc, head, vhead)


def maze_sampler(rng):
    maze = generate_maze(4, 4, 0.18, int(rng.integers(2**62)))
    return MazeEnv(maze, budget=8)


def small_config(**kw):
    defaults = dict(seed=5, env_sampler=maze_sampler, workers=2,
                    episodes_per_worker=1, total_updates=2, eval_every=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError, match="workers"):
        TrainConfig(seed=0, workers=0)
    with pytest.raises(ValueError, match="entropy_coef"):
        TrainConfig(seed=0, entropy_coef=-0.1)
    with pytest.raises(ValueError, match="value_coef"):
        TrainConfig(seed=0, value_coef=-1)


@pytest.mark.parametrize("field, value", [
    ("episodes_per_worker", 0),
    ("total_updates", -3),
    ("eval_every", -1),
    ("learning_rate", -1.0),
    ("learning_rate", 0.0),
    ("clip_norm", 0.0),
    ("clip_norm", -1.0),
])
def test_config_rejects_settings_that_cannot_train(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(seed=0, **{field: value})


def test_update_stats_rejects_non_finite():
    with pytest.raises(ValueError, match="value_loss"):
        UpdateStats(0.0, 0.0, float("nan"), 0.0, 0.0).validate()


# ------------------------------------------------------------------ returns


def test_returns_suffix_recursion():
    history = EpisodeHistory(records=[StepRecord(None, None, 0.0)], budget=3, normalizer=1.0)
    for r in (0.5, 0.5, 0.25):
        history.records.append(StepRecord(0, None, r))
    ep = EpisodeTrajectory(history=history)
    returns = episode_returns(ep)
    assert returns == [1.25, 0.75, 0.25]
    rewards = ep.rewards()
    for t in range(len(rewards)):
        nxt = returns[t + 1] if t + 1 < len(returns) else 0.0
        assert returns[t] == pytest.approx(rewards[t] + nxt)


def test_returns_equal_the_suffix_loop_exactly():
    rng = np.random.default_rng(4)
    for n in range(40):
        rewards = (rng.integers(0, 4, n) / rng.integers(1, 37)).tolist()
        history = EpisodeHistory(records=[StepRecord(None, None, 0.0)], budget=n, normalizer=1.0)
        history.records += [StepRecord(0, None, r) for r in rewards]
        expected, acc = [0.0] * n, 0.0
        for t in range(n - 1, -1, -1):
            acc += rewards[t]
            expected[t] = acc
        assert episode_returns(EpisodeTrajectory(history=history)) == expected


def recorded_batch(model, envs, seeds=None):
    """The model's sample episodes on envs with their forward recorded on a
    tape the batch carries, as collect_rollouts records them."""
    with Tape() as tape:
        batch = model.run_episodes(envs, seeds or list(range(len(envs))))
    batch.tape = tape
    return batch


def test_hand_example_returns_and_advantages():
    # Walk a 3-cell corridor east twice (rewards normalized by the 3 cells):
    # rewards (2/3, 1/3), returns (1, 1/3); with a zero value head the
    # squared-error sum is 1^2 + (1/3)^2. A logit bias of 50 on east makes the
    # sampled policy walk east with probability 1 - 1e-20.
    model = tiny_model(zero_value=True)
    model.params["pi/logits/b"].data[1] = 50.0
    cfg = small_config(workers=1)
    maze = Maze(width=3, height=1,
                passages=np.array([[2, 2 | 8, 8]], dtype=np.uint8), start=(0, 0))
    env = MazeEnv(maze, budget=2)
    batch = recorded_batch(model, [env])
    [traj] = batch.episodes
    assert [rec.action for rec in traj.history.records[1:]] == [1, 1]  # east
    assert traj.rewards() == [pytest.approx(2 / 3), pytest.approx(1 / 3)]
    returns = episode_returns(traj)
    assert returns == [pytest.approx(1.0), pytest.approx(1 / 3)]
    _, parts = batch_loss(batch, cfg)
    assert parts["value_loss"] == pytest.approx(1.0**2 + (1 / 3)**2)


def test_zero_advantage_kills_policy_term():
    # All-zero rewards + zero value head: advantages vanish so the policy
    # component contributes nothing.
    model = tiny_model(zero_value=True)
    cfg = small_config()
    maze = generate_maze(2, 2, 1.0, seed=0)
    batch = recorded_batch(model, [MazeEnv(maze, budget=3)], [1])
    for rec in batch.episodes[0].history.records:
        rec.reward = 0.0
    _, parts = batch_loss(batch, cfg)
    assert parts["policy_loss"] == 0.0
    assert parts["value_loss"] == 0.0


# ------------------------------------------------- batched learner step


def reference_loss(model, batch, config, envs, seeds):
    """The A2C loss replayed one record at a time, each a one-row batch,
    through the public summaries, fold, score and value calls, with each
    step's observation and action mask replayed on a fresh copy of the
    episode's env (envs[k], seeds[k])."""
    total = None
    pol = val = ent = 0.0
    n_steps = 0
    for env, seed, ep in zip(envs, seeds, batch.episodes):
        records = ep.history.records
        if len(records) < 2:
            continue
        returns = episode_returns(ep)
        observations, masks = replayed_inputs(env, seed, ep)
        state = model.encoder.init_state(1)
        for t, rec in enumerate(records[1:]):
            F, state = model.encoder.fold(
                state, model.encoder.summaries([observations[t]], [records[t]]))
            logprob, entropy = model.head.score(F, [rec.action], masks=[masks[t]])
            value = model.value_head(F)
            advantage = returns[t] - float(value.data[0])
            err = value - returns[t]
            term = (reduce_sum(logprob) * (-advantage)
                    + reduce_sum(err * err) * config.value_coef
                    + reduce_sum(entropy) * (-config.entropy_coef))
            total = term if total is None else total + term
            pol += -advantage * float(logprob.data[0])
            val += float(err.data[0]) ** 2
            ent += float(entropy.data[0])
            n_steps += 1
    n_ep = len(batch.episodes)
    parts = {"policy_loss": pol / n_ep, "value_loss": val / n_ep, "entropy": ent / n_steps}
    return total * (1.0 / n_ep), parts


class UnmaskedApp(AppEnv):
    """An app on which every action is valid at every screen, and which
    hands the policy no mask."""

    def action_mask(self):
        return None


def mixed_batch(kind, model):
    """Episodes with masked actions, an early-terminated episode, one with a
    single record, and (app) one without masks, all starting from an empty
    graph, rolled out by one run_episodes call on a tape with seeds
    0, 1, ...; returns (batch, envs)."""
    if kind == "maze":
        envs = [MazeEnv(generate_maze(4, 4, 0.18, s), budget=10) for s in (1, 2)]
        envs += [MazeEnv(generate_maze(2, 2, 1.0, 3), budget=10),  # covered early
                 MazeEnv(generate_maze(1, 1, 0.0, 0), budget=5)]  # no decision
    else:
        envs = [AppEnv(generate_er_app(8, p=0.3, seed=s), budget=8, num_actions=7)
                for s in (1, 2)]
        envs += [AppEnv(generate_er_app(3, p=1.0, seed=3), budget=8, num_actions=7),
                 AppEnv(generate_er_app(5, p=0.0, seed=4), budget=8, num_actions=7),
                 # A complete graph on 8 screens: every action leads somewhere.
                 UnmaskedApp(generate_er_app(8, p=1.0, seed=5), budget=6, num_actions=7)]
    batch = recorded_batch(model, envs)
    episodes = batch.episodes
    replayed = [replayed_inputs(env, seed, ep) for seed, (env, ep) in enumerate(zip(envs, episodes))]
    masks = [ep_masks for _, ep_masks in replayed]
    assert any(ep.terminated_early and len(ep.history.records) > 2 for ep in episodes)
    assert any(len(ep.history.records) < 2 for ep in episodes)
    assert any(m is not None and not m.all() for ep_masks in masks for m in ep_masks)
    if kind == "app":
        assert any(len(ep.history.records) > 1 and all(m is None for m in ep_masks)
                   for ep, ep_masks in zip(episodes, masks))
    assert all(observations[0].is_empty() for observations, _ in replayed if observations)
    return batch, envs


@pytest.mark.parametrize("kind", ["maze", "app"])
def test_batch_loss_matches_per_record_reference(kind):
    # The loss built from the rollout's own recorded forward, and its
    # gradients, equal a per-record replay through the public encoder calls.
    model = tiny_model(seed=11, n_actions=4 if kind == "maze" else 7, dtype=np.float64)
    cfg = small_config()
    batch, envs = mixed_batch(kind, model)
    loss, parts = batch_loss(batch, cfg)
    grads = model.params.gradients(batch.tape, loss)
    with Tape() as tape:
        ref_loss, ref_parts = reference_loss(model, batch, cfg, envs, range(len(envs)))
    ref_grads = model.params.gradients(tape, ref_loss)
    assert abs(float(loss.data) - float(ref_loss.data)) <= 1e-9
    for name in ref_grads:
        assert np.max(np.abs(grads[name].data - ref_grads[name].data)) <= 1e-9, name
    assert parts.keys() == ref_parts.keys()
    for key in parts:
        assert parts[key] == pytest.approx(ref_parts[key], abs=1e-9)


def test_batch_loss_names_why_a_batch_has_no_recorded_forward():
    model = tiny_model()
    cfg = small_config()
    envs = lambda: [MazeEnv(generate_maze(4, 4, 0.18, s), budget=6) for s in (1, 2)]  # noqa: E731
    for mode in ("greedy", "sample"):  # neither inside a Tape
        with pytest.raises(ValueError, match="outputs were not recorded: a greedy rollout, "
                                             "or one outside a Tape"):
            batch_loss(model.run_episodes(envs(), [3, 4], mode=mode), cfg)
    first_valid = lambda env, rng: int(np.flatnonzero(env.action_mask())[0])  # noqa: E731
    _, scripted = run_episode(envs()[0], first_valid, budget=6, seed=9)
    rows = [np.arange(len(scripted.history.records) - 1)]
    with pytest.raises(ValueError, match="batch has no recorded forward: it holds no policy "
                                         "outputs"):
        batch_loss(TrajectoryBatch(episodes=[scripted], rows=rows, tape=Tape()), cfg)
    recorded = recorded_batch(model, envs())
    with pytest.raises(ValueError, match="batch has 3 episodes but rows for 2"):
        batch_loss(replace(recorded, episodes=recorded.episodes + [scripted]), cfg)
    a2c_update(model, recorded, cfg, OptimizerState(lr=cfg.learning_rate))
    with pytest.raises(ValueError, match="an update already backpropagated through its tape "
                                         "and released it"):
        batch_loss(recorded, cfg)


def test_a_batch_serves_one_update():
    model = tiny_model()
    cfg = small_config(workers=2)
    opt = OptimizerState(lr=cfg.learning_rate)
    batch = collect_rollouts(model, maze_sampler, cfg)
    model, stats = a2c_update(model, batch, cfg, opt)
    assert not stats.skipped and batch.tape is None
    before = model.params.snapshot()
    with pytest.raises(ValueError, match="released it"):
        a2c_update(model, batch, cfg, opt)
    after = model.params.snapshot()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_greedy_rollouts_record_nothing_on_an_open_tape():
    model = tiny_model()
    cfg = small_config()
    with Tape() as tape:
        batch = model.run_episodes(heldout_envs(3), [1, 2, 3], mode="greedy")
        cov = zero_shot_coverage(model, heldout_envs(), cfg)
    assert len(tape) == 0
    assert 0.0 <= cov <= 1.0
    assert not any(t.requires_grad for t in batch.outputs)
    assert any(len(ep.history.records) > 1 for ep in batch.episodes)


def test_batch_loss_rejects_batches_without_decisions():
    model = tiny_model()
    cfg = small_config()
    with pytest.raises(ValueError, match="empty batch"):
        batch_loss(TrajectoryBatch(episodes=[]), cfg)
    batch = recorded_batch(model, [MazeEnv(generate_maze(1, 1, 0.0, 0), budget=5)])
    with pytest.raises(ValueError, match="no decisions"):
        batch_loss(batch, cfg)


# ------------------------------------------------------------------ collection


@pytest.mark.parametrize("workers, episodes_per_worker", [(1, 1), (3, 2)])
def test_single_worker_single_episode_matches_direct_run(workers, episodes_per_worker):
    model = tiny_model(dtype=np.float64)
    cfg = small_config(workers=workers, episodes_per_worker=episodes_per_worker)
    batch = collect_rollouts(model, maze_sampler, cfg, round_index=0)
    assert len(batch) == workers * episodes_per_worker

    layout = [(w, e) for w in range(workers) for e in range(episodes_per_worker)]
    for k, (got, (w, e)) in enumerate(zip(batch.episodes, layout)):
        env_seed, ep_seed = _episode_seeds(cfg, 0, w, e)
        env = maze_sampler(np.random.default_rng(env_seed))
        single = model.run_episodes([env], [ep_seed])
        [want] = single.episodes
        assert [r.action for r in got.history.records] == [r.action for r in want.history.records]
        assert got.rewards() == want.rewards()
        # The batched matmuls of a larger lockstep batch may differ in the
        # last bit from a batch of one.
        for a, b in zip(episode_outputs(batch, k), episode_outputs(single, 0), strict=True):
            assert_close(a, b, 1e-9)


def lockstep_envs(kind):
    """Eight fresh envs: six ordinary ones, one covered before its budget runs
    out and one with no decision to make."""
    if kind == "maze":
        envs = [MazeEnv(generate_maze(4, 4, 0.18, s), budget=10) for s in range(1, 7)]
        return envs + [MazeEnv(generate_maze(2, 2, 1.0, 3), budget=10),
                       MazeEnv(generate_maze(1, 1, 0.0, 0), budget=5)]
    envs = [AppEnv(generate_er_app(8, p=0.3, seed=s), budget=8, num_actions=7)
            for s in range(1, 7)]
    return envs + [AppEnv(generate_er_app(3, p=1.0, seed=3), budget=8, num_actions=7),
                   AppEnv(generate_er_app(5, p=0.0, seed=4), budget=8, num_actions=7)]


def assert_close(got, want, tol):
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= tol


@pytest.mark.parametrize("kind", ["maze", "app"])
def test_batch_composition_does_not_change_an_episode(kind):
    model = tiny_model(seed=11, n_actions=4 if kind == "maze" else 7, dtype=np.float64)
    seeds = [100 + k for k in range(8)]
    batch = model.run_episodes(lockstep_envs(kind), seeds)
    assert any(ep.terminated_early and len(ep.history.records) > 2 for ep in batch.episodes)
    assert any(len(ep.history.records) == 1 for ep in batch.episodes)
    for k, got in enumerate(batch.episodes):
        single = model.run_episodes([lockstep_envs(kind)[k]], [seeds[k]])
        [want] = single.episodes
        assert [r.action for r in got.history.records] == [r.action for r in want.history.records]
        assert got.rewards() == want.rewards()
        assert got.terminated_early == want.terminated_early
        for a, b in zip(episode_outputs(batch, k), episode_outputs(single, 0), strict=True):
            assert_close(a, b, 1e-9)


def test_greedy_zero_shot_equals_mean_of_single_env_runs():
    model = tiny_model(seed=12)
    cfg = small_config()
    envs = lockstep_envs("maze")[2:]
    cov = zero_shot_coverage(model, envs, cfg)
    singles = []
    for i in range(len(envs)):
        env = lockstep_envs("maze")[2 + i]
        seed = int(np.random.SeedSequence([cfg.seed, 900_000 + i]).generate_state(1)[0])
        [traj] = model.run_episodes([env], [seed], mode="greedy").episodes
        singles.append(traj.final_coverage)
    assert cov == float(np.mean(singles))


def test_collection_is_deterministic():
    model = tiny_model()
    cfg = small_config(workers=3, episodes_per_worker=2)
    b1 = collect_rollouts(model, maze_sampler, cfg, round_index=7)
    b2 = collect_rollouts(model, maze_sampler, cfg, round_index=7)
    assert len(b1) == 6
    for e1, e2 in zip(b1.episodes, b2.episodes):
        assert [r.action for r in e1.history.records] == [r.action for r in e2.history.records]
        assert e1.rewards() == e2.rewards()


def test_collection_episode_count_scales_with_workers():
    model = tiny_model()
    cfg = small_config(workers=4, episodes_per_worker=2)
    batch = collect_rollouts(model, maze_sampler, cfg)
    assert len(batch) == 8


def test_worker_failure_aborts_collection():
    model = tiny_model()
    cfg = small_config(workers=3, episodes_per_worker=1)
    calls = []

    def flaky_sampler(rng):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("worker exploded")
        return maze_sampler(rng)

    with pytest.raises(RuntimeError, match="worker exploded"):
        collect_rollouts(model, flaky_sampler, cfg)


# ------------------------------------------------------------------ update


def test_update_changes_params_and_reports_finite_stats():
    model = tiny_model()
    cfg = small_config(workers=2, episodes_per_worker=2)
    before = model.params.snapshot()
    batch = collect_rollouts(model, maze_sampler, cfg)
    model, stats = a2c_update(model, batch, cfg, OptimizerState(lr=cfg.learning_rate))
    stats.validate()
    assert not stats.skipped
    assert stats.grad_norm > 0
    after = model.params.snapshot()
    changed = any(not np.array_equal(before[k], after[k]) for k in before)
    assert changed


def test_update_skips_on_non_finite_rewards():
    model = tiny_model()
    cfg = small_config(workers=1)
    batch = collect_rollouts(model, maze_sampler, cfg)
    batch.episodes[0].history.records[1].reward = float("nan")
    before = model.params.snapshot()
    model, stats = a2c_update(model, batch, cfg, OptimizerState(lr=cfg.learning_rate))
    assert stats.skipped
    assert stats.skip_reason == "non-finite loss nan"
    after = model.params.snapshot()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_update_skip_reason_names_the_gradient_parameter(monkeypatch):
    model = tiny_model()
    cfg = small_config(workers=1)
    batch = collect_rollouts(model, maze_sampler, cfg)
    before = model.params.snapshot()

    def failing_step(params, grads, state):
        raise GradientError("pi/logits/W")

    monkeypatch.setattr(trainer, "optimizer_step", failing_step)
    model, stats = a2c_update(model, batch, cfg, OptimizerState(lr=cfg.learning_rate))
    assert stats.skipped
    assert stats.skip_reason == "non-finite gradient for parameter 'pi/logits/W'"
    after = model.params.snapshot()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_update_skip_reason_names_the_parameter_with_a_nan_gradient(monkeypatch):
    # The NaN makes the global norm NaN; clipping must leave the other
    # gradients finite so that the skip names this parameter, not the first.
    model = tiny_model()
    cfg = small_config(workers=1)
    batch = collect_rollouts(model, maze_sampler, cfg)
    before = model.params.snapshot()
    name = list(model.params.named())[-1]
    real_gradients = model.params.gradients

    def poisoned(tape, loss):
        grads = real_gradients(tape, loss)
        grads[name].data.flat[0] = np.nan
        return grads

    monkeypatch.setattr(model.params, "gradients", poisoned)
    model, stats = a2c_update(model, batch, cfg, OptimizerState(lr=cfg.learning_rate))
    assert stats.skip_reason == f"non-finite gradient for parameter {name!r}"
    after = model.params.snapshot()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_training_is_deterministic_end_to_end():
    covs = []
    for _ in range(2):
        model = tiny_model(seed=3)
        cfg = small_config(workers=2, episodes_per_worker=1, total_updates=3)
        opt_state = OptimizerState(lr=cfg.learning_rate)
        for u in range(cfg.total_updates):
            batch = collect_rollouts(model, maze_sampler, cfg, round_index=u)
            model, _ = a2c_update(model, batch, cfg, opt_state)
        covs.append(model.params.snapshot())
    for k in covs[0]:
        assert np.array_equal(covs[0][k], covs[1][k])


# ------------------------------------------------------------------ bandit


def app_sampler(rng):
    return AppEnv(generate_er_app(8, p=0.3, seed=int(rng.integers(2**31))), budget=8, num_actions=7)


# Two seeded updates of seeded_two_updates(kind), recorded with the edge-level
# message passing and the GRU composed of 17 tape ops that the node-level
# messages and the fused gru_cell replaced. logprobs and values are flattened
# over the update's episodes; stats are the UpdateStats fields mean_return,
# policy_loss, value_loss, entropy and grad_norm. The maze rewards, stats and
# second-update logprobs and values were recorded again, with the node-level
# code, when maze rewards moved from the budget (8) to the cell count (16) as
# normalizer; every action and the first update's logprobs and values held.
PARENT_RUNS = {
    "maze": [
        {
            "actions": [[1, 3, 1, 2, 1, 1, 3, 3], [2, 0, 2, 0, 2, 3, 1, 0]],
            "rewards": [[0.125, 0.0, 0.0, 0.0625, 0.0625, 0.0625, 0.0, 0.0],
                        [0.125, 0.0, 0.0, 0.0, 0.0, 0.0625, 0.0, 0.0]],
            "logprobs": [0.0, -0.72600917683647, 0.0, -0.645753342417084, -1.4029769464234265,
                         -0.6139443854968071, -1.2619309183865406, -0.8045884180338487, 0.0,
                         -0.6631459703833688, 0.0, -0.6347925441546906, 0.0, -0.7686418679745084,
                         -1.107868098530815, -0.6268829546645204],
            "values": [-0.018790596927246356, 0.0027406166133276677, -0.00019678541007197257,
                       0.003854365425924591, -0.0024087979854845384, -0.033565701440709944,
                       -0.05977690150606063, -0.07069935592884519, -0.018790596927246356,
                       0.0022649523359398235, -0.012967625469801517, -0.0021949406617591156,
                       -0.01055844395728383, -0.0029936360042435196, -0.001423878960522285,
                       -0.00013189868501814646],
            "stats": [0.25, 0.37789469933878383, 0.15628622800054387, 0.5688881391056967,
                      1.1360615906699232],
        },
        {
            "actions": [[1, 0, 2, 0, 2, 3, 1, 0], [3, 3, 2, 0, 2, 2, 1, 3]],
            "rewards": [[0.125, 0.0625, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                        [0.125, 0.0625, 0.0625, 0.0, 0.0, 0.0625, 0.0625, 0.0]],
            "logprobs": [0.0, -0.6680160758539057, -0.6946461689317653, -0.641444393556782,
                         -0.7120052743647233, -0.7564952764219373, 0.0, -0.6418135694120564, 0.0,
                         -0.6993069940432848, -0.6662793493423833, -0.6766267879301262,
                         -0.7067576529141443, -0.7307042536105487, -0.6911295134404898,
                         -1.5744204395817873],
            "values": [-0.014753759580552457, 0.007533582648479837, 0.007697795536431569,
                       0.0040312273261798445, 0.0008920963149897539, 0.0008509443039099519,
                       -0.0201817260389828, -0.008550475797294966, -0.014753759580552457,
                       0.006546203107620433, -0.0053986614613987785, -0.03064584343478064,
                       -0.03270747819255291, -0.04929196836458776, -0.07787666242740578,
                       -0.08541100034256806],
            "stats": [0.28125, 0.4536949551870246, 0.1996742907718847, 0.6057252123704664,
                      1.3604592463946246],
        },
    ],
    "app": [
        {
            "actions": [[0, 3, 0, 1, 1, 0, 1, 3], [0, 0, 1, 0, 0, 1, 0, 0]],
            "rewards": [[0.2857142857142857, 0.0, 0.0, 0.14285714285714285, 0.0,
                        0.14285714285714285, 0.0, 0.0], [0.4, 0.0, 0.2, 0.0, 0.0, 0.2, 0.0, 0.0]],
            "logprobs": [0.0, -1.3724933057168567, 0.0, -1.403813268620614, -1.139527638646144,
                         -1.3888150167121973, -0.7068643826955957, -1.3938892164191894,
                         -1.073027455139866, -0.6716550082408531, -1.118546377750037, 0.0,
                         -1.0928265849541965, -0.7031822268776553, 0.0, -0.6854633649428667],
            "values": [-0.005254691775373115, -0.0110933914401697, -0.010709710712961526,
                       -0.01934405964370691, -0.030841610616447954, -0.02821909387095372,
                       -0.0556178887738913, -0.047531794270950306, -0.005254691775373115,
                       -0.0110933914401697, -0.016795529906734514, -0.03377090496295423,
                       -0.03031542362801861, -0.050989902996102926, -0.07057541542174105,
                       -0.07975317773417889],
            "stats": [0.6857142857142857, 1.7329702181992102, 0.919779974507251, 0.794353289310371,
                      4.072216298495757],
        },
        {
            "actions": [[1, 1, 1, 1, 1, 2, 1, 0], [0, 3, 0, 1, 1, 2, 1, 2]],
            "rewards": [[0.3333333333333333, 0.16666666666666666, 0.0, 0.0, 0.0,
                        0.16666666666666666, 0.0, 0.0], [0.2857142857142857, 0.14285714285714285,
                        0.0, 0.14285714285714285, 0.14285714285714285, 0.0, 0.0, 0.0]],
            "logprobs": [-0.7132641549736602, -1.1312322121803187, -0.7234585593239754,
                         -1.1542428348672888, -0.7277180490706188, -1.0499943770190108,
                         -0.7258894234116037, -1.081116092031182, 0.0, -1.5873360967975865, 0.0,
                         -1.6416184382001078, -0.7123988949828757, -1.0163435174625286,
                         -0.7122689774424852, -1.0134677595998898],
            "values": [-0.0004915010986184254, -0.006225221381427358, -0.04503050791075474,
                       -0.04292069195405167, -0.07399366613596005, -0.06466695005331805,
                       -0.09241813713840756, -0.07945934419538916, -0.0004915010986184254,
                       -0.0012446776288382844, -0.022316488646003354, -0.018826979249300827,
                       -0.048548578878062056, -0.08461323445895089, -0.0996564231397209,
                       -0.11779354893045346],
            "stats": [0.6904761904761905, 1.7104945330593475, 0.8631545451883358,
                      0.8725109592020859, 3.5571743846551307],
        },
    ],
}


def seeded_two_updates(kind, dtype=np.float32):
    model = tiny_model(seed=3, n_actions=4 if kind == "maze" else 7, rounds=2, dtype=dtype)
    config = small_config(env_sampler=maze_sampler if kind == "maze" else app_sampler)
    opt = OptimizerState(lr=config.learning_rate)
    for u in range(2):
        batch = collect_rollouts(model, config.env_sampler, config, round_index=u)
        model, stats = a2c_update(model, batch, config, opt)
        yield batch, stats


def decision_outputs(batch, i):
    """Output i (0: log-probability, 2: value) of every decision of the
    batch, flattened over its episodes."""
    return batch.outputs[i].data[np.concatenate(batch.rows)].tolist()


@pytest.mark.parametrize("kind", ["maze", "app"])
def test_seeded_updates_repeat_the_edge_level_run(kind):
    runs = seeded_two_updates(kind, dtype=np.float64)
    for (batch, stats), want in zip(runs, PARENT_RUNS[kind], strict=True):
        episodes = batch.episodes
        assert [[r.action for r in ep.history.records[1:]] for ep in episodes] == want["actions"]
        assert [ep.rewards() for ep in episodes] == want["rewards"]
        assert_close(decision_outputs(batch, 0), want["logprobs"], 1e-12)
        assert_close(decision_outputs(batch, 2), want["values"], 1e-12)
        assert_close([stats.mean_return, stats.policy_loss, stats.value_loss, stats.entropy,
                      stats.grad_norm], want["stats"], 1e-12)


# The same two updates on the default float32 model. They take the actions
# and earn the rewards of PARENT_RUNS; logprobs, values and stats are pinned
# to 1e-6 relative to max(1, |x|), about eight float32 rounding steps at 1.
FLOAT32_RUNS = {
    "maze": [
        {
            "logprobs": [0.0, -0.72600919008255, 0.0, -0.6457533836364746, -1.4029768705368042,
                         -0.613944411277771, -1.2619309425354004, -0.8045884370803833, 0.0,
                         -0.6631459593772888, 0.0, -0.6347925662994385, 0.0, -0.7686418890953064,
                         -1.1078680753707886, -0.6268829107284546],
            "values": [-0.0187905952334404, 0.002740617375820875, -0.0001967884600162506,
                       0.0038543669506907463, -0.002408800646662712, -0.0335657075047493,
                       -0.0597769096493721, -0.07069936394691467, -0.0187905952334404,
                       0.00226495205424726, -0.012967633083462715, -0.0021949438378214836,
                       -0.010558449663221836, -0.0029936465434730053, -0.001423877663910389,
                       -0.0001318957656621933],
            "stats": [0.25, 0.3778947180451017, 0.15628623962402344, 0.5688881278038025,
                      1.1360616098100227],
        },
        {
            "logprobs": [0.0, -0.6680160760879517, -0.6946461796760559, -0.6414443850517273,
                         -0.7120053172111511, -0.7564952969551086, 0.0, -0.6418135166168213, 0.0,
                         -0.6993070244789124, -0.6662793159484863, -0.6766267418861389,
                         -0.7067577242851257, -0.7307043075561523, -0.6911295652389526,
                         -1.57442045211792],
            "values": [-0.014753760769963264, 0.007533577270805836, 0.0076977889984846115,
                       0.0040312171913683414, 0.0008920761756598949, 0.0008509205654263496,
                       -0.02018178068101406, -0.008550547063350677, -0.014753760769963264,
                       0.006546194665133953, -0.005398713983595371, -0.030645886436104774,
                       -0.03270752727985382, -0.04929201304912567, -0.07787671685218811,
                       -0.08541106432676315],
            "stats": [0.28125, 0.4536951504977117, 0.1996743381023407, 0.6057251691818237,
                      1.360459736649955],
        },
    ],
    "app": [
        {
            "logprobs": [0.0, -1.3724932670593262, 0.0, -1.403813362121582, -1.1395275592803955,
                         -1.388814926147461, -0.7068643569946289, -1.3938891887664795,
                         -1.073027491569519, -0.671654999256134, -1.1185463666915894, 0.0,
                         -1.0928266048431396, -0.7031822204589844, 0.0, -0.6854634284973145],
            "values": [-0.005254692398011684, -0.011093394830822945, -0.010709712281823158,
                       -0.01934405416250229, -0.030841603875160217, -0.02821909263730049,
                       -0.055617883801460266, -0.04753180220723152, -0.005254692398011684,
                       -0.011093394830822945, -0.016795530915260315, -0.03377089649438858,
                       -0.03031543269753456, -0.050989896059036255, -0.07057541608810425,
                       -0.07975317537784576],
            "stats": [0.6857142857142857, 1.7329702265493623, 0.9197800755500793,
                      0.7943533062934875, 4.072216298512987],
        },
        {
            "logprobs": [-0.7132641673088074, -1.1312321424484253, -0.7234585285186768,
                         -1.154242753982544, -0.7277180552482605, -1.0499943494796753,
                         -0.7258894443511963, -1.0811161994934082, 0.0, -1.5873360633850098, 0.0,
                         -1.6416184902191162, -0.7123988270759583, -1.0163434743881226,
                         -0.7122690081596375, -1.0134676694869995],
            "values": [-0.0004915001336485147, -0.006225241348147392, -0.045030541718006134,
                       -0.04292073845863342, -0.07399371266365051, -0.06466701626777649,
                       -0.09241819381713867, -0.07945941388607025, -0.0004915001336485147,
                       -0.0012446771143004298, -0.022316517308354378, -0.018827030435204506,
                       -0.0485486276447773, -0.08461328595876694, -0.09965647011995316,
                       -0.11779360473155975],
            "stats": [0.6904761904761905, 1.710494795142262, 0.8631547093391418,
                      0.8725109100341797, 3.55717504632764],
        },
    ],
}


def assert_close_float32(got, want):
    assert len(got) == len(want)
    assert all(abs(g - w) <= 1e-6 * max(1.0, abs(w)) for g, w in zip(got, want))


@pytest.mark.parametrize("kind", ["maze", "app"])
def test_seeded_float32_updates_repeat_their_run(kind):
    runs = list(seeded_two_updates(kind))
    for (batch, stats), want, parent in zip(runs, FLOAT32_RUNS[kind], PARENT_RUNS[kind],
                                            strict=True):
        episodes = batch.episodes
        assert [[r.action for r in ep.history.records[1:]] for ep in episodes] == parent["actions"]
        assert [ep.rewards() for ep in episodes] == parent["rewards"]
        assert_close_float32(decision_outputs(batch, 0), want["logprobs"])
        assert_close_float32(decision_outputs(batch, 2), want["values"])
        assert_close_float32([stats.mean_return, stats.policy_loss, stats.value_loss,
                              stats.entropy, stats.grad_norm], want["stats"])
    # Before any step, float32 differs from the float64 run by rounding only.
    (batch, _), parent = runs[0], PARENT_RUNS[kind][0]
    assert_close(decision_outputs(batch, 0), parent["logprobs"], 1e-5)
    assert_close(decision_outputs(batch, 2), parent["values"], 1e-5)


@pytest.mark.parametrize("kind", ["maze", "app"])
def test_a_default_model_never_leaves_float32(kind, monkeypatch):
    # Every op output, forward and backward, of one seeded update and of a
    # greedy rollout; then the Adam moments and the stepped parameters.
    dtypes = set()
    emit = core._emit

    def checked_emit(out_data, inputs, backward_fn):
        def checked_backward(g):
            pieces = backward_fn(g)
            dtypes.update(("backward", piece.dtype) for piece in pieces if piece is not None)
            return pieces

        dtypes.add(("forward", out_data.dtype))
        return emit(out_data, inputs, checked_backward)

    monkeypatch.setattr(core, "_emit", checked_emit)
    model = tiny_model(seed=3, n_actions=4 if kind == "maze" else 7, rounds=2)
    config = small_config(env_sampler=maze_sampler if kind == "maze" else app_sampler)
    opt = OptimizerState(lr=config.learning_rate)
    batch = collect_rollouts(model, config.env_sampler, config)
    model, stats = a2c_update(model, batch, config, opt)
    assert not stats.skipped
    f32 = np.dtype(np.float32)
    assert dtypes == {("forward", f32), ("backward", f32)}
    assert {m.dtype for m in (*opt.m.values(), *opt.v.values())} == {f32}
    assert {p.data.dtype for p in model.params.named().values()} == {f32}
    dtypes.clear()
    model.run_episodes([config.env_sampler(np.random.default_rng(s)) for s in range(3)],
                       [0, 1, 2], mode="greedy")
    assert dtypes == {("forward", f32)}


class BanditEnv:
    """Constant 2-node graph with a growing mask: action 0 covers both nodes
    (reward 1), action 1 covers nothing (reward 0)."""

    budget = 1
    reward_normalizer = 2.0

    def observe(self):
        return GraphObservation(
            node_features=np.zeros((2, 1)),
            edges=[(0, 1, 1), (1, 0, 1)],
            coverage=np.array([1.0, 1.0]) if self.done else np.zeros(2),
        )

    def reset(self, rng):
        self.done = False
        return self.observe()

    def step(self, action):
        if action == 0:
            self.done = True
        return 2 if self.done else 0

    def fully_explored(self):
        return self.done

    def action_mask(self):
        return np.array([True, True])


def test_bandit_learns_rewarding_arm_and_entropy_trends_down():
    model = tiny_model(n_actions=2)
    cfg = TrainConfig(seed=9, env_sampler=lambda rng: BanditEnv(), workers=4,
                      episodes_per_worker=1, learning_rate=0.02, total_updates=150,
                      eval_every=0)
    opt_state = OptimizerState(lr=cfg.learning_rate)
    entropies = []
    for u in range(cfg.total_updates):
        batch = collect_rollouts(model, cfg.env_sampler, cfg, round_index=u)
        model, stats = a2c_update(model, batch, cfg, opt_state)
        entropies.append(stats.entropy)
        if u >= 30 and stats.entropy < 0.05:
            break
    env = BanditEnv()
    model.run_episodes([env], [0], mode="greedy")
    assert env.done, "greedy policy failed to pick the rewarding action"
    # 10-update moving average decreases in trend: late window below early.
    kernel = np.ones(10) / 10
    smooth = np.convolve(entropies, kernel, mode="valid")
    assert smooth[-1] < smooth[0] * 0.8


# ------------------------------------------------------------------ protocols


def heldout_envs(n=4):
    return [MazeEnv(generate_maze(4, 4, 0.18, 7001 + i), budget=8) for i in range(n)]


def test_zero_shot_leaves_params_unchanged():
    model = tiny_model()
    cfg = small_config()
    before = model.params.snapshot()
    cov = zero_shot_coverage(model, heldout_envs(), cfg)
    assert 0.0 <= cov <= 1.0
    after = model.params.snapshot()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_update_on_deep_copy_trains_its_own_action_rows():
    model = tiny_model()
    before = model.params.snapshot()
    tuned = copy.deepcopy(model)
    cfg = small_config(workers=1, episodes_per_worker=4)
    batch = collect_rollouts(tuned, maze_sampler, cfg)
    tuned, stats = a2c_update(tuned, batch, cfg, OptimizerState(lr=cfg.learning_rate))
    assert not stats.skipped
    taken = sorted({rec.action for ep in batch.episodes for rec in ep.history.records[1:]})
    name = "hist/actions/table"
    moved = tuned.params[name].data[taken] != before[name][taken]
    assert moved.any(axis=1).all()
    after = model.params.snapshot()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_train_repeats_exactly_with_several_workers():
    runs = []
    for _ in range(2):
        trained, records = train(tiny_model(), small_config(seed=3, workers=4, eval_every=1),
                                 eval_envs=heldout_envs(1))
        runs.append((records, trained.params.snapshot()))
    assert [r["eval_coverage"] is not None for r in runs[0][0]] == [True, True]
    assert runs[0][0] == runs[1][0]
    for name, value in runs[0][1].items():
        assert np.array_equal(value, runs[1][1][name]), name


def test_zero_shot_on_no_environments_names_the_empty_set():
    with pytest.raises(ValueError, match="env_set is empty"):
        zero_shot_coverage(tiny_model(), [], small_config())


def test_train_checkpoint_loads_back_into_a_fresh_model(tmp_path, monkeypatch):
    model = tiny_model()
    saved = []  # (meta, parameters) at each save
    save = model.save

    def recording_save(path, meta=None):
        saved.append((meta, model.params.snapshot()))
        save(path, meta=meta)

    monkeypatch.setattr(model, "save", recording_save)
    cfg = small_config(workers=1, total_updates=3, eval_every=1)
    path = tmp_path / "best.ckpt"
    train(model, cfg, eval_envs=heldout_envs(2), checkpoint_path=str(path))
    assert path.exists() and saved
    meta, params = saved[-1]
    fresh = tiny_model(seed=1)
    assert any(not np.array_equal(fresh.params[k].data, params[k]) for k in params)
    assert fresh.load(str(path)) == meta
    loaded = fresh.params.snapshot()
    assert loaded.keys() == params.keys()
    assert all(np.array_equal(loaded[k], params[k]) for k in params)


@pytest.mark.parametrize("eval_every, with_envs, match", [(1, False, "needs eval_envs"),
                                                      (0, True, "eval_every 0"),
                                                      (4, True, "eval_every 4")],
                         ids=["no_eval_envs", "eval_every_zero", "eval_every_past_the_end"])
def test_train_checkpoint_without_evaluation_raises_before_updating(
        tmp_path, monkeypatch, eval_every, with_envs, match):
    def no_rollouts(*args, **kw):
        raise AssertionError("train collected rollouts before rejecting its arguments")

    monkeypatch.setattr(trainer, "collect_rollouts", no_rollouts)
    cfg = small_config(workers=1, total_updates=3, eval_every=eval_every)
    path = tmp_path / "best.ckpt"
    with pytest.raises(ValueError, match=match):
        train(tiny_model(), cfg, eval_envs=heldout_envs(1) if with_envs else None,
              checkpoint_path=str(path))
    assert not path.exists()


def test_train_writes_records_jsonl(tmp_path):
    model = tiny_model()
    cfg = small_config(workers=1, episodes_per_worker=1, total_updates=3, eval_every=2)
    path = tmp_path / "records.jsonl"
    model, records = train(model, cfg, eval_envs=heldout_envs(2), records_path=str(path))
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == records
    assert len(records) == 3
    assert [r["update"] for r in records] == [1, 2, 3]
    # update 2 evaluated, updates 1 and 3 leave eval_coverage None
    assert records[0]["eval_coverage"] is None and records[2]["eval_coverage"] is None
    assert records[1]["eval_coverage"] is not None
    assert all(r["skip_reason"] == "" for r in records)
