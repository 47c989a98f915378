import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from graphexplore.agents import RandomPolicy
from graphexplore.envs.maze import MazeEnv, generate_maze
from graphexplore.episode import (
    DRAW_BLOCK,
    CoverageRegressionError,
    Draws,
    EpisodeHistory,
    EpisodeStepError,
    HistoryEncoder,
    HistoryEncoderConfig,
    StepRecord,
    compute_reward,
    episode_objective,
    run_episode,
)
from graphexplore.graphnet import (
    GraphNet,
    GraphNetConfig,
    GraphObservation,
    empty_observation,
)
from graphexplore.tensor import ParamSet, Tape, embed_lookup, no_grad, reduce_sum


def obs_of(coverage, edges=(), feature_width=1, current=None):
    """Observation of len(coverage) nodes whose features are zero, except a
    one-hot is-current column 0 at node `current` when one is given."""
    n = len(coverage)
    features = np.zeros((n, feature_width))
    if current is not None:
        features[current, 0] = 1.0
    return GraphObservation(
        node_features=features,
        edges=list(edges),
        coverage=np.asarray(coverage, dtype=np.float64),
    )


def test_compute_reward_basic():
    assert compute_reward(0, 2, 10.0) == pytest.approx(0.2)


def test_compute_reward_no_new_coverage():
    assert compute_reward(2, 2, 3.0) == 0.0


def test_compute_reward_budget_normalizer():
    assert compute_reward(4, 7, 36.0) == pytest.approx(3 / 36)  # 3 new cells visited


def test_compute_reward_rejects_regression():
    with pytest.raises(CoverageRegressionError, match="covered units dropped: 2 -> 1$"):
        compute_reward(2, 1, 2.0)


class DroppingEnv:
    """Reports 2 covered units after its first step and 1 after its second."""

    budget = 3
    reward_normalizer = 2.0

    def reset(self):
        self.counts = iter((2, 1, 1))
        return empty_observation(1)

    def step(self, action):
        return next(self.counts)

    def fully_explored(self):
        return False

    def action_mask(self):
        return None


def test_a_dropping_count_names_its_step():
    # A regression is an env failure like any other: it names the step, so
    # a rollout's caller sees which decision broke the env.
    with pytest.raises(EpisodeStepError, match="step 2: covered units dropped: 2 -> 1$") as info:
        run_episode(DroppingEnv(), lambda env, rng: 0, budget=3, seed=0)
    assert info.value.step == 2
    assert isinstance(info.value.__cause__, CoverageRegressionError)


def history_from_counts(counts, normalizer):
    records = [StepRecord(action=None, covered=counts[0], reward=0.0)]
    for covered in counts[1:]:
        r = compute_reward(records[-1].covered, covered, normalizer)
        records.append(StepRecord(action=0, covered=covered, reward=r))
    return EpisodeHistory(records=records, budget=len(counts), normalizer=normalizer)


def test_objective_full_coverage():
    h = history_from_counts([0, 2, 3], normalizer=3.0)
    assert episode_objective(h) == pytest.approx(1.0)


def test_objective_empty_episode():
    h = EpisodeHistory(
        records=[StepRecord(action=None, covered=0, reward=0.0)],
        budget=0,
        normalizer=5.0,
    )
    assert episode_objective(h) == 0.0


def test_objective_telescopes_on_random_rollouts():
    for seed in range(25):
        env = MazeEnv(generate_maze(5, 5, 0.15, seed=seed), budget=20)
        history, _ = run_episode(env, RandomPolicy(), budget=20, seed=seed)
        total = sum(rec.reward for rec in history.records)
        assert abs(total - episode_objective(history)) < 1e-9
        assert all(0.0 <= rec.reward <= 1.0 for rec in history.records)
        assert len(history.records) <= history.budget + 1


def test_run_episode_budget_zero():
    env = MazeEnv(generate_maze(3, 3, 0.0, seed=1), budget=0)
    history, traj = run_episode(env, RandomPolicy(), budget=0, seed=0)
    assert len(history.records) == 1
    assert history.records[0].action is None
    assert history.records[0].covered == 0
    assert episode_objective(history) == 0.0


def test_run_episode_single_node_env():
    # The lone cell is covered by arrival, so the episode ends at t=0 without
    # ever consulting the policy (there is no valid action to take), and with
    # nothing discovered its coverage, like its reward sum, is 0.
    env = MazeEnv(generate_maze(1, 1, 0.0, seed=0), budget=5)
    history, traj = run_episode(env, RandomPolicy(), budget=5, seed=0)
    assert len(history.records) == 1
    assert traj.terminated_early and traj.final_coverage == 0.0


def test_run_episode_seed_determinism():
    maze = generate_maze(6, 6, 0.1, seed=9)
    runs = []
    for _ in range(2):
        env = MazeEnv(maze, budget=36)
        history, _ = run_episode(env, RandomPolicy(), budget=36, seed=123)
        runs.append([rec.action for rec in history.records[1:]])
    assert runs[0] == runs[1]


# The bounds the walkers and world policies draw below, numpy's edge cases
# (2**32 takes a raw 32-bit half; 2**63, above int64's largest value, is the
# largest bound it accepts), and two bounds that reject a quarter of their
# 32-bit halves or 64-bit words.
DRAW_BOUNDS = (1, *range(2, 13), 2**32, 2**32 + 1, 2**62, 2**63 - 1, 2**63,
               3 * 2**30, 3 * 2**61)


@given(seed=st.integers(0, 2**63), bounds=st.lists(st.sampled_from(DRAW_BOUNDS),
                                                   min_size=4 * DRAW_BLOCK))
def test_draws_give_numpy_bounded_integers_draw_for_draw(seed, bounds):
    # Each n > 1 takes at least half a word: more than a block in all, so a
    # refill falls inside the sequence.
    assume(sum(n > 1 for n in bounds) > 2 * DRAW_BLOCK)
    draws, rng = Draws(seed), np.random.default_rng(seed)
    assert [draws.below(n) for n in bounds] == [int(rng.integers(n)) for n in bounds]


@pytest.mark.parametrize("n", [0, -1, 2**63 + 1])
def test_draws_reject_bounds_numpy_rejects(n):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(n)
    with pytest.raises(ValueError, match=f"got {n}$"):
        Draws(0).below(n)


# ------------------------------------------------------------ history encoder


def encoder_fixture(seed=0, dtype=np.float32):
    params = ParamSet(seed=seed, dtype=dtype)
    net = GraphNet(params, "enc", GraphNetConfig(d=6, rounds=1, feature_width=1))
    config = HistoryEncoderConfig(recurrent_width=5, action_width=3, action_vocab=4)
    enc = HistoryEncoder(params, "hist", config, net)
    return params, net, enc


def short_history(n_steps=3):
    """(observations, history) of a 3-node graph covered one node a step."""
    masks = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]][: n_steps + 1]
    records = [StepRecord(action=None, covered=0, reward=0.0)]
    records += [StepRecord(action=i % 4, covered=i, reward=0.1) for i in range(1, len(masks))]
    return [obs_of(m) for m in masks], EpisodeHistory(records=records, budget=8, normalizer=3.0)


def final_encoding(enc, observations, records):
    """F of the whole history, as a rollout computes it: one summaries call
    for its records, folded one (1, w) row at a time."""
    summaries = enc.summaries(observations, records)
    state = enc.init_state(1)
    for t in range(len(records)):
        F, state = enc.fold(state, embed_lookup(summaries, [t]))
    return F.data[0]


def test_autoregressive_zero_weights_depend_only_on_bias():
    params, net, enc = encoder_fixture()
    for name, p in params.named().items():
        if name.startswith("hist/fold/"):
            p.data[:] = 0.0
    with no_grad():
        observations, h = short_history(n_steps=1)
        a = final_encoding(enc, observations, h.records)
        observations, h = short_history(n_steps=3)
        b = final_encoding(enc, observations, h.records)
    assert np.allclose(a, b)


def test_autoregressive_consumes_every_record():
    params, net, enc = encoder_fixture(seed=3)
    observations, full = short_history(n_steps=3)
    with no_grad():
        a = final_encoding(enc, observations, full.records)
        b = final_encoding(enc, observations[:-1], full.records[:-1])
    assert not np.allclose(a, b)


def test_encode_matches_incremental_fold():
    # The graphs carry a one-hot is-current column, so the GraphNet encodes
    # nonzero features. The batched encode of every record and the single
    # encodes take different BLAS product shapes: in float32 they differ in
    # the last bit, so the check runs in float64 within 1e-12.
    params, net, enc = encoder_fixture(seed=4, dtype=np.float64)
    observations, h = short_history(n_steps=3)
    for t, obs in enumerate(observations):
        obs.node_features[min(t, 2), 0] = 1.0
    with no_grad():
        full = final_encoding(enc, observations, h.records)
        state = enc.init_state(1)
        for obs, rec in zip(observations, h.records):
            f, state = enc.fold(state, enc.summaries([obs], [rec]))
    assert np.allclose(full, f.data[0], atol=1e-12)


def test_fresh_encoder_output_width():
    params, net, _ = encoder_fixture(seed=5)
    config = HistoryEncoderConfig(
        temporal_mode="autoregressive",
        conditioning="graph",
        recurrent_width=5,
        action_width=3,
        action_vocab=4,
    )
    observations, h = short_history(n_steps=2)
    with no_grad():
        out = final_encoding(HistoryEncoder(params, "hist", config, net), observations, h.records)
    assert out.shape == (5,)


def varied_steps(seed):
    """(observation, record) pairs of an episode on graphs of varied shape."""
    rng = np.random.default_rng(seed)
    steps = [(empty_observation(1), StepRecord(action=None, covered=0, reward=0.0))]
    for i, n in enumerate((3, 1, 5, 4)):
        edges = [(u, v, int(rng.integers(1, 3))) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.5]
        obs = obs_of((rng.random(n) < 0.5).astype(float) if i != 1 else [0.0], edges=edges)
        obs.node_features = rng.normal(size=(n, 1))
        rec = StepRecord(action=int(rng.integers(4)), covered=int(obs.coverage.sum()),
                         reward=0.1 * i)
        steps.append((obs, rec))
    return steps


def summaries_of(enc, steps):
    """enc.summaries of (observation, record) pairs."""
    return enc.summaries([obs for obs, _ in steps], [rec for _, rec in steps])


def test_summaries_rows_equal_per_record_summaries():
    _, _, enc = encoder_fixture(seed=6, dtype=np.float64)
    steps = varied_steps(seed=6)
    with no_grad():
        batched = summaries_of(enc, steps).data
        single = np.concatenate([summaries_of(enc, [step]).data for step in steps])
    assert batched.shape == (len(steps), 6 + 3)  # d + action_width
    assert np.allclose(batched, single, rtol=0.0, atol=1e-12)


def test_prefix_encodings_rows_equal_per_record_fold():
    # The encoding of every prefix of several sequences, computed as
    # PolicyModel.run_episodes computes it: the sequences fold as rows of one
    # state, one summaries call per step, and a finished sequence's rows are
    # dropped by a gather.
    _, _, enc = encoder_fixture(seed=7)
    sequences = [varied_steps(seed)[:n] for seed, n in ((7, 4), (8, 1), (9, 2))]
    lockstep = {}
    with no_grad():
        live, state = [0, 1, 2], enc.init_state(3)
        for t in range(4):
            F, state = enc.fold(state, summaries_of(enc, [sequences[e][t] for e in live]))
            lockstep.update(((e, t), F.data[row]) for row, e in enumerate(live))
            kept = [row for row, e in enumerate(live) if t + 1 < len(sequences[e])]
            live = [live[row] for row in kept]
            state = embed_lookup(state, kept)
        assert not live
        reference = {}
        for e, seq in enumerate(sequences):
            state = enc.init_state(1)
            for t, step in enumerate(seq):
                f, state = enc.fold(state, summaries_of(enc, [step]))
                reference[e, t] = f.data[0]
    assert lockstep.keys() == reference.keys() and len(reference) == 4 + 1 + 2
    for key, want in reference.items():
        assert lockstep[key].shape == (enc.output_width(),)
        assert np.allclose(lockstep[key], want, rtol=0.0, atol=1e-12), key


def test_the_history_gradient_reaches_every_graph_net_parameter():
    # Two lockstep steps of 3 rows, the first on an empty graph too.
    params, _, enc = encoder_fixture(seed=8, dtype=np.float64)
    steps = varied_steps(seed=8)
    with Tape() as tape:
        state, loss = enc.init_state(3), 0.0
        for step in (steps[0:3], steps[1:4]):
            F, state = enc.fold(state, summaries_of(enc, step))
            loss = reduce_sum(F) + loss
    assert F.data.shape == (3, enc.output_width())
    assert np.all(np.isfinite(F.data))
    grads = params.gradients(tape, loss)
    for name, g in grads.items():
        if name.startswith("enc/"):
            assert np.any(g.data != 0.0), name


def test_history_encoder_rejects_bad_enums():
    # Only graph x autoregressive is kept; the error names the commit that
    # holds the deleted arms.
    with pytest.raises(ValueError, match=re.escape(
            "temporal_mode 'last_step': only 'autoregressive' is kept; "
            "restore the other arms from commit 8bb99df")):
        HistoryEncoderConfig(temporal_mode="last_step", action_vocab=4)
    with pytest.raises(ValueError, match=r"conditioning 'uncond': only 'graph' is kept; .* 8bb99df$"):
        HistoryEncoderConfig(conditioning="uncond", action_vocab=4)
    with pytest.raises(ValueError, match="action_vocab"):
        HistoryEncoderConfig(action_vocab=0)


def test_history_encoder_config_requires_the_action_vocabulary():
    # A default of 0 once failed its own check, so the bare config could not
    # be built; the field is required, and leaving it out names it.
    with pytest.raises(TypeError, match="action_vocab"):
        HistoryEncoderConfig()


@pytest.mark.parametrize("action", [-1, 4, 5])
def test_action_rows_reject_actions_outside_the_vocabulary(action):
    # action_vocab is 4, so row 4 of the table is the null action: action 4
    # must not read it, -1 must not wrap onto it, and 5 names its cause.
    _, _, enc = encoder_fixture()
    records = [StepRecord(None, 0, 0.0), StepRecord(action, 1, 0.0)]
    assert enc.action_rows(records[:1]).shape == (1, 3)
    with pytest.raises(ValueError, match=rf"action {action} outside \[0, 4\)"):
        enc.action_rows(records)
