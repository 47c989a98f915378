import re

import numpy as np
import pytest

from graphexplore.agents import RandomPolicy
from graphexplore.envs.maze import MazeEnv, generate_maze
from graphexplore.episode import (
    CONDITIONING,
    TEMPORAL_MODES,
    CoverageRegressionError,
    EpisodeHistory,
    HistoryEncoder,
    HistoryEncoderConfig,
    StepRecord,
    TrajectoryBatch,
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
    prev = obs_of([0] * 10)
    nxt = obs_of([1, 1] + [0] * 8)
    assert compute_reward(prev, nxt, 10.0) == pytest.approx(0.2)


def test_compute_reward_no_new_coverage():
    a = obs_of([1, 0, 1])
    assert compute_reward(a, a, 3.0) == 0.0


def test_compute_reward_budget_normalizer():
    prev = obs_of([1] * 4)
    nxt = obs_of([1] * 4 + [1, 1, 1])  # 3 new cells discovered and visited
    assert compute_reward(prev, nxt, 36.0) == pytest.approx(3 / 36)


def test_compute_reward_rejects_regression():
    with pytest.raises(CoverageRegressionError):
        compute_reward(obs_of([1, 1]), obs_of([1, 0]), 2.0)
    with pytest.raises(CoverageRegressionError):
        compute_reward(obs_of([1, 1]), obs_of([1]), 2.0)


def test_reward_and_history_checks_name_the_first_regressed_node():
    # compute_reward runs at every step of every episode, so it is the one
    # place a history's growth invariant is checked.
    prev, nxt = obs_of([1, 0, 1, 1]), obs_of([1, 0, 0, 0, 1])
    with pytest.raises(CoverageRegressionError, match="coverage regressed at node 2$"):
        compute_reward(prev, nxt, 5.0)
    with pytest.raises(CoverageRegressionError, match="node set shrank: 4 -> 2"):
        compute_reward(prev, obs_of([1, 1]), 5.0)


def history_from_masks(masks, normalizer, budget=None):
    records = [StepRecord(action=None, observation=obs_of(masks[0]), reward=0.0)]
    for i in range(1, len(masks)):
        r = compute_reward(records[-1].observation, obs_of(masks[i]), normalizer)
        records.append(StepRecord(action=0, observation=obs_of(masks[i]), reward=r))
    return EpisodeHistory(records=records, budget=budget or len(masks), normalizer=normalizer)


def test_objective_full_coverage():
    h = history_from_masks([[0, 0, 0], [1, 1, 0], [1, 1, 1]], normalizer=3.0)
    assert episode_objective(h) == pytest.approx(1.0)


def test_objective_empty_episode():
    h = EpisodeHistory(
        records=[StepRecord(action=None, observation=empty_observation(1), reward=0.0)],
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
    assert history.records[0].observation.node_count == 0
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


def test_trajectory_batch_validation():
    env = MazeEnv(generate_maze(4, 4, 0.1, seed=2), budget=10)
    episodes = []
    for seed in range(3):
        _, traj = run_episode(env, RandomPolicy(), budget=10, seed=seed)
        episodes.append(traj)
    batch = TrajectoryBatch(episodes=episodes)
    assert batch.validate() is batch
    episodes[1].history.records[1].reward += 0.5
    with pytest.raises(ValueError, match="telescope"):
        batch.validate()


# ------------------------------------------------------------ history encoder


def encoder_fixture(temporal="autoregressive", conditioning="graph", seed=0, dtype=np.float32):
    params = ParamSet(seed=seed, dtype=dtype)
    net = GraphNet(params, "enc", GraphNetConfig(d=6, rounds=1, feature_width=1))
    config = HistoryEncoderConfig(
        temporal_mode=temporal,
        conditioning=conditioning,
        recurrent_width=5,
        action_width=3,
        action_vocab=4,
    )
    enc = HistoryEncoder(params, "hist", config, net)
    return params, net, enc


def short_history(n_steps=3):
    masks = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]][: n_steps + 1]
    records = [StepRecord(action=None, observation=obs_of(masks[0]), reward=0.0)]
    for i in range(1, len(masks)):
        records.append(
            StepRecord(action=i % 4, observation=obs_of(masks[i]), reward=0.1)
        )
    return EpisodeHistory(records=records, budget=8, normalizer=3.0)


def final_encoding(enc, history):
    """F of the whole history, as a rollout computes it: one summaries call
    for its records, folded one (1, w) row at a time."""
    records = history.records
    summaries = enc.summaries(records)
    state = enc.init_state(1)
    for t in range(len(records)):
        F, state = enc.fold(state, embed_lookup(summaries, [t]))
    return F.data[0]


def test_last_step_mode_t1_equals_step_summary():
    # The graphs carry a one-hot is-current column, so the GraphNet encodes
    # nonzero features. The batched encode of both records and the single
    # encode of the last take different BLAS product shapes: in float32 they
    # differ in the last bit, so the check runs in float64 within 1e-12.
    params, net, enc = encoder_fixture(temporal="last_step", dtype=np.float64)
    records = [StepRecord(None, obs_of([0, 0, 0], current=0), 0.0),
               StepRecord(1, obs_of([1, 0, 0], current=0), 0.1)]
    h = EpisodeHistory(records=records, budget=8, normalizer=3.0)
    with no_grad():
        out = final_encoding(enc, h)
        summ = enc.summaries([h.records[-1]])
    assert np.allclose(out, summ.data[0], rtol=0.0, atol=1e-12)


def test_autoregressive_zero_weights_depend_only_on_bias():
    params, net, enc = encoder_fixture()
    for name, p in params.named().items():
        if name.startswith("hist/fold/"):
            p.data[:] = 0.0
    with no_grad():
        a = final_encoding(enc, short_history(n_steps=1))
        b = final_encoding(enc, short_history(n_steps=3))
    assert np.allclose(a, b)


def test_autoregressive_consumes_every_record():
    params, net, enc = encoder_fixture(seed=3)
    full = short_history(n_steps=3)
    truncated = EpisodeHistory(records=full.records[:-1], budget=8, normalizer=3.0)
    with no_grad():
        a = final_encoding(enc, full)
        b = final_encoding(enc, truncated)
    assert not np.allclose(a, b)


def test_encode_matches_incremental_fold():
    # In float64 on nonzero node features (a one-hot is-current column), as
    # in test_last_step_mode_t1_equals_step_summary.
    params, net, enc = encoder_fixture(seed=4, dtype=np.float64)
    h = short_history(n_steps=3)
    for t, rec in enumerate(h.records):
        rec.observation.node_features[min(t, 2), 0] = 1.0
    with no_grad():
        full = final_encoding(enc, h)
        state = enc.init_state(1)
        for rec in h.records:
            f, state = enc.fold(state, enc.summaries([rec]))
    assert np.allclose(full, f.data[0], atol=1e-12)


def test_envcond_appends_reward_and_zeroes_graph():
    params, net, enc = encoder_fixture(conditioning="envcond", temporal="last_step")
    rec = StepRecord(action=1, observation=obs_of([1, 0, 1]), reward=0.25)
    with no_grad():
        s = enc.summaries([rec])
    assert s.data.shape == (1, 6 + 3 + 1)
    assert np.all(s.data[0, :6] == 0.0)
    assert s.data[0, -1] == 0.25


def test_fresh_encoder_output_width():
    params, net, _ = encoder_fixture(seed=5)
    config = HistoryEncoderConfig(
        temporal_mode="autoregressive",
        conditioning="graph",
        recurrent_width=5,
        action_width=3,
        action_vocab=4,
    )
    h = short_history(n_steps=2)
    with no_grad():
        out = final_encoding(HistoryEncoder(params, "hist", config, net), h)
    assert out.shape == (5,)


def varied_records(seed):
    rng = np.random.default_rng(seed)
    records = [StepRecord(action=None, observation=empty_observation(1), reward=0.0)]
    for i, n in enumerate((3, 1, 5, 4)):
        edges = [(u, v, int(rng.integers(1, 3))) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.5]
        obs = obs_of((rng.random(n) < 0.5).astype(float) if i != 1 else [0.0], edges=edges)
        obs.node_features = rng.normal(size=(n, 1))
        records.append(StepRecord(action=int(rng.integers(4)), observation=obs, reward=0.1 * i))
    return records


@pytest.mark.parametrize("conditioning", CONDITIONING)
def test_summaries_rows_equal_per_record_summaries(conditioning):
    _, _, enc = encoder_fixture(temporal="last_step", conditioning=conditioning, seed=6,
                                dtype=np.float64)
    records = varied_records(seed=6)
    with no_grad():
        batched = enc.summaries(records).data
        single = np.concatenate([enc.summaries([r]).data for r in records])
    assert batched.shape == (len(records), enc.summary_width())
    assert np.allclose(batched, single, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("temporal", ["autoregressive", "last_step"])
@pytest.mark.parametrize("conditioning", CONDITIONING)
def test_prefix_encodings_rows_equal_per_record_fold(temporal, conditioning):
    # The encoding of every prefix of several sequences, computed as
    # PolicyModel.run_episodes computes it: the sequences fold as rows of one
    # state, one summaries call per step, and a finished sequence's rows are
    # dropped by a gather.
    _, _, enc = encoder_fixture(temporal=temporal, conditioning=conditioning, seed=7)
    sequences = [varied_records(seed)[:n] for seed, n in ((7, 4), (8, 1), (9, 2))]
    lockstep = {}
    with no_grad():
        live, state = [0, 1, 2], enc.init_state(3)
        for t in range(4):
            F, state = enc.fold(state, enc.summaries([sequences[e][t] for e in live]))
            lockstep.update(((e, t), F.data[row]) for row, e in enumerate(live))
            kept = [row for row, e in enumerate(live) if t + 1 < len(sequences[e])]
            live = [live[row] for row in kept]
            if state is not None:
                state = embed_lookup(state, kept)
        assert not live
        reference = {}
        for e, seq in enumerate(sequences):
            state = enc.init_state(1)
            for t, rec in enumerate(seq):
                f, state = enc.fold(state, enc.summaries([rec]))
                reference[e, t] = f.data[0]
    assert lockstep.keys() == reference.keys() and len(reference) == 4 + 1 + 2
    for key, want in reference.items():
        assert lockstep[key].shape == (enc.output_width(),)
        assert np.allclose(lockstep[key], want, rtol=0.0, atol=1e-12), key


@pytest.mark.parametrize("temporal", TEMPORAL_MODES)
@pytest.mark.parametrize("conditioning", CONDITIONING)
def test_conditioning_reads_only_its_own_parameters(temporal, conditioning):
    # Two lockstep steps of 3 rows, the first on an empty graph too: only the
    # graph arm reaches the GraphNet.
    params, _, enc = encoder_fixture(temporal=temporal, conditioning=conditioning, seed=8,
                                     dtype=np.float64)
    records = varied_records(seed=8)
    with Tape() as tape:
        state, loss = enc.init_state(3), 0.0
        for step in (records[0:3], records[1:4]):
            F, state = enc.fold(state, enc.summaries(step))
            loss = reduce_sum(F) + loss
    assert F.data.shape == (3, enc.output_width())
    assert np.all(np.isfinite(F.data))
    grads = params.gradients(tape, loss)
    for name, g in grads.items():
        if name.startswith("enc/"):
            reached = conditioning == "graph"
            assert np.any(g.data != 0.0) if reached else not np.any(g.data), name


def test_history_encoder_rejects_bad_enums():
    params, net, _ = encoder_fixture()
    with pytest.raises(ValueError, match="temporal_mode"):
        HistoryEncoderConfig(temporal_mode="sometimes").validate()
    # The error lists the arms that validate.
    with pytest.raises(ValueError, match=re.escape(
            "conditioning 'bow' not in ('graph', 'uncond', 'envcond')")):
        HistoryEncoderConfig(conditioning="bow").validate()
    with pytest.raises(ValueError, match="action_vocab"):
        HistoryEncoderConfig(action_vocab=0).validate()


@pytest.mark.parametrize("action", [-1, 4, 5])
def test_action_rows_reject_actions_outside_the_vocabulary(action):
    # action_vocab is 4, so row 4 of the table is the null action: action 4
    # must not read it, -1 must not wrap onto it, and 5 names its cause.
    _, _, enc = encoder_fixture()
    records = [StepRecord(None, obs_of([0]), 0.0), StepRecord(action, obs_of([1]), 0.0)]
    assert enc.action_rows(records[:1]).shape == (1, 3)
    with pytest.raises(ValueError, match=rf"action {action} outside \[0, 4\)"):
        enc.action_rows(records)
