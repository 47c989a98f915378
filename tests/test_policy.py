import numpy as np
import pytest

from graphexplore.agents.policy import (
    CategoricalHead,
    PolicyModel,
    ValueHead,
    masked_log_probs,
    sample_index,
)
from graphexplore.envs.appgraph import AppEnv, TransitionGraph
from graphexplore.envs.maze import MazeEnv, generate_maze
from graphexplore.episode import (
    HistoryEncoder,
    HistoryEncoderConfig,
    episode_objective,
)
from graphexplore.graphnet import GraphNet, GraphNetConfig
from graphexplore.tensor import ParamSet, Tape, Tensor, no_grad
from reference import episode_outputs, replayed_inputs


def rng_of(seed):
    return np.random.default_rng(seed)


def zero_params(params, prefix):
    for name, p in params.named().items():
        if name.startswith(prefix):
            p.data[:] = 0.0


# ------------------------------------------------------------------- masking


def test_masked_uniform_two_of_four():
    logits = Tensor(np.zeros(4))
    log_probs, probs = masked_log_probs(logits, [True, False, True, False])
    assert probs.data[0] == pytest.approx(0.5)
    assert probs.data[2] == pytest.approx(0.5)
    assert probs.data[1] == 0.0  # exactly zero, not merely tiny
    assert probs.data[3] == 0.0


def test_masked_probs_sum_to_one_and_entropy_nonneg():
    r = rng_of(0)
    for _ in range(50):
        n = int(r.integers(2, 9))
        logits = Tensor(r.normal(size=n) * 5)
        mask = r.random(n) < 0.6
        if not mask.any():
            mask[int(r.integers(n))] = True
        log_probs, probs = masked_log_probs(logits, mask)
        assert abs(probs.data.sum() - 1.0) < 1e-6
        ent = -(probs.data * log_probs.data).sum()
        assert ent >= -1e-12
        assert np.all(probs.data[~mask] == 0.0)


def test_all_masked_raises():
    with pytest.raises(ValueError, match="masked"):
        masked_log_probs(Tensor(np.zeros(3)), [False, False, False])


def test_sample_index_reproducible_and_in_support():
    probs = np.array([0.5, 0.0, 0.5, 0.0])
    seen = set()
    for seed in range(100):
        i = sample_index(probs, rng_of(seed))
        assert i == sample_index(probs, rng_of(seed))
        seen.add(i)
    assert seen == {0, 2}


class StubRng:
    """Draws a fixed u from random()."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sample_index_never_picks_a_masked_last_action():
    # The unmasked probabilities sum to 1 - 1ulp: a draw in that gap used to
    # pick the masked last action.
    probs = np.array([0.25, np.nextafter(0.75, 0.0), 0.0, 0.0])
    assert np.cumsum(probs)[-1] < 1.0
    assert sample_index(probs, StubRng(np.nextafter(1.0, 0.0))) == 1
    rng = rng_of(0)
    for _ in range(200):
        mask = np.array([True, True, True, False])
        _, p = masked_log_probs(Tensor(rng.normal(size=4) * 3.0), mask)
        i = sample_index(p.data, StubRng(np.nextafter(1.0, 0.0)))
        assert p.data[i] > 0.0


# --------------------------------------------------------- categorical head


def test_categorical_uniform_after_zeroing():
    params = ParamSet(seed=1)
    head = CategoricalHead(params, "policy", in_width=6, n_actions=4)
    zero_params(params, "policy")
    F = Tensor(rng_of(0).normal(size=(1, 6)))
    [action], log_prob, _ = head.act(F, [rng_of(1)], masks=[[True, False, True, False]])
    assert action in (0, 2)
    assert log_prob.data[0] == pytest.approx(np.log(0.5))


def test_categorical_sampling_respects_mask():
    params = ParamSet(seed=2)
    head = CategoricalHead(params, "policy", in_width=4, n_actions=4)
    F = Tensor(rng_of(3).normal(size=(1, 4)))
    r = rng_of(4)
    actions = {head.act(F, [r], masks=[[False, True, False, True]])[0][0]
               for _ in range(200)}
    assert actions <= {1, 3}


def test_categorical_rows_draw_from_their_own_rng_and_mask():
    params = ParamSet(seed=2)
    head = CategoricalHead(params, "policy", in_width=4, n_actions=4)
    F = Tensor(rng_of(3).normal(size=(3, 4)))
    masks = [[True, True, False, False], None, [False, False, False, True]]
    actions, log_probs, entropies = head.act(F, [rng_of(10 + k) for k in range(3)], masks=masks)
    assert log_probs.shape == entropies.shape == (3,)
    for k, action in enumerate(actions):
        [alone], log_prob, entropy = head.act(Tensor(F.data[k:k + 1]), [rng_of(10 + k)],
                                              masks=[masks[k]])
        assert action == alone
        assert abs(log_probs.data[k] - log_prob.data[0]) <= 1e-12
        assert abs(entropies.data[k] - entropy.data[0]) <= 1e-12
    assert actions[0] in (0, 1) and actions[2] == 3


def test_categorical_greedy_deterministic():
    params = ParamSet(seed=3)
    head = CategoricalHead(params, "policy", in_width=5, n_actions=6)
    F = Tensor(rng_of(5).normal(size=(1, 5)))
    outs = [head.act(F, [rng_of(s)], mode="greedy") for s in range(5)]
    assert len({actions[0] for actions, _, _ in outs}) == 1
    assert len({float(log_prob.data[0]) for _, log_prob, _ in outs}) == 1


def test_categorical_score_matches_act():
    params = ParamSet(seed=4)
    head = CategoricalHead(params, "policy", in_width=5, n_actions=4)
    F = Tensor(rng_of(6).normal(size=(1, 5)))
    mask = [True, True, False, True]
    for seed in range(10):
        [action], act_lp, act_ent = head.act(F, [rng_of(seed)], masks=[mask])
        with no_grad():
            lp, ent = head.score(F, [action], masks=[mask])
        assert lp.data.shape == ent.data.shape == (1,)
        assert abs(lp.data[0] - act_lp.data[0]) < 1e-9
        assert abs(ent.data[0] - act_ent.data[0]) < 1e-9
        assert act_lp.data[0] <= 0.0
        assert act_ent.data[0] >= 0.0


# ------------------------------------------------------- learned rollouts


def make_learned_model(params):
    net = GraphNet(params, "gnn", GraphNetConfig(d=8, rounds=2, feature_width=1))
    enc_cfg = HistoryEncoderConfig(
        temporal_mode="autoregressive",
        conditioning="graph",
        recurrent_width=10,
        action_width=4,
        action_vocab=4,
    )
    encoder = HistoryEncoder(params, "hist", enc_cfg, net)
    width = encoder.output_width()
    head = CategoricalHead(params, "head", width, 4)
    value = ValueHead(params, "value", width)
    return PolicyModel(params, encoder, head, value)


def test_run_episodes_runs_episode_with_masking():
    params = ParamSet(seed=21)
    model = make_learned_model(params)
    maze = generate_maze(4, 4, 0.1, seed=3)
    env = MazeEnv(maze, budget=12)
    batch = model.run_episodes([env], [5])
    [traj] = batch.episodes
    history = traj.history
    n_steps = len(history.records) - 1
    assert n_steps >= 1
    logprobs, entropies, values = episode_outputs(batch, 0)
    assert len(logprobs) == len(entropies) == len(values) == n_steps
    assert all(lp <= 0.0 for lp in logprobs)
    assert all(ent >= 0.0 for ent in entropies)
    assert episode_objective(history) > 0.0


def test_run_episodes_keeps_the_policy_outputs_of_each_decision():
    model = make_learned_model(ParamSet(seed=25))
    envs = [MazeEnv(generate_maze(4, 4, 0.1, seed=s), budget=6) for s in (2, 3)]
    seeds = [3, 4]
    with Tape():
        batch = model.run_episodes(envs, seeds)
    assert all(t.requires_grad for t in batch.outputs)
    # The episodes' rows partition the rows of the stacked outputs.
    rows = np.concatenate(batch.rows)
    assert sorted(rows.tolist()) == list(range(len(batch.outputs[0].data)))
    for env, seed, traj, own in zip(envs, seeds, batch.episodes, batch.rows):
        records = traj.history.records[1:]
        assert records and len(own) == len(records)
        _, masks = replayed_inputs(env, seed, traj)
        assert all(mask[rec.action] for mask, rec in zip(masks, records))


class CountingMaze(MazeEnv):
    """A maze env that counts its observe() calls."""

    observed = 0

    def observe(self):
        self.observed += 1
        return super().observe()


def test_run_episodes_observes_once_per_decision_of_an_episode_that_goes_on():
    # The newest observation feeds the next decision, so an episode is
    # observed after each step but its last; an episode with no decision
    # is never observed (reset hands over the first observation).
    model = make_learned_model(ParamSet(seed=27))
    envs = [CountingMaze(generate_maze(4, 4, 0.1, seed=s), budget=8) for s in (2, 3)]
    envs += [CountingMaze(generate_maze(2, 2, 1.0, 3), budget=40),  # covered early
             CountingMaze(generate_maze(1, 1, 0.0, 0), budget=5)]  # no decision
    batch = model.run_episodes(envs, [1, 2, 3, 4])
    decisions = [len(traj.history.records) - 1 for traj in batch.episodes]
    assert batch.episodes[2].terminated_early and decisions[3] == 0
    assert [env.observed for env in envs] == [max(n - 1, 0) for n in decisions]


def test_run_episodes_seed_determinism():
    runs = []
    for _ in range(2):
        params = ParamSet(seed=22)
        model = make_learned_model(params)
        env = MazeEnv(generate_maze(4, 4, 0.1, seed=4), budget=10)
        [traj] = model.run_episodes([env], [9]).episodes
        runs.append([r.action for r in traj.history.records[1:]])
    assert runs[0] == runs[1]


def test_run_episodes_reusable_across_calls():
    params = ParamSet(seed=23)
    model = make_learned_model(params)
    env = MazeEnv(generate_maze(3, 3, 0.0, seed=6), budget=6)
    [t1] = model.run_episodes([env], [1]).episodes
    [t2] = model.run_episodes([env], [1]).episodes
    assert [r.action for r in t1.history.records[1:]] == [r.action for r in t2.history.records[1:]]


def test_run_episodes_rejects_a_shared_env():
    model = make_learned_model(ParamSet(seed=24))
    envs = [MazeEnv(generate_maze(3, 3, 0.0, seed=s), budget=6) for s in range(2)]
    with pytest.raises(ValueError, match="envs 0 and 2 are the same object"):
        model.run_episodes([envs[0], envs[1], envs[0]], [1, 2, 3])
    with pytest.raises(ValueError, match="2 envs but 1 seeds"):
        model.run_episodes(envs, [1])


def test_run_episodes_names_a_mask_narrower_than_the_head():
    # Without num_actions an AppEnv's mask is as wide as the graph's largest
    # out-degree (1 here), not the head's 4 actions.
    graph = TransitionGraph(screens=("a", "b"), transitions={("a", "go"): "b", ("b", "back"): "a"},
                            start="a")
    model = make_learned_model(ParamSet(seed=26))
    with pytest.raises(ValueError, match="action mask width 1 does not match the head width 4"):
        model.run_episodes([AppEnv(graph, budget=3)], [0])
