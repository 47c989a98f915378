"""Coverage-episode machinery: rewards, objectives, interaction histories, and
the history encoder F(h_t) that turns a history into the policy's input
vector.

Episode layout: record 0 is always (null action, 0 covered units, reward 0).
In environments that start with an empty belief graph, the first decision is
made on that empty graph via the encoder's learned empty-graph vector; the
start position's coverage is then counted in the first step's reward, which
keeps the reward sum exactly equal to the coverage objective.

The env contract. MazeEnv, AppEnv and KarelEnv each wrap one fixed instance;
training gets a fresh env per episode from TrainConfig.env_sampler. The
episode loop (run_episode, PolicyModel.run_episodes) reads:
- budget, and reward_normalizer: the instance's unit count (maze cells, app
  screens, Karel coverage units; at least 1), over which rewards and
  coverage are counted;
- reset(rng), returning the initial GraphObservation, and step(action),
  returning the covered-unit count as an int, the one figure rewards read;
- observe(): the current GraphObservation, read only by the learned agent
  (PolicyModel.run_episodes), after each step of an episode that goes on;
- action_mask(): (num_actions,) bool, or None when every action is allowed
  (Karel, whose actions are input worlds);
- fully_explored().
The walkers (agents.baselines) also read three hooks, which maze and app have:
- current_node(): the stable node id of the agent's position;
- outgoing(): [(action, destination id or None when unknown)] in ascending
  action order, listing exactly the actions action_mask() allows;
- reverse_action(a): the action undoing the latest step a, or None.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Embedding, LSTMCell, concat, slice_


@dataclass(slots=True)
class StepRecord:
    """One history entry (x_t, c_t, r_t): the raw env action (None at record
    0), the covered-unit count after it (0 at record 0) and its reward. An
    episode keeps one per decision, so it has slots, not a per-instance
    dict."""

    action: object
    covered: int
    reward: float


@dataclass
class EpisodeHistory:
    records: list  # of StepRecord; records[0].action is None
    budget: int
    normalizer: float

    def last(self):
        return self.records[-1]


class CoverageRegressionError(ValueError):
    pass


def compute_reward(prev, covered, normalizer):
    """Newly covered units, `covered` less the previous record's `prev`, over
    the normalizer. A count that drops raises CoverageRegressionError."""
    if covered < prev:
        raise CoverageRegressionError(f"covered units dropped: {prev} -> {covered}")
    return (covered - prev) / normalizer


def episode_objective(history):
    """The episode's coverage, and the program's one definition of it: the
    latest record's covered units over the env's unit count (reward_normalizer,
    at least 1). Telescopes to the reward sum, as record 0 covers nothing."""
    return history.last().covered / history.normalizer


# --------------------------------------------------------- history encoding


@dataclass
class HistoryEncoderConfig:
    temporal_mode: str = "autoregressive"
    conditioning: str = "graph"
    recurrent_width: int = 64
    action_width: int = 16
    action_vocab: int = 0  # size of the action embedding table; must be >= 1

    def __post_init__(self):
        # graph x autoregressive is the one arm; the last_step, uncond and
        # envcond arms, with their tests, are in commit 8bb99df.
        for name, kept in (("temporal_mode", "autoregressive"), ("conditioning", "graph")):
            if getattr(self, name) != kept:
                raise ValueError(f"{name} {getattr(self, name)!r}: only {kept!r} is kept; "
                                 f"restore the other arms from commit 8bb99df")
        if self.action_vocab < 1:
            raise ValueError(f"action_vocab must be >= 1, got {self.action_vocab}")


class HistoryEncoder:
    """F(h_t): per-record summaries folded through time.

    Summary = [GraphNet encoding of the coverage graph (the paper's GNN;
    GraphNet.encode_batch), g_x(action)]. Summaries fold through an LSTM
    whose hidden state is F(h_t); its state is one [h | c] tensor, and F is
    its h half.

    Rollouts fold episodes as rows of one (K, 2H) state, stepping K episodes
    in lockstep (PolicyModel.run_episodes): each step builds the newest
    record's summary of every live episode with one summaries call and folds
    them with one fold call. The learner encodes nothing itself: it
    backpropagates through this rollout forward, recorded on its tape.
    """

    def __init__(self, params, name, config, graph_net):
        self.config = config
        self.net = graph_net
        # The action table is an attribute, not captured in a closure, so a
        # deep copy of the model reads and trains its own copy of it. Row
        # [action_vocab] is the null action of record 0.
        self.actions = Embedding(
            params, f"{name}/actions", config.action_vocab + 1, config.action_width
        )
        width = graph_net.config.d + config.action_width
        self.cell = LSTMCell(params, f"{name}/fold", width, config.recurrent_width)

    def output_width(self):
        return self.config.recurrent_width

    # -- pieces -------------------------------------------------------------

    def action_rows(self, records):
        """(R, action_width) g_x(action) rows; record 0's None action maps to
        the learned null action. Actions outside [0, action_vocab) raise,
        since the table's row action_vocab is that null action."""
        null = self.config.action_vocab
        ids = [null if rec.action is None else int(rec.action) for rec in records]
        for rec, i in zip(records, ids):
            if rec.action is not None and not 0 <= i < null:
                raise ValueError(f"action {rec.action} outside [0, {null}) (action_vocab {null})")
        return self.actions(ids)

    def summaries(self, observations, records):
        """(R, d + action_width) summaries of `records`, record i seen with
        the graph `observations[i]`, built with one batched graph encode and
        one action lookup."""
        return concat([self.net.encode_batch(observations), self.action_rows(records)], axis=1)

    def summary(self, observation, record):
        """The (1, d + action_width) summary of one record."""
        return self.summaries([observation], [record])

    # -- temporal fold ------------------------------------------------------

    def init_state(self, rows):
        """Zero fold state: the LSTM's (rows, 2H) [h | c] of `rows` sequences
        folded in parallel."""
        return self.cell.zero_state(rows)

    def fold(self, state, summ):
        """Consume one (rows, d + action_width) batch of summaries; returns
        (F, new state). The state is the packed (rows, 2H) [h | c] tensor and
        F its h half."""
        state = self.cell(summ, state)
        return slice_(state, 0, self.config.recurrent_width, axis=1), state


# ------------------------------------------------------------ rollout loop


@dataclass
class EpisodeTrajectory:
    """One episode's history. A learned agent's per-decision policy outputs
    live once, on the batch of its rollout (TrajectoryBatch.outputs)."""

    history: EpisodeHistory
    terminated_early: bool = False  # full coverage before the budget ran out

    @property
    def final_coverage(self):
        return episode_objective(self.history)

    def rewards(self):
        return [rec.reward for rec in self.history.records[1:]]


@dataclass
class TrajectoryBatch:
    episodes: list = field(default_factory=list)
    # The (log-probability, entropy, value) tensors of every decision of the
    # rollout (PolicyModel.run_episodes), stacked step by step; None when it
    # made no decision. rows[k] holds the rows of episode k's decisions.
    outputs: tuple | None = None
    rows: list = field(default_factory=list)
    # The Tape that recorded the outputs; the update that backpropagates
    # through it releases it (sets it to None).
    tape: object = None

    def __len__(self):
        return len(self.episodes)

    def mean_coverage(self):
        return float(np.mean([ep.final_coverage for ep in self.episodes]))


class EpisodeStepError(RuntimeError):
    def __init__(self, step, cause):
        super().__init__(f"environment failure at step {step}: {cause}")
        self.step = step


def begin_episode(env, rng, budget):
    """Reset `env` with `rng`; returns (the trajectory holding record 0, the
    initial observation, whether the episode is already over). An env that
    is fully explored on arrival (e.g. a single-cell world whose start is
    covered by arrival) needs no valid action, so the episode ends at t=0
    and is marked terminated early; so does one with no budget, unmarked."""
    obs0 = env.reset(rng)
    history = EpisodeHistory(
        records=[StepRecord(action=None, covered=0, reward=0.0)],
        budget=budget,
        normalizer=env.reward_normalizer,
    )
    traj = EpisodeTrajectory(history=history)
    traj.terminated_early = env.fully_explored()
    return traj, obs0, traj.terminated_early or budget < 1


def advance_episode(env, traj, action):
    """Take decision `action` in `env` and record it in `traj`: the step's
    covered-unit count and reward, and whether the env is now fully explored.
    Returns True when the episode is over: full coverage or the budget spent.
    A failing step, or a covered-unit count that drops, raises
    EpisodeStepError naming the step."""
    history = traj.history
    records = history.records
    t = len(records)
    try:
        covered = env.step(action)
        reward = compute_reward(records[-1].covered, covered, history.normalizer)
    except Exception as e:
        raise EpisodeStepError(t, e) from e
    records.append(StepRecord(action, covered, reward))
    traj.terminated_early = done = env.fully_explored()
    return done or t >= history.budget


def run_episode(env, policy, budget, seed):
    """Roll one episode of a callable policy (baselines, Karel world
    policies): `policy(env, rng)` returns an action. Stops after the
    budget is spent or as soon as the environment reports full coverage
    following a step. Returns (history, trajectory). It never observes the
    env: the policies it runs read the env's walker hooks or nothing. The
    learned agent rolls its episodes in lockstep through
    PolicyModel.run_episodes, on the same begin_episode / advance_episode
    bookkeeping."""
    rng = np.random.default_rng(seed)
    traj, _, done = begin_episode(env, rng, budget)
    while not done:
        done = advance_episode(env, traj, policy(env, rng))
    return traj.history, traj
