"""Coverage-episode machinery: rewards, objectives, interaction histories, and
the configurable history encoder F(h_t) that turns a history into the policy's
input vector.

Episode layout: record 0 is always (null action, initial observation, reward
0). In environments that start with an empty belief graph, the first decision
is made on that empty graph via the encoder's learned empty-graph vector; the
start position's coverage is then counted in the first step's reward, which
keeps the reward sum exactly equal to the coverage objective.

The env contract. MazeEnv, AppEnv and KarelEnv each wrap one fixed instance;
training gets a fresh env per episode from TrainConfig.env_sampler. The
episode loop (run_episode, PolicyModel.run_episodes) reads:
- budget, and reward_normalizer: the instance's unit count (maze cells, app
  screens, Karel coverage units; at least 1), over which rewards and
  coverage are counted;
- reset(rng) and step(action), each returning a GraphObservation;
- action_mask(): (num_actions,) bool, or None for structured actions (Karel);
- fully_explored(), and program if the env has one.
The walkers (agents.baselines) also read three hooks, which maze and app have:
- current_node(): the stable node id of the agent's position;
- outgoing(): [(action, destination id or None when unknown)] in ascending
  action order, listing exactly the actions action_mask() allows;
- reverse_action(a): the action undoing the latest step a, or None.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .envs.karel.lang import TEXT_VOCAB
from .graphnet import GraphObservation
from .tensor import (
    Embedding,
    LSTMCell,
    Linear,
    Tensor,
    concat,
    embed_lookup,
    no_grad,
    reduce_mean,
    reshape,
    slice_,
)


def _row(t):
    """(1, d) -> (d,)."""
    return reshape(t, (t.data.shape[1],))


@dataclass
class StepRecord:
    """One history entry (x_t, G_t, c_t, r_t). action is the raw environment
    action (None for the initial record)."""

    action: object
    observation: GraphObservation
    reward: float


@dataclass
class EpisodeHistory:
    records: list  # of StepRecord; records[0].action is None
    budget: int
    normalizer: float
    program: object = None  # the KarelProgram under test, for program-conditioned envs

    def __len__(self):
        return len(self.records)

    def last(self):
        return self.records[-1]


class CoverageRegressionError(ValueError):
    pass


def compute_reward(prev, nxt, normalizer):
    """Newly covered node count over the normalizer. Node ids are stable, so a
    step may only add nodes and switch coverage bits 0 -> 1; anything else
    raises CoverageRegressionError naming the first regressed node. Every
    step of every episode passes through this check."""
    n_prev = prev.node_count
    if nxt.node_count < n_prev:
        raise CoverageRegressionError(f"node set shrank: {n_prev} -> {nxt.node_count}")
    regressed = np.asarray(prev.coverage) > np.asarray(nxt.coverage)[:n_prev]
    if regressed.any():
        raise CoverageRegressionError(f"coverage regressed at node {int(np.argmax(regressed))}")
    gained = float(np.asarray(nxt.coverage).sum() - np.asarray(prev.coverage).sum())
    return gained / normalizer


def episode_objective(history):
    """The episode's coverage, and the program's one definition of it: the
    covered units of the latest observation, Σ_v c_T(v), over the env's unit
    count (its reward_normalizer, at least 1). Telescopes to the sum of
    per-step rewards because record 0 has zero coverage."""
    return float(np.sum(history.last().observation.coverage)) / history.normalizer


# --------------------------------------------------------- history encoding


TEMPORAL_MODES = ("last_step", "autoregressive")
# The paper's program-conditioning arms. Only graph reads the coverage graph;
# uncond and envcond condition on nothing (envcond appends the previous
# reward), and bow and bilstm read the program's text.
CONDITIONING = ("graph", "uncond", "envcond", "bow", "bilstm")


@dataclass
class HistoryEncoderConfig:
    temporal_mode: str = "autoregressive"
    conditioning: str = "graph"
    recurrent_width: int = 64
    action_width: int = 16
    action_vocab: int = 0  # size of the action embedding table; must be >= 1

    def validate(self):
        if self.temporal_mode not in TEMPORAL_MODES:
            raise ValueError(f"temporal_mode {self.temporal_mode!r} not in {TEMPORAL_MODES}")
        if self.conditioning not in CONDITIONING:
            raise ValueError(f"conditioning {self.conditioning!r} not in {CONDITIONING}")
        if self.action_vocab < 1:
            raise ValueError(f"action_vocab must be >= 1, got {self.action_vocab}")
        return self


class HistoryEncoder:
    """F(h_t): per-record summaries folded through time.

    Summary = [conditioning part, g_x(action)], where `conditioning` picks
    the conditioning part: the GraphNet encoding of the coverage graph
    (graph, the paper's GNN arm; GraphNet.encode_batch), zeros (uncond, and
    envcond, which also appends the previous reward), or a static embedding
    of the program's text tokens (bow, bilstm).

    temporal_mode last_step returns the newest summary; autoregressive folds
    summaries through an LSTM whose hidden state is F(h_t). Its state is one
    [h | c] tensor, and F is its h half.

    Rollouts fold episodes as rows of one (K, 2H) state, stepping K episodes
    in lockstep (PolicyModel.run_episodes): each step builds the newest
    record's summary of every live episode with one summaries call and folds
    them with one fold call. The learner encodes nothing itself: it
    backpropagates through this rollout forward, recorded on its tape.
    """

    def __init__(self, params, name, config, graph_net):
        config.validate()
        self.config = config
        self.net = graph_net
        self.d = graph_net.config.d
        # The action table is an attribute, not captured in a closure, so a
        # deep copy of the model reads and trains its own copy of it. Row
        # [action_vocab] is the null action of record 0.
        self.actions = Embedding(
            params, f"{name}/actions", config.action_vocab + 1, config.action_width
        )
        self.dtype = params.dtype  # of the constant rows built beside the learned ones
        if config.conditioning in ("bow", "bilstm"):
            self.token_embed = Embedding(params, f"{name}/tokens", TEXT_VOCAB, self.d)
            if config.conditioning == "bilstm":
                self.fwd = LSTMCell(params, f"{name}/prog_fwd", self.d, self.d)
                self.bwd = LSTMCell(params, f"{name}/prog_bwd", self.d, self.d)
                self.prog_out = Linear(params, f"{name}/prog_out", 2 * self.d, self.d)
        width = self.summary_width()
        if config.temporal_mode == "autoregressive":
            self.cell = LSTMCell(params, f"{name}/fold", width, config.recurrent_width)

    def summary_width(self):
        w = self.d + self.config.action_width
        if self.config.conditioning == "envcond":
            w += 1
        return w

    def output_width(self):
        if self.config.temporal_mode == "autoregressive":
            return self.config.recurrent_width
        return self.summary_width()

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

    def conditioning_rows(self, records, programs):
        """(R, d) conditioning parts; programs[i] is record i's static program."""
        mode = self.config.conditioning
        if mode in ("uncond", "envcond"):
            return Tensor(np.zeros((len(records), self.d), dtype=self.dtype))
        if mode in ("bow", "bilstm"):
            # One program vector per distinct program, broadcast to its records.
            encode = self._bow if mode == "bow" else self._bilstm
            slot = {}
            for p in programs:
                slot.setdefault(id(p), (len(slot), p))
            table = concat([reshape(encode(p), (1, self.d)) for _, p in slot.values()], axis=0)
            return embed_lookup(table, [slot[id(p)][0] for p in programs])
        return self.net.encode_batch([rec.observation for rec in records])

    def _tokens(self, program):
        return [] if program is None else list(program.token_ids)

    def _bow(self, program):
        tokens = self._tokens(program)
        if not tokens:
            return Tensor(np.zeros(self.d, dtype=self.dtype))
        return reduce_mean(self.token_embed(np.asarray(tokens, dtype=np.intp)), axis=0)

    def _bilstm(self, program):
        tokens = self._tokens(program)
        if not tokens:
            return Tensor(np.zeros(self.d, dtype=self.dtype))
        embs = self.token_embed(np.asarray(tokens, dtype=np.intp))
        rows = [_row(slice_(embs, i, i + 1, axis=0)) for i in range(len(tokens))]
        fwd = self.fwd.zero_state()
        for r in rows:
            fwd = self.fwd(r, fwd)
        bwd = self.bwd.zero_state()
        for r in reversed(rows):
            bwd = self.bwd(r, bwd)
        return self.prog_out(concat([slice_(fwd, 0, self.d), slice_(bwd, 0, self.d)], axis=0))

    def summaries(self, records, programs):
        """(R, summary_width) summaries of `records`, built with one batched
        graph encode and one action lookup; programs[i] is the static program
        of record i's episode (None outside program environments)."""
        parts = [self.conditioning_rows(records, programs), self.action_rows(records)]
        if self.config.conditioning == "envcond":
            parts.append(Tensor(np.asarray([[rec.reward] for rec in records], dtype=self.dtype)))
        return concat(parts, axis=1)

    def summary(self, record, program=None):
        return _row(self.summaries([record], [program]))

    # -- temporal fold ------------------------------------------------------

    def init_state(self, rows=None):
        """Zero fold state: the LSTM's (2H,) [h | c], or (rows, 2H) to fold
        `rows` sequences in parallel; None in last_step mode."""
        if self.config.temporal_mode != "autoregressive":
            return None
        return self.cell.zero_state(rows)

    def fold(self, state, summ):
        """Consume one summary; returns (F, new state). The state is the
        packed [h | c] tensor and F its h half, or None in last_step mode,
        which keeps no state."""
        if self.config.temporal_mode == "autoregressive":
            state = self.cell(summ, state)
            return slice_(state, 0, self.config.recurrent_width, axis=state.data.ndim - 1), state
        return summ, None


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

    def validate(self):
        for ep in self.episodes:
            if abs(sum(ep.rewards()) - ep.final_coverage) > 1e-9:
                raise ValueError("reward sum does not telescope to final coverage")
        return self


class EpisodeStepError(RuntimeError):
    def __init__(self, step, cause):
        super().__init__(f"environment failure at step {step}: {cause}")
        self.step = step


def begin_episode(env, rng, budget):
    """Reset `env` with `rng`; returns (the trajectory holding record 0,
    whether the episode is already over). An env that is fully explored on
    arrival (e.g. a single-cell world whose start is covered by arrival)
    needs no valid action, so the episode ends at t=0 and is marked
    terminated early; so does one with no budget, unmarked."""
    obs0 = env.reset(rng)
    history = EpisodeHistory(
        records=[StepRecord(action=None, observation=obs0, reward=0.0)],
        budget=budget,
        normalizer=env.reward_normalizer,
        program=getattr(env, "program", None),
    )
    traj = EpisodeTrajectory(history=history)
    traj.terminated_early = env.fully_explored()
    return traj, traj.terminated_early or budget < 1


def advance_episode(env, traj, action):
    """Take decision `action` in `env` and record it in `traj`: the step's
    reward and whether the env is now fully explored. Returns True when the
    episode is over: full coverage or the budget spent. A failing step
    raises EpisodeStepError naming the step."""
    history = traj.history
    t = len(history.records)
    try:
        obs = env.step(action)
    except Exception as e:
        raise EpisodeStepError(t, e) from e
    reward = compute_reward(history.last().observation, obs, history.normalizer)
    history.records.append(StepRecord(action=action, observation=obs, reward=reward))
    traj.terminated_early = env.fully_explored()
    return traj.terminated_early or t >= history.budget


def run_episode(env, policy, budget, seed):
    """Roll one episode of a callable policy (baselines, Karel world
    policies): `policy(history, env, rng)` returns an action. Stops after the
    budget is spent or as soon as the environment reports full coverage
    following a step. Returns (history, trajectory). The learned agent rolls
    its episodes in lockstep through PolicyModel.run_episodes, on the same
    begin_episode / advance_episode bookkeeping."""
    rng = np.random.default_rng(seed)
    traj, done = begin_episode(env, rng, budget)
    with no_grad():
        while not done:
            done = advance_episode(env, traj, policy(traj.history, env, rng))
    return traj.history, traj


def dump_trajectories(path, batch):
    """JSON-lines episode dump, one object per record: episode_id, t,
    action_repr (None for record 0), reward, cumulative_coverage."""
    with open(path, "w") as f:
        for ep_id, ep in enumerate(batch.episodes):
            cum = 0.0
            for t, rec in enumerate(ep.history.records):
                cum += rec.reward
                action_repr = None if rec.action is None else str(rec.action)
                f.write(json.dumps({"episode_id": ep_id, "t": t, "action_repr": action_repr,
                                    "reward": rec.reward, "cumulative_coverage": cum}) + "\n")
