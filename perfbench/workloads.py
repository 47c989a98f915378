"""The three benchmark workloads, driven only through public calls.

maze-a2c / app-a2c: synchronous A2C (`collect_rollouts` then `a2c_update`,
8 episodes per update, one worker), then greedy zero-shot evaluation. The
agent is assembled from public constructors: GraphNet(d=64, rounds=5) feeding
an autoregressive, graph-conditioned HistoryEncoder (recurrent width 64,
action width 16), a CategoricalHead, a ValueHead and a PolicyModel.

protocols: the frozen baseline protocols (random and RandDFS on the 1000
mazes from seed 8001 and on the 100 apps from seed 16001), plus the random and
valid-execution-heuristic world policies on a fixed set of Karel programs,
with worlds drawn from the seed.
No tensor or GraphNet work runs here.

Every workload has the same shape: setup() builds what a round needs,
round() does one unit of work and reports its outcome, including the coverage
that sits next to the timings, and finish() runs what follows the last round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from graphexplore import benchmarks, episode, trainer
from graphexplore.agents import CategoricalHead, ValueHead
from graphexplore.agents.policy import PolicyModel
from graphexplore.envs import appgraph, maze
from graphexplore.envs.karel import env as karel_env
from graphexplore.envs.karel import lang as karel_lang
from graphexplore.envs.karel.worlds import WorldConfig
from graphexplore.episode import EpisodeStepError, HistoryEncoder, HistoryEncoderConfig
from graphexplore.graphnet import GraphNet, GraphNetConfig
from graphexplore.tensor import OptimizerState, ParamSet

from layers import patched

# Frozen protocol coverages; the protocols workload must reproduce them bit
# for bit.
FROZEN = {
    "maze_random": 0.3023333333333333,
    "maze_randdfs": 0.5132777777777778,
    "app_random": 0.45146353629170966,
    "app_randdfs": 0.5137125042999656,
}

# The agent's initial weights are the same for every workload seed; the seed
# picks the training environments, so coverage differences between seeds come
# from the data the agent saw, not from the luck of an initialisation.
INIT_SEED = 0
# The Karel programs are one fixed set, like the maze and app sets; the seed
# picks the worlds the policies sample for them. The heuristic's cost varies
# widely between programs: 50 programs drawn per seed took 0.14 to 0.64 s,
# which made the pass time depend on the draw.
KAREL_PROGRAM_SEED = 0
WARMUP_ROUND = 1_000_000  # round index of the untimed warm-up update


@dataclass(frozen=True)
class Scale:
    """How much work one run does. FULL is the benchmark; QUICK is the smoke
    mode the benchmark's own tests use."""

    episodes: int  # per A2C update
    snapshot_round: int  # held-out coverage is measured after this many updates
    eval_mazes: int  # slice of heldout_mazes (seeds from 7001)
    eval_apps: int  # slice of app_eval_set (seeds from 16001)
    maze_count: int  # mazes per maze protocol; the frozen values need 1000
    karel_programs: int
    min_protocol_passes: int


FULL = Scale(episodes=8, snapshot_round=8, eval_mazes=25, eval_apps=20,
             maze_count=benchmarks.MAZE_EVAL_COUNT, karel_programs=50,
             min_protocol_passes=3)
QUICK = Scale(episodes=2, snapshot_round=1, eval_mazes=2, eval_apps=2, maze_count=20,
              karel_programs=3, min_protocol_passes=2)


@dataclass
class Round:
    """Outcome of one unit of work. `result` holds the values that must come
    out the same when the same round is repeated (with or without tracing)."""

    kind: str = "update"  # rounds of one kind do the same work
    decisions: int = 0
    episodes: int = 0
    wall_s: float = 0.0
    rollout_s: float = 0.0
    learner_s: float = 0.0
    attempted: int = 1
    failures: list = field(default_factory=list)
    skipped: int = 0
    coverage: float | None = None  # mean coverage of the round's episodes
    result: tuple = ()
    ref_s: float = 0.0  # the reference computation timed just before the round (run.py)


def build_agent(n_actions):
    params = ParamSet(seed=INIT_SEED)
    net = GraphNet(params, "gnn", GraphNetConfig(d=64, rounds=5, feature_width=1))  # is-current column
    encoder = HistoryEncoder(
        params, "hist",
        HistoryEncoderConfig(temporal_mode="autoregressive", conditioning="graph",
                             recurrent_width=64, action_width=16, action_vocab=n_actions),
        net,
    )
    head = CategoricalHead(params, "pi", encoder.output_width(), n_actions)
    value = ValueHead(params, "v", encoder.output_width())
    return PolicyModel(params, encoder, head, value)


def maze_sampler(rng):
    return benchmarks.maze_eval_env(int(rng.integers(2**62)))


def app_sampler(rng):
    # Redraw until the start screen reaches APP_MIN_SCREENS screens, as the
    # held-out set does: about a sixth of raw draws are a single screen, and a
    # batch made only of those has nothing to learn from.
    while True:
        graph = appgraph.er_app_for_seed(int(rng.integers(2**62)))
        if len(graph.screens) >= benchmarks.APP_MIN_SCREENS:
            break
    return appgraph.AppEnv(graph, budget=benchmarks.APP_BUDGET,
                           num_actions=benchmarks.APP_ACTION_WIDTH)


def maze_eval_envs(count):
    return [maze.MazeEnv(m, budget=benchmarks.MAZE_BUDGET) for m in maze.heldout_mazes(count)]


def app_eval_envs(count):
    apps, _ = benchmarks.app_eval_set(count)
    return [appgraph.AppEnv(g, budget=benchmarks.APP_BUDGET, num_actions=benchmarks.APP_ACTION_WIDTH)
            for g in apps]


@dataclass
class A2CState:
    model: object
    config: trainer.TrainConfig
    opt_state: OptimizerState
    eval_envs: list
    snapshot: dict | None = None


class A2C:
    def __init__(self, kind, seed, scale):
        self.seed = seed
        self.scale = scale
        self.min_rounds = self.trace_rounds = scale.snapshot_round
        if kind == "maze":
            self.n_actions, self.sampler, self.eval_envs = 4, maze_sampler, maze_eval_envs
            self.eval_count = scale.eval_mazes
        else:
            self.n_actions, self.sampler, self.eval_envs = (
                benchmarks.APP_ACTION_WIDTH, app_sampler, app_eval_envs)
            self.eval_count = scale.eval_apps

    def warm_up(self):
        """One untimed update on a throwaway agent, so the first timed round
        does not pay for first-touch allocation of the tape."""
        return [self.round(self.setup(), WARMUP_ROUND)]

    def setup(self):
        config = trainer.TrainConfig(seed=self.seed, env_sampler=self.sampler, workers=1,
                                     episodes_per_worker=self.scale.episodes)
        return A2CState(model=build_agent(self.n_actions), config=config,
                        opt_state=OptimizerState(lr=config.learning_rate),
                        eval_envs=self.eval_envs(self.eval_count))

    def round(self, state, index, rec=None):
        if rec is not None:
            rec.next_group()
        out = Round()
        t0 = time.perf_counter()
        try:
            batch = trainer.collect_rollouts(state.model, self.sampler, state.config, round_index=index)
        except EpisodeStepError as e:
            out.failures.append(f"round {index}: {e}")
            out.wall_s = time.perf_counter() - t0
            return out
        t1 = time.perf_counter()
        try:
            state.model, stats = trainer.a2c_update(state.model, batch, state.config, state.opt_state)
        except ValueError as e:  # a non-finite stat, or a batch with nothing to learn from
            stats = None
            out.failures.append(f"round {index}: {e}")
        t2 = time.perf_counter()
        out.rollout_s, out.learner_s, out.wall_s = t1 - t0, t2 - t1, t2 - t0
        out.episodes = len(batch.episodes)
        out.decisions = sum(len(ep.history.records) - 1 for ep in batch.episodes)
        out.coverage = batch.mean_coverage()
        if stats is not None:
            if stats.skipped:
                out.skipped = 1
                out.failures.append(f"round {index}: update skipped (non-finite loss or gradient)")
            out.result = (out.decisions, stats.mean_return, stats.policy_loss, stats.value_loss,
                          stats.entropy, stats.grad_norm)
        if index + 1 == self.scale.snapshot_round:
            state.snapshot = state.model.params.snapshot()
        return out

    def finish(self, state, rec=None):
        """Greedy zero-shot coverage on the held-out slice, of the model after
        `snapshot_round` updates (or the current one, if fewer ran)."""
        if rec is not None:
            rec.next_group()
        if state.snapshot is not None:
            state.model.params.load_values(state.snapshot)
        cov = trainer.zero_shot_coverage(state.model, state.eval_envs, state.config)
        failures = [] if np.isfinite(cov) and 0.0 < cov <= 1.0 else [f"held-out coverage {cov}"]
        return cov, failures


@dataclass
class ProtocolState:
    karel_envs: list
    world_config: WorldConfig
    first: dict = field(default_factory=dict)  # value of each call's first round


class Protocols:
    """One round is one protocol call; CALLS in turn make up one pass."""

    CALLS = ("maze_random", "maze_randdfs", "app_random", "app_randdfs",
             "karel_random", "karel_heuristic")

    def __init__(self, seed, scale):
        self.seed = seed
        self.scale = scale
        self.min_rounds = scale.min_protocol_passes * len(self.CALLS)
        self.trace_rounds = len(self.CALLS)
        # The frozen maze values hold for the full 1000 mazes only; with fewer,
        # the maze calls are held to the repeat rule like the Karel calls.
        self.frozen = (FROZEN if scale.maze_count == benchmarks.MAZE_EVAL_COUNT
                       else {k: v for k, v in FROZEN.items() if k.startswith("app_")})

    def warm_up(self):
        """One untimed pass at the quick scale, which runs every code path."""
        quick = Protocols(self.seed, QUICK)
        state = quick.setup()
        return [quick.round(state, i) for i in range(len(self.CALLS))]

    def setup(self):
        rng = np.random.default_rng(KAREL_PROGRAM_SEED)
        envs = [karel_env.KarelEnv(karel_lang.sample_program(rng))
                for _ in range(self.scale.karel_programs)]
        return ProtocolState(karel_envs=envs, world_config=WorldConfig())

    def _call(self, state, kind):
        n = self.scale.maze_count
        if kind == "maze_random":
            return benchmarks.random_baseline_coverage(count=n)
        if kind == "maze_randdfs":
            return benchmarks.randdfs_baseline_coverage(count=n)
        if kind == "app_random":
            return benchmarks.app_random_coverage()
        if kind == "app_randdfs":
            return benchmarks.app_randdfs_coverage()
        stream, make_policy = ((0, karel_env.random_world_policy) if kind == "karel_random"
                               else (1, karel_env.heuristic_world_policy))
        covs = []
        for i, env in enumerate(state.karel_envs):
            seed = int(np.random.SeedSequence([self.seed, i, stream]).generate_state(1)[0])
            _, traj = episode.run_episode(env, make_policy(state.world_config),
                                          budget=env.budget, seed=seed)
            covs.append(traj.final_coverage)
        return float(np.mean(covs))

    def round(self, state, index, rec=None):
        kind = self.CALLS[index % len(self.CALLS)]
        out = Round(kind=kind)

        def counter(fn):
            def run_and_count(*args, **kwargs):
                if rec is not None:
                    rec.next_group()
                history, traj = fn(*args, **kwargs)
                out.decisions += len(history.records) - 1
                out.episodes += 1
                return history, traj
            return run_and_count

        with patched(benchmarks, "run_episode", counter), patched(episode, "run_episode", counter):
            t0 = time.perf_counter()
            value = self._call(state, kind)
            out.wall_s = time.perf_counter() - t0
        out.result = (kind, value)
        if kind in FROZEN:
            out.coverage = value
        want = self.frozen.get(kind)
        if want is None:
            want = state.first.setdefault(kind, value)
            if value != want:
                out.failures.append(f"round {index}: {kind} = {value!r}, first round gave {want!r}")
        elif value != want:
            out.failures.append(f"round {index}: {kind} = {value!r}, frozen value {want!r}")
        return out

    def finish(self, state, rec=None):
        """Nothing follows the last call; there is no held-out coverage."""
        return None, []


def make(workload, seed, scale):
    if workload == "maze-a2c":
        return A2C("maze", seed, scale)
    if workload == "app-a2c":
        return A2C("app", seed, scale)
    if workload == "protocols":
        return Protocols(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("maze-a2c", "app-a2c", "protocols")
