"""Layer spans: which public functions of the program are wrapped, under which
span name, and which end-to-end metric each layer is expected to move.

Each entry patches one attribute where callers look it up. Functions imported
by name into another module (`run_episode` in `trainer` and `benchmarks`,
`optimizer_step` in `trainer`, ...) are patched in that module too. Methods
are patched on their class, so every instance picks them up.
"""

from __future__ import annotations

import contextlib
import functools

from graphexplore import benchmarks, episode, graphnet, trainer
from graphexplore.agents import baselines, policy
from graphexplore.envs import appgraph, maze
from graphexplore.envs.karel import env as karel_env
from graphexplore.envs.karel import lang as karel_lang
from graphexplore.envs.karel import worlds as karel_worlds
from graphexplore.tensor import core as tensor_core

# The learner encodes on the tape inside batch_loss; every other encode
# (rollouts, zero-shot evaluation) runs without it.
LEARNER_SPAN = "trainer.batch_loss"
SPLIT_BY_PARENT = ("graphnet.project", "graphnet.propagate", "graphnet.readout")

TARGETS = (
    ("envs.generate", maze, "generate_maze"),
    ("envs.generate", benchmarks, "generate_maze"),
    ("envs.generate", appgraph, "er_app_for_seed"),
    ("envs.generate", karel_lang, "sample_program"),
    ("envs.reset", maze.MazeEnv, "reset"),
    ("envs.reset", appgraph.AppEnv, "reset"),
    ("envs.reset", karel_env.KarelEnv, "reset"),
    ("envs.step", maze.MazeEnv, "step"),
    ("envs.step", appgraph.AppEnv, "step"),
    ("envs.step", karel_env.KarelEnv, "step"),
    ("envs.observe", maze, "observe"),
    ("envs.observe", appgraph, "observe"),
    ("karel.execute", karel_env, "execute"),
    ("karel.execute", karel_worlds, "execute"),
    ("karel.heuristic", karel_worlds, "valid_execution_heuristic"),
    ("baselines.act", baselines.RandomPolicy, "__call__"),
    ("baselines.act", baselines.RandDfsPolicy, "__call__"),
    ("episode.run_episode", episode, "run_episode"),
    ("episode.run_episode", trainer, "run_episode"),
    ("episode.run_episode", benchmarks, "run_episode"),
    ("episode.compute_reward", episode, "compute_reward"),
    ("episode.summary", episode.HistoryEncoder, "summary"),
    ("episode.fold", episode.HistoryEncoder, "fold"),
    ("graphnet.project", graphnet.GraphNet, "project_features"),
    ("graphnet.propagate", graphnet.GraphNet, "propagate"),
    ("graphnet.readout", graphnet.GraphNet, "readout"),
    ("policy.act", policy.CategoricalHead, "act"),
    ("policy.score", policy.CategoricalHead, "score"),
    ("policy.value", policy.ValueHead, "__call__"),
    ("tensor.gradients", tensor_core.Tape, "gradients"),
    ("tensor.clip", trainer, "clip_global_norm"),
    ("tensor.optimizer_step", trainer, "optimizer_step"),
    ("trainer.collect_rollouts", trainer, "collect_rollouts"),
    ("trainer.batch_loss", trainer, "batch_loss"),
    ("trainer.a2c_update", trainer, "a2c_update"),
    ("trainer.zero_shot", trainer, "zero_shot_coverage"),
    ("benchmarks.maze_coverage", benchmarks, "maze_coverage"),
    ("benchmarks.app_coverage", benchmarks, "app_coverage"),
)


def span_names():
    """Every span name the traced run reports, in table order."""
    names = []
    for name, _, _ in TARGETS:
        for full in ([f"{name}.rollout", f"{name}.learner"] if name in SPLIT_BY_PARENT else [name]):
            if full not in names:
                names.append(full)
    return names


# Layer span -> the metric it should move, and on which workload. Recorded
# next to every traced result, so a change to one layer can be checked
# against its prediction.
_ENV = "decisions_per_ref on protocols; flat on maze-a2c and app-a2c"
_TRAINER = ("the forward / backward / optimizer split behind decisions_per_ref on "
            "maze-a2c and app-a2c")
EXPECTED_EFFECT = {
    "envs.generate": _ENV,
    "envs.reset": _ENV,
    "envs.step": _ENV,
    "envs.observe": _ENV,
    "karel.execute": "round_ref on protocols",
    "karel.heuristic": "round_ref on protocols",
    "baselines.act": "decisions_per_ref on protocols only",
    "episode.run_episode": "decisions_per_ref on protocols most",
    "episode.compute_reward": "decisions_per_ref on protocols most",
    "episode.summary": ("trainer.rollout_decisions_per_s and trainer.learner_decisions_per_s, "
                        "more on maze-a2c (longer episodes) than on app-a2c"),
    "episode.fold": ("trainer.rollout_decisions_per_s and trainer.learner_decisions_per_s, "
                     "more on maze-a2c (longer episodes) than on app-a2c"),
    "graphnet.project": "both trainer decision rates, hence decisions_per_ref, most on maze-a2c",
    "graphnet.propagate": "both trainer decision rates, hence decisions_per_ref, most on maze-a2c",
    "graphnet.readout": "both trainer decision rates, hence decisions_per_ref, most on maze-a2c",
    "policy.act": "trainer.rollout_decisions_per_s, relatively more on app-a2c",
    "policy.score": "trainer.learner_decisions_per_s, relatively more on app-a2c",
    "policy.value": "trainer.learner_decisions_per_s, relatively more on app-a2c",
    "tensor.gradients": "trainer.learner_decisions_per_s on maze-a2c and app-a2c",
    "tensor.clip": "guard: about 1.5 ms per update; round_ref on the A2C workloads if it grows",
    "tensor.optimizer_step": "guard: about 1.5 ms per update; round_ref on the A2C workloads if it grows",
    "trainer.collect_rollouts": _TRAINER,
    "trainer.batch_loss": _TRAINER,
    "trainer.a2c_update": _TRAINER,
    "trainer.zero_shot": "runs after the timed rounds: no end-to-end time; its numerics set heldout_coverage",
    "benchmarks.maze_coverage": "round_ref on protocols",
    "benchmarks.app_coverage": "round_ref on protocols",
}


def _wrap(fn, name, rec):
    if name in SPLIT_BY_PARENT:
        rollout, learner = f"{name}.rollout", f"{name}.learner"

        def span_name():
            return learner if rec.inside(LEARNER_SPAN) else rollout
    else:
        def span_name():
            return name

    if name == "tensor.gradients":
        def before(args):
            rec.count("tape_ops", len(args[0]))
    elif name == "graphnet.propagate":
        def before(args):
            obs = args[2]
            rec.count("encodes")
            rec.count("encode_nodes", obs.node_count)
            rec.count("encode_edges", len(obs.edges))
    else:
        before = None

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if before is not None:
            before(args)
        index = rec.open(span_name())
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return wrapped


@contextlib.contextmanager
def patched(owner, attr, make):
    """Replace owner.attr by make(original) and put the original back on exit."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def traced(rec):
    """Wrap every layer boundary in TARGETS with a span recorded on `rec`."""
    with contextlib.ExitStack() as stack:
        for name, owner, attr in TARGETS:
            stack.enter_context(patched(owner, attr, lambda fn, name=name: _wrap(fn, name, rec)))
        yield rec
