"""Benchmark entry point.

    python3 perfbench/run.py --workload maze-a2c --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Workloads: maze-a2c, app-a2c, protocols (see workloads.py).

--trace 0 measures the end-to-end metrics with no tracing for --seconds.
--trace 1 runs a fixed number of rounds (8 updates, or one protocol pass)
twice from identical states, once plain and once with a span around every
layer boundary (layers.py), and reports the per-layer metrics plus the tracing
overhead: traced wall time over plain wall time, minus one.

A round is one A2C update (collect_rollouts plus a2c_update) on maze-a2c and
app-a2c, and one frozen-protocol call on protocols, whose six calls make one
pass. End-to-end metrics, the same on every workload:
  setup_s            set-up of the agent and held-out slice, or of the Karel
                     programs; one throwaway set-up is timed before each
                     round, and the 20th percentile is reported
  peak_rss_mb        peak resident memory of the run
  round_ref          cost of one round (A2C) or one pass (protocols), in runs
                     of the reference computation (see below)
  decisions_per_ref  decisions (env steps) per round over round_ref
  coverage           mean coverage of the training episodes (A2C), or the
                     mean of the four frozen maze and app protocol coverages
The A2C runs also record, unbounded, the greedy zero-shot coverage on a fixed
held-out slice of the agent after 8 updates.

Why round time is given in runs of a reference computation: the 2-core
machine the benchmark was tuned on runs Python code up to 1.9 times slower
for seconds to minutes at a time, set by other tenants, so wall times of the
same code spread 13-21% between runs. A fixed pure-Python computation that
does not touch the program (breadth-first searches on two fixed random
graphs, about 25 ms; see REFERENCE_GRAPHS) is timed just before every round;
per kind of round, the round's cost is the rounds' total wall time over the
total wall time of their references. Slow phases stretch both, so the ratio
keeps what the program costs: across ten runs of protocols, round_ref spread
1.6% (quartile distance over median) where the pass's wall time spread 21%;
on maze-a2c and app-a2c, 8.0% and 6.5% against 13% and 18%. The raw wall
times (median, tail and samples per kind of round), the reference's times
and the rates in decisions per second are kept in the result file.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is a JSON stamp with the
git SHA, Python and numpy versions, nproc, the seed and run details. Both are
also written to .bench_out/ in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# (name, unit, better, bound): reported by every --trace 0 run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("decisions_per_ref", "1/ref", "higher", 0.25),
    ("round_ref", "ref", "lower", 0.25),
    ("coverage", "fraction", "higher", 0.15),
)

# The reference computation's graphs, as (nodes, out-degree, searches): a
# small one that stays in cache, like the program's mazes and app graphs, and
# a large one that does not. Together they take about 25 ms.
REFERENCE_GRAPHS = ((40, 3, 1200), (3000, 4, 15))

# (name, unit, better): reported by every --trace 1 run besides each span's
# `.calls` and `.self_s`.
COUNTS = (
    ("decisions", "count", "higher"),
    ("episodes", "count", "higher"),
    ("tensor.tape_ops_per_decision", "ops/decision", "lower"),
    ("graphnet.nodes_per_encode", "nodes/encode", "higher"),
    ("graphnet.edges_per_encode", "edges/encode", "higher"),
    ("karel.execute_per_world", "execs/world", "lower"),
    ("trainer.skipped_updates", "count", "lower"),
    ("trainer.rollout_decisions_per_s", "1/s", "higher"),
    ("trainer.learner_decisions_per_s", "1/s", "higher"),
    ("trace.plain_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def import_program():
    """Put the checkout's src/ first on the path and make sure graphexplore
    really comes from there."""
    sys.path.insert(0, str(SRC))
    try:
        import graphexplore
    except ImportError as e:
        sys.exit(f"cannot import graphexplore from {SRC}: {e}")
    if not Path(graphexplore.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"graphexplore was imported from {graphexplore.__file__}, not from {SRC}")


def per_layer_catalog():
    from layers import span_names

    spans = []
    for name in span_names():
        spans.append((f"{name}.calls", "count", "lower"))
        spans.append((f"{name}.self_s", "s", "lower"))
    return tuple(spans) + COUNTS


def git_sha(root):
    """Commit of the checkout, read from .git without running git (which
    would search the parent directories); "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args):
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def tail(samples):
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it
    (nearest rank), with the sample count; no percentile when there are
    fewer than 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        index = max(math.ceil(q * n / 100) - 1, 0)
        if n - index - 1 >= 10:
            return {"percentile": q, "value_s": ordered[index], "samples": n}
    return {"percentile": None, "value_s": None, "samples": n}


def fast(samples):
    """The 20th percentile: what a round costs in the machine's faster phases."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=5, method="inclusive")[0]


def reference_graphs():
    rng = random.Random(0)
    return [[[rng.randrange(n) for _ in range(degree)] for _ in range(n)]
            for n, degree, _ in REFERENCE_GRAPHS]


def reference(graphs):
    """The yardstick for round times: breadth-first searches on the
    REFERENCE_GRAPHS, from their nodes 0, 1, ... in turn, in plain Python and
    independent of the program. Returns the number of nodes reached, which
    is fixed."""
    reached = 0
    for graph, (n, _, searches) in zip(graphs, REFERENCE_GRAPHS):
        for i in range(searches):
            seen = {i % n}
            frontier = [i % n]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in graph[u]:
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
                frontier = nxt
            reached += len(seen)
    return reached


def kind_cost(rounds):
    """Cost of one round of a kind, in reference runs: the rounds' total wall
    time over the total time of the reference run just before each."""
    return sum(r.wall_s for r in rounds) / sum(r.ref_s for r in rounds)


def by_kind(rounds):
    kinds = {}
    for r in rounds:
        kinds.setdefault(r.kind, []).append(r)
    return kinds


def first_results(rounds):
    """The result of the first round of each kind; the same seed must give
    the same results in every run, traced or not."""
    return {kind: rs[0].result for kind, rs in by_kind(rounds).items()}


def rates(rounds):
    """Decisions per second of all rounds, of their rollouts and of their
    learner steps."""
    decisions = sum(r.decisions for r in rounds)
    rollout = sum(r.rollout_s for r in rounds)
    learner = sum(r.learner_s for r in rounds)
    return {
        "decisions_per_s": decisions / sum(r.wall_s for r in rounds),
        "rollout_decisions_per_s": decisions / rollout if rollout else 0.0,
        "learner_decisions_per_s": decisions / learner if learner else 0.0,
    }


def plain_run(wl, seconds):
    """Rounds 0, 1, ... until the next one would end past `seconds` (at
    least wl.min_rounds), each preceded by a timed set-up that is thrown away,
    so set-up is sampled across the whole run too, and by a timed reference
    run."""
    clock = time.perf_counter
    graphs = reference_graphs()
    reference(graphs)
    warm = wl.warm_up()
    state = wl.setup()
    setup_s, rounds = [], []
    t0 = clock()
    while (len(rounds) < wl.min_rounds
           or clock() - t0 + setup_s[-1] + rounds[-1].ref_s + rounds[-1].wall_s <= seconds):
        s0 = clock()
        wl.setup()
        s1 = clock()
        reference(graphs)
        s2 = clock()
        setup_s.append(s1 - s0)
        rounds.append(wl.round(state, len(rounds)))
        rounds[-1].ref_s = s2 - s1
    heldout, eval_failures = wl.finish(state)
    kinds = by_kind(rounds)
    round_ref = sum(kind_cost(rs) for rs in kinds.values())
    decisions = sum(statistics.median([r.decisions for r in rs]) for rs in kinds.values())
    coverage = [statistics.fmean(c) for rs in kinds.values()
                if (c := [r.coverage for r in rs if r.coverage is not None])]
    metrics = {
        "setup_s": fast(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decisions_per_ref": decisions / round_ref,
        "round_ref": round_ref,
        "coverage": statistics.fmean(coverage),
    }
    failures = [f for x in warm + rounds for f in x.failures] + eval_failures
    attempted = sum(x.attempted for x in warm + rounds) + 1
    ref_s = [r.ref_s for r in rounds]
    detail = {
        "rounds": len(rounds),
        "first_results": first_results(rounds),
        "heldout_coverage": heldout,
        "decisions": sum(x.decisions for x in rounds),
        "episodes": sum(x.episodes for x in rounds),
        "skipped_updates": sum(x.skipped for x in warm + rounds),
        "all_rounds": rates(rounds),
        "setup_s": {"median": statistics.median(setup_s), "samples": setup_s},
        "reference_s": {"median": statistics.median(ref_s), "samples": ref_s},
        "round_s": {
            kind: {"median": statistics.median(w), "tail": tail(w), "samples": w}
            for kind, w in ((k, [r.wall_s for r in rs]) for k, rs in kinds.items())
        },
    }
    return metrics, attempted, failures, detail


def execute_per_world(rec):
    """karel.execute spans directly under karel.heuristic, per heuristic call."""
    names = rec.span_names()
    heuristic = sum(1 for n in names if n == "karel.heuristic")
    attempts = sum(1 for n, p in zip(names, rec.parent)
                   if n == "karel.execute" and p >= 0 and names[p] == "karel.heuristic")
    return attempts / heuristic if heuristic else 0.0


def traced_run(wl, spans_path):
    """Two identical states advance round by round, one plain and one traced,
    alternating which goes first, so both see the same machine conditions.
    Their results must agree exactly: tracing may only cost time. The number
    of rounds is fixed (wl.trace_rounds), so every count repeats exactly for
    a given seed."""
    from layers import EXPECTED_EFFECT, span_names, traced
    from spans import Recorder

    rec = Recorder()
    clock = time.perf_counter
    warm = wl.warm_up()
    t0 = clock()
    plain_state = wl.setup()
    t1 = clock()
    with traced(rec):
        spanned_state = wl.setup()
    t2 = clock()
    plain_s, traced_s = t1 - t0, t2 - t1
    plain, spanned = [], []
    for i in range(wl.trace_rounds):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            if side == 0:
                plain.append(wl.round(plain_state, i))
            else:
                with traced(rec):
                    spanned.append(wl.round(spanned_state, i, rec))
    t0 = clock()
    plain_cov, plain_eval = wl.finish(plain_state)
    t1 = clock()
    with traced(rec):
        spanned_cov, spanned_eval = wl.finish(spanned_state, rec)
    t2 = clock()
    plain_s += t1 - t0 + sum(x.wall_s for x in plain)
    traced_s += t2 - t1 + sum(x.wall_s for x in spanned)

    failures = [f for x in warm + plain + spanned for f in x.failures] + plain_eval + spanned_eval
    attempted = sum(x.attempted for x in warm + plain + spanned) + 2
    for i, (a, b) in enumerate(zip(plain, spanned)):
        attempted += 1
        if a.result != b.result:
            failures.append(f"round {i}: traced result {b.result} differs from plain {a.result}")
    attempted += 1
    if plain_cov != spanned_cov:
        failures.append(f"traced coverage {spanned_cov!r} differs from plain {plain_cov!r}")

    summary = rec.summary()
    metrics = {}
    for name in span_names():
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    decisions = sum(x.decisions for x in spanned)
    counts = rec.counts
    r = rates(plain)
    metrics.update({
        "decisions": decisions,
        "episodes": sum(x.episodes for x in spanned),
        "tensor.tape_ops_per_decision": counts.get("tape_ops", 0) / decisions if decisions else 0.0,
        "graphnet.nodes_per_encode": counts.get("encode_nodes", 0) / max(counts.get("encodes", 0), 1),
        "graphnet.edges_per_encode": counts.get("encode_edges", 0) / max(counts.get("encodes", 0), 1),
        "karel.execute_per_world": execute_per_world(rec),
        "trainer.skipped_updates": sum(x.skipped for x in spanned),
        "trainer.rollout_decisions_per_s": r["rollout_decisions_per_s"],
        "trainer.learner_decisions_per_s": r["learner_decisions_per_s"],
        "trace.plain_s": plain_s,
        "trace.traced_s": traced_s,
        "trace.overhead_share": traced_s / plain_s - 1.0,
    })
    rec.write(spans_path)
    detail = {
        "rounds": len(plain),
        "first_results": first_results(plain),
        "heldout_coverage": plain_cov,
        "spans": len(rec),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "expected_effect": EXPECTED_EFFECT,
    }
    return metrics, attempted, failures, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: tiny updates and protocols, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload, args.seed, workloads.QUICK if args.quick else workloads.FULL)
    OUT.mkdir(exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, attempted, failures, detail = traced_run(wl, OUT / f"spans-{base}.csv.gz")
        catalog = per_layer_catalog()
    else:
        values, attempted, failures, detail = plain_run(wl, args.seconds)
        catalog = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in catalog}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }
    meta = {"stamp": stamp(args), "failures": failures[:20], "detail": detail}
    (OUT / f"result-{base}.json").write_text(json.dumps({**meta, "result": result}, indent=1) + "\n")
    print(json.dumps(meta["stamp"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
