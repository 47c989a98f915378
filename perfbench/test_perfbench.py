"""The benchmark's own checks: span arithmetic, patch hygiene, the metric
catalogue against BENCHMARK.json, and a quick run of every workload."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and c
    # [9, 12], which runs past the root's end; a has a child g [1.5, 2].
    starts = [0.0, 1.0, 3.0, 9.0, 1.5]
    ends = [10.0, 4.0, 6.0, 12.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    got = self_times(starts, ends, parents)
    # root: 10 - |[1, 6] + [9, 10]| = 4; a: 3 - 0.5; b and c have no children.
    assert got == pytest.approx([4.0, 2.5, 3.0, 3.0, 0.5])


def test_recorder_nests_spans_and_groups_them():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0, 10.0, 11.0])
    rec = Recorder(clock=lambda: next(ticks))
    outer = rec.open("outer")  # 0
    inner = rec.open("inner")  # 1
    assert rec.inside("outer") and rec.inside("inner")
    rec.close(inner)  # 2
    rec.next_group()
    inner = rec.open("inner")  # 4
    rec.close(inner)  # 5
    rec.close(outer)  # 9
    assert not rec.inside("outer")
    other = rec.open("outer")  # 10
    rec.close(other)  # 11
    assert list(rec.parent) == [-1, 0, 0, -1]
    assert list(rec.group_of) == [0, 0, 1, 1]
    summary = rec.summary()
    assert summary["inner"] == (2, pytest.approx(2.0))
    assert summary["outer"] == (2, pytest.approx(9.0 - 2.0 + 1.0))


def test_recorder_rejects_out_of_order_close():
    rec = Recorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError, match="out of order"):
        rec.close(outer)


def test_traced_puts_every_original_back():
    before = [getattr(owner, attr) for _, owner, attr in layers.TARGETS]
    with layers.traced(Recorder()):
        during = [getattr(owner, attr) for _, owner, attr in layers.TARGETS]
    after = [getattr(owner, attr) for _, owner, attr in layers.TARGETS]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_kind_cost_is_wall_time_over_reference_time():
    rounds = [workloads.Round(wall_s=3.0, ref_s=0.5), workloads.Round(wall_s=5.0, ref_s=1.5)]
    assert run.kind_cost(rounds) == pytest.approx(4.0)


def test_reference_reaches_the_same_nodes_every_time():
    graphs = run.reference_graphs()
    searches = sum(s for _, _, s in run.REFERENCE_GRAPHS)
    assert run.reference(graphs) == run.reference(run.reference_graphs()) > searches


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19)))["percentile"] is None
    t = run.tail([float(i) for i in range(1, 21)])
    assert (t["percentile"], t["value_s"], t["samples"]) == (50.0, 10.0, 20)
    t = run.tail([float(i) for i in range(1, 101)])
    assert (t["percentile"], t["value_s"]) == (90.0, 90.0)


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.per_layer_catalog()
    ]
    assert set(layers.EXPECTED_EFFECT) == {n for n, _, _ in layers.TARGETS}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _check(proc, catalog):
    assert proc.returncode == 0, proc.stderr
    *_, stamp_line, last = proc.stdout.strip().splitlines()
    stamp = json.loads(stamp_line)
    assert {"git_sha", "python", "numpy", "nproc", "seed"} <= set(stamp)
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m[0] for m in catalog]
    for (name, unit, *_), got in zip(catalog, result["metrics"].values()):
        assert got["unit"] == unit
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), name
    detail = ROOT / ".bench_out" / f"result-{stamp['workload']}-seed3-trace{stamp['trace']}.json"
    return json.loads(detail.read_text())["detail"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_runs_report_every_metric_and_repeat(workload):
    plain = _check(_run(workload, 0), run.END_TO_END)
    traced = _check(_run(workload, 1), run.per_layer_catalog())
    # Separate processes, traced or not: the same seed gives the same results.
    assert plain["first_results"] == traced["first_results"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("protocols", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
