"""Tests of the benchmark's own code: statistics, failure counting, the
output oracle, span folding, process teardown, the metric catalogue, and
a smoke run of every workload."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import catalog, common, oracle, spans
from perfbench.run import WORKLOADS
from perfbench.serving import ResponseChecker

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


# -- statistics ---------------------------------------------------------------


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=101))
    for q in (0, 10, 50, 90, 99, 100):
        assert common.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)))
    assert common.percentile([1.0, 2.0], 50) == 1.5
    assert common.median([3.0, 1.0, 2.0]) == 2.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        common.percentile([], 50)
    with pytest.raises(ValueError):
        common.percentile([1.0], 101)


def test_geomean():
    assert common.geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
    assert common.geomean([7.5]) == pytest.approx(7.5)
    with pytest.raises(ValueError):
        common.geomean([])
    with pytest.raises(ValueError):
        common.geomean([1.0, 0.0])


# -- failure counting and the printed result ----------------------------------


def test_outcome_counts_attempts_and_failures():
    outcome = common.Outcome()
    assert outcome.record(True)
    assert not outcome.record(False, "wrong output")
    outcome.fail("teardown left a process")
    assert (outcome.attempted, outcome.failed) == (2, 2)
    assert outcome.reasons == ["wrong output", "teardown left a process"]


def test_report_result_shape_and_guards(capsys):
    report = common.Report()
    report.add("latency_p50_ms", 1.25, "ms", samples=10)
    with pytest.raises(ValueError):
        report.add("latency_p50_ms", 2.0, "ms")
    with pytest.raises(ValueError):
        report.add("bad", float("nan"), "ms")
    outcome = common.Outcome()
    outcome.record(True)
    report.emit(outcome)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["metrics"] == {"latency_p50_ms": {"value": 1.25,
                                                    "unit": "ms"}}
    outcome.record(False, "x")
    assert report.result(outcome)["correct"] is False


# -- output oracle ------------------------------------------------------------


def test_oracle_accepts_equal_and_catches_corruption():
    want = {"y": np.linspace(0.0, 1.0, 8), "z": np.array([1.0 + 2.0j])}
    good = {"y": want["y"].copy(), "z": want["z"].copy()}
    assert oracle.mismatches(good, want, oracle.ZOO_TOLERANCE) == []
    corrupt = {"y": want["y"].copy(), "z": want["z"].copy()}
    corrupt["y"][3] += 1e-6
    problems = oracle.mismatches(corrupt, want, oracle.ZOO_TOLERANCE)
    assert len(problems) == 1 and "'y'" in problems[0]
    # The corpus tolerance absorbs what the zoo tolerance rejects.
    assert oracle.mismatches(corrupt, want, oracle.CORPUS_TOLERANCE) == []
    assert oracle.mismatches({"y": want["y"]}, want, oracle.ZOO_TOLERANCE)
    short = {"y": want["y"][:4], "z": want["z"]}
    assert oracle.mismatches(short, want, oracle.ZOO_TOLERANCE)


def test_decode_json_array_restores_complex():
    decoded = oracle.decode_json_array([{"re": 1.0, "im": -2.0},
                                        {"re": 0.5, "im": 0.0}])
    assert decoded.dtype == np.complex128
    assert decoded[0] == 1.0 - 2.0j


def _response(outputs: dict, digest: str) -> dict:
    return {"ok": True, "result": {"output_sha256": digest,
                                   "outputs": outputs}}


def test_response_checker_counts_wrong_and_inconsistent_outputs():
    refs = {("M", 1): {"y": np.array([1.0, 2.0])}}
    checker = ResponseChecker(refs, oracle.ZOO_TOLERANCE)
    assert checker.check(("M", 1), _response({"y": [1.0, 2.0]}, "a"),
                         "") is None
    assert checker.check(("M", 1), _response({}, "a"), "") is None
    assert "differs" in checker.check(("M", 1), _response({}, "b"), "")
    assert checker.check(("M", 1), None, "TimeoutError: x") \
        == "TimeoutError: x"
    failed = {"ok": False, "error": {"type": "busy", "message": "full"}}
    assert "[busy]" in checker.check(("M", 1), failed, "")

    corrupted = ResponseChecker(refs, oracle.ZOO_TOLERANCE)
    assert corrupted.check(("M", 1), _response({"y": [1.0, 2.5]}, "c"),
                           "")
    # A repeat of a wrong first answer is wrong too.
    assert "repeats" in corrupted.check(("M", 1), _response({}, "c"), "")


# -- span folding -------------------------------------------------------------


def _node(name, start, wall, children=()):
    return {"name": name, "start_unix": start, "wall_seconds": wall,
            "children": list(children)}


def test_self_times_subtract_covered_child_intervals():
    forest = [_node("request", 0.0, 10.0, [
        _node("queue.wait", 0.0, 2.0),
        _node("pool.execute", 3.0, 6.0, [
            _node("worker.handle", 4.0, 4.0, [
                _node("vm.run", 5.0, 1.0),
                _node("cache.lookup", 5.5, 1.0),  # overlaps vm.run
            ]),
        ]),
    ])]
    own = spans.self_times(forest)
    assert own["request"] == pytest.approx(2.0)
    assert own["pool.execute"] == pytest.approx(2.0)
    assert own["worker.handle"] == pytest.approx(2.5)
    assert own["vm.run"] == pytest.approx(1.0)
    # Overlapping siblings each keep their own time, so the self times
    # add up to the root's duration plus the overlap.
    assert sum(own.values()) == pytest.approx(10.0 + 0.5)
    assert spans.durations(forest)["worker.handle"] == pytest.approx(4.0)


# -- catalogue and BENCHMARK.json ---------------------------------------------


def test_benchmark_json_matches_catalogue_and_format_limits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["end_to_end"]] == list(catalog.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(catalog.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 for n in names)


# -- processes ----------------------------------------------------------------


def _env(tmp_path) -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                TMPDIR=str(tmp_path))


@pytest.mark.parametrize("extra", [[], ["--cluster", "2", "--workers", "1"]],
                         ids=["plain", "cluster"])
def test_teardown_leaves_no_process(tmp_path, extra):
    assert common.serve_processes() == []
    server = common.ServeProcess(
        ["--port", "0", "--cache-dir", str(tmp_path / "cache"), *extra],
        ROOT, _env(tmp_path))
    server.start()
    try:
        if extra:
            server.wait_output(r"shard s\d+ on ", 2)
        # The tree can still be growing after the announce.
        deadline = time.monotonic() + 10
        while len(server.record_tree()) < 3 and time.monotonic() < deadline:
            time.sleep(0.1)
        tree = dict(server.tree)
        assert len(tree) >= 3  # main process plus workers (or shards)
        assert server.peak_rss_mb() > 0
    finally:
        killed = server.stop()
    assert killed == []  # SIGINT alone brought the whole tree down
    assert not any(common.alive(pid, start) for pid, start in tree.items())
    assert common.serve_processes() == []


def test_cpu_times_and_steal_share():
    before = common.cpu_times()
    after = dict(before, steal=before["steal"] + 5, idle=before["idle"] + 95)
    assert common.steal_share(before, after) == pytest.approx(0.05)
    assert common.steal_share(before, before) == 0.0


# -- the command --------------------------------------------------------------


def _run(args, cwd=ROOT, script=RUN, timeout=170):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", ["serve-hot", "serve-cold", "kernel"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "2",
                 "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = catalog.PER_LAYER if trace == "1" else catalog.END_TO_END
    assert set(result["metrics"]) == {n for n, _, _ in wanted}
    for name, unit, _ in wanted:
        assert result["metrics"][name]["unit"] == unit
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert common.serve_processes() == []


def test_counts_repeat_exactly_across_runs():
    counts = []
    for _ in range(2):
        proc = _run(["--workload", "serve-cold", "--seed", "9", "--seconds",
                     "2", "--trace", "1", "--smoke"])
        assert proc.returncode == 0, proc.stderr[-2000:]
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] in ("count", "bytes", "ratio")})
    assert counts[0] == counts[1]


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "kernel", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
