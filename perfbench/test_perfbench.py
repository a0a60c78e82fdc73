"""Smoke tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def test_benchmark_json_names_match_the_outputs():
    import workloads

    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert _names(SPEC["end_to_end"]) == run.END_TO_END
    assert _names(SPEC["per_layer"]) == tracing.LAYER_METRICS
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run(args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    proc = _run(["--workload", "shadow-64", "--seed", "3", "--seconds", "0", "--trace", "0",
                 "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(list((tmp_path / "runs" / "shadow-64").glob("*.json"))) == 1


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    proc = _run(["--workload", "shadow-64", "--seed", "0", "--seconds", "0", "--trace", "1",
                 "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    metrics = _last_json(proc.stdout)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _names(SPEC["per_layer"])
    assert metrics["sdp.solves"]["value"] == 64
    assert metrics["relaxation.assembles"]["value"] == 64
    assert metrics["sdp.step_chol_calls"]["value"] > 0
    header = (tmp_path / "spans" / "shadow-64-s0.tsv").read_text().splitlines()[0]
    assert header.split("\t") == ["id", "parent", "case", "name", "start_s", "end_s"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "eig-ladder", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_binding_and_restores_them():
    import momentsdp
    import momentsdp.relaxation
    import momentsdp.sdp
    import numpy

    solve, cholesky = momentsdp.sdp.solve, numpy.linalg.cholesky
    tr = tracing.Tracer()
    tr.install()
    try:
        assert momentsdp.sdp.solve is not solve
        assert momentsdp.relaxation.solve is momentsdp.sdp.solve is momentsdp.solve
        numpy.linalg.cholesky(numpy.eye(2))  # outside a solve: not traced
        assert tr.spans == []
    finally:
        tr.uninstall()
    assert momentsdp.sdp.solve is solve and momentsdp.relaxation.solve is solve
    assert numpy.linalg.cholesky is cholesky


def test_self_time_subtracts_direct_children():
    spans = [
        (0, -1, "c", "cli.main", 0.0, 10.0),
        (1, 0, "c", "sdp.solve", 1.0, 7.0),
        (2, 1, "c", "sdp.step_chol", 2.0, 3.0),
        (3, 1, "c", "sdp.factor", 3.0, 5.0),
    ]
    assert tracing.self_times(spans) == {0: 4.0, 1: 3.0, 2: 1.0, 3: 2.0}
    m = tracing.pass_metrics(spans, Counter({"sdp.iterations": 4}))
    assert m["sdp.solve_s"] == 6.0 and m["sdp.other_s"] == 3.0
    assert m["sdp.step_chol_calls"] == 1 and m["sdp.iter_ms"] == 1500.0
    assert m["cli.self_s"] == 4.0 and m["sdp.self_s"] == 6.0


def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(faster, parent, "higher", 0.1)[0] == "improved"
