#!/usr/bin/env python3
"""Run one benchmark workload of momentsdp and print its metrics.

  python3 perfbench/run.py --workload eig-ladder --seed 0 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run it from anywhere inside a checkout: the package is imported from the
checkout's `src/`, which must exist.  Load is one closed loop: one case at a
time, BLAS/OpenMP pinned to one thread.  After an untimed warm-up, passes
over the workload's cases repeat until `--seconds` have elapsed (at least
one pass).  `setup_s` is the median over fresh processes of importing
momentsdp and building the workload's inputs.

With `--trace 1` the passes alternate untraced and traced; the traced ones
give the per-layer metrics and their spans are written to
`<out>/spans/<workload>-s<seed>.tsv`.  Every run writes its record (answers,
checks, timings, environment) to `<out>/runs/<workload>/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exit code 0 when every
answer check passed, 1 when one failed, 2 when the checkout cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PINNED_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# the keys of workloads.WORKLOADS, repeated because that module imports numpy
# and the arguments are parsed before the threads are pinned
WORKLOAD_NAMES = ("eig-ladder", "shadow-64", "fixtures-cli", "relax-build")

# The end-to-end metrics printed with --trace 0, with their units.  The
# times are normalized to a nominal host speed (see reference.py); the
# measured seconds are printed and recorded beside them as *_raw_s.
END_TO_END = {
    "wall_s": "s",
    "case_s.p50": "s",
    "case_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# -- environment record ------------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "threads_pinned": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
    }


# -- measurement -------------------------------------------------------------------


def measure_setup(workload: str, seed: int, reference) -> list[tuple[float, float]]:
    """(normalized, measured) set-up seconds of SETUP_PROBES fresh processes,
    run one after another."""
    out = []
    after = reference.reference_seconds()
    for _ in range(SETUP_PROBES):
        before = after
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = reference.reference_seconds()
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        out.append((reference.normalized(raw, before, after), raw))
    return out


def run_case(case, tracer, case_id: str) -> tuple[float, dict]:
    """Seconds and answers of one case; an exception becomes an answer."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            answers = case.run()
        else:
            tracer.case = case_id
            answers = tracer.span("bench.case", case.run)
    except Exception:  # the run goes on and reports the case as failed
        answers = {"statuses": [], "checks": [], "references": [],
                   "error": traceback.format_exc()}
    return time.perf_counter() - t0, answers


def case_failed(answers: dict) -> bool:
    return "error" in answers or not all(c["ok"] for c in answers["checks"])


def run_passes(cases, seconds: float, tracer, reference) -> list[dict]:
    """Passes over the cases until `seconds` have elapsed.

    The reference task runs before the first case and after every case, and
    each case's time is normalized by the two reference times around it.  A
    pass's wall time is the sum of its case times.  With a tracer, passes
    alternate untraced and traced, starting untraced, and at least one of
    each runs.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            results = []
            before = reference.reference_seconds()
            for case in cases:
                t, answers = run_case(case, tracer if traced else None, f"p{len(passes)}/{case.name}")
                after = reference.reference_seconds()
                results.append({"case": case.name, "seconds": reference.normalized(t, before, after),
                                "raw_seconds": t, "answers": answers})
                before = after
        finally:
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "wall_s": sum(c["seconds"] for c in results),
                  "wall_raw_s": sum(c["raw_seconds"] for c in results), "cases": results}
        if traced:
            record["spans"], record["counts"] = tracer.take()
        passes.append(record)
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - start >= seconds:
            return passes


def answer_summary(passes: list[dict]) -> dict:
    """Attempted and failed case runs, the solve failure share and reference misses."""
    runs = [c for p in passes for c in p["cases"]]
    outcomes = bad = refs = misses = 0
    for c in runs:
        a = c["answers"]
        if "error" in a:
            outcomes, bad = outcomes + 1, bad + 1
            continue
        outcomes += max(1, len(a["statuses"]))
        bad += sum(s != "optimal" for s in a["statuses"])
        refs += len(a["references"])
        misses += sum(r["miss"] for r in a["references"])
    return {
        "attempted": len(runs),
        "failed": sum(case_failed(c["answers"]) for c in runs),
        "failed_frac": bad / outcomes,
        "failed_frac_of": outcomes,
        "bound_miss_frac": misses / refs if refs else None,
        "bound_miss_of": refs,
    }


def end_to_end(passes: list[dict], setup: list[tuple[float, float]]) -> dict[str, float]:
    """END_TO_END metrics, then the same times as measured (*_raw_s)."""
    untraced = [p for p in passes if not p["traced"]]
    norm = [c["seconds"] for p in untraced for c in p["cases"]]
    raw = [c["raw_seconds"] for p in untraced for c in p["cases"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "case_s.p50": statistics.median(norm),
        "case_s.p90": _p90(norm),
        "setup_s": statistics.median(n for n, _raw in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_raw_s": statistics.median(p["wall_raw_s"] for p in untraced),
        "case_raw_s.p50": statistics.median(raw),
        "case_raw_s.p90": _p90(raw),
        "setup_raw_s": statistics.median(r for _n, r in setup),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    metrics = tracing.median_metrics(
        [tracing.pass_metrics(p["spans"], p["counts"]) for p in traced]
    )
    metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in passes if not p["traced"]
    )
    return metrics


# -- output ------------------------------------------------------------------------


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def describe_case(name: str, a: dict) -> str:
    keys = ("status", "bound", "objective", "iterations", "primal_residual",
            "dual_residual", "flat", "optimal", "worst_slack", "m", "A_mb", "exit_code")
    parts = [f"{k}={_fmt(a[k])}" for k in keys if k in a]
    failed = [c["check"] for c in a["checks"] if not c["ok"]]
    if "error" in a:
        parts.append("ERROR " + a["error"].strip().splitlines()[-1])
    parts.append(f"checks: {'FAILED ' + '; '.join(failed) if failed else 'ok'}")
    return f"case {name}: " + " ".join(parts)


def write_record(out_dir: Path, record: dict) -> Path:
    runs = out_dir / "runs" / record["workload"]
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(record["started"]))
    path = runs / f"{stamp}-{time.time_ns() % 10**9:09d}-s{record['seed']}-t{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path


def run_workload(args) -> int:
    # these import numpy, so only once the threads are pinned
    import reference
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    started = time.time()
    env = environment(args.seed)
    setup = measure_setup(workload.name, args.seed, reference)

    inputs = workload.inputs(args.seed, ROOT)
    warm = [run_case(case, None, "warmup") for case in workload.warmup(inputs, args.seed)]
    cases = workload.cases(inputs, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    passes = run_passes(cases, args.seconds, tracer, reference)

    summary = answer_summary(passes)
    warm_failed = sum(case_failed(a) for _t, a in warm)
    correct = summary["failed"] == 0 and warm_failed == 0
    e2e = end_to_end(passes, setup)
    layers = per_layer(passes) if args.trace else None
    untraced = [p for p in passes if not p["traced"]]
    n_samples = sum(len(p["cases"]) for p in untraced)

    print(f"workload = {workload.name}  seed = {args.seed}  seconds = {args.seconds}  "
          f"trace = {args.trace}")
    print("environment = " + json.dumps(env))
    print("load = closed loop, 1 client, one case at a time")
    for c in passes[0]["cases"]:
        print(describe_case(c["case"], c["answers"]))
    if warm_failed:
        print(f"warm-up: {warm_failed} case(s) failed")
    print(f"times at nominal host speed, measured in brackets; reference task "
          f"{reference.NOMINAL_SECONDS} s nominal")
    print(f"wall_s = {e2e['wall_s']:.6g} s [{e2e['wall_raw_s']:.6g} s]  "
          f"(median of {len(untraced)} untraced passes)")
    print(f"case_s.p50 = {e2e['case_s.p50']:.6g} s [{e2e['case_raw_s.p50']:.6g} s]  "
          f"case_s.p90 = {e2e['case_s.p90']:.6g} s [{e2e['case_raw_s.p90']:.6g} s]  "
          f"({n_samples} case samples)")
    print(f"setup_s = {e2e['setup_s']:.6g} s [{e2e['setup_raw_s']:.6g} s]  "
          f"(median of {len(setup)} fresh processes)")
    print(f"peak_rss_mb = {e2e['peak_rss_mb']:.6g} MB")
    print(f"failed_frac = {summary['failed_frac']:.6g}  (solves not optimal or cases raised, "
          f"of {summary['failed_frac_of']})")
    if summary["bound_miss_frac"] is None:
        print("bound_miss_frac = n/a  (no case with a documented reference)")
    else:
        print(f"bound_miss_frac = {summary['bound_miss_frac']:.6g}  (of {summary['bound_miss_of']} "
              f"bounds with a reference; miss = further than {workloads.MISS_MULTIPLE} x tolerance)")
    print(f"attempted = {summary['attempted']}  failed = {summary['failed']}  correct = "
          f"{str(correct).lower()}")
    if layers is not None:
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {tracing.LAYER_METRICS[name]}")

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, "environment": env, "correct": correct,
        "summary": summary, "setup_samples": [{"normalized": n, "raw": r} for n, r in setup],
        "metrics": {k: {"value": v, "unit": END_TO_END.get(k, "s")} for k, v in e2e.items()},
        "per_layer": layers,
        "warmup": [a for _t, a in warm],
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "wall_raw_s", "cases")} for p in passes
        ],
    }
    path = write_record(Path(args.out), record)
    print(f"record = {path}")
    if args.trace:
        spans_dir = Path(args.out) / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{workload.name}-s{args.seed}.tsv"
        tracing.write_spans(spans_path, [s for p in passes if p["traced"] for s in p["spans"]])
        print(f"spans = {spans_path}")

    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k]} for k, v in layers.items()}
    else:
        metrics = {k: record["metrics"][k] for k in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process; metrics keyed workload.metric."""
    correct, attempted, failed, metrics, code = True, 0, 0, {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", args.out],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        code = max(code, proc.returncode)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / ".perfbench"),
                    help="directory for run records and spans")
    args = ap.parse_args(argv)

    if not (SRC / "momentsdp" / "__init__.py").is_file():
        print(f"error: no momentsdp package under {SRC}", file=sys.stderr)
        return 2
    # pin the thread pools before anything imports numpy; child processes
    # inherit the pins
    for var in THREAD_VARS:
        os.environ[var] = PINNED_THREADS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
