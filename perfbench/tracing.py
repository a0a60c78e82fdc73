"""Spans and counts around calls into momentsdp, recorded from outside.

The tracer swaps module attributes for timing wrappers and puts the
originals back on `uninstall`.  A momentsdp function is swapped in every
momentsdp module that binds it (`from .sdp import solve` makes a second
binding in the importing module), so calls made inside the package are
seen too.  A third-party function is swapped only at the one binding
named, so that it is timed only where momentsdp calls it through that name.

Targets that a later version of the package no longer has are skipped:
their metrics then read 0 instead of the benchmark failing.

Spans are (id, parent id, case id, name, start, end) tuples kept in memory;
`write_spans` writes them out once the run is over.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

perf_counter = time.perf_counter

# Per-layer metrics of one traced pass, with their units.  The names are
# the `per_layer` names of BENCHMARK.json.
LAYERS = ("sdp", "relaxation", "moments", "gmp", "extraction",
          "casestudies", "problemfile", "spectra", "cli")

LAYER_METRICS: dict[str, str] = {
    "sdp.solve_s": "s",
    "sdp.solves": "count",
    "sdp.iterations": "count",
    "sdp.iter_ms": "ms",
    "sdp.m_sum": "count",
    "sdp.not_optimal": "count",
    "sdp.step_chol_calls": "count",
    "sdp.step_chol_s": "s",
    "sdp.factor_calls": "count",
    "sdp.factor_s": "s",
    "sdp.cho_solve_calls": "count",
    "sdp.cho_solve_s": "s",
    "sdp.other_s": "s",
    "relaxation.plan_s": "s",
    "relaxation.dedupe_s": "s",
    "relaxation.rows_deduped": "count",
    "relaxation.prune_s": "s",
    "relaxation.rows_pruned": "count",
    "relaxation.assemble_s": "s",
    "relaxation.assembles": "count",
    "relaxation.A_mb": "MB",
    "moments.stencil_s": "s",
    "moments.stencil_entries": "count",
    "gmp.liouville_s": "s",
    "gmp.liouville_rows": "count",
    "gmp.build_s": "s",
    "gmp.resolve_s": "s",
    "extraction.certify_s": "s",
    "extraction.certify_calls": "count",
    "extraction.flat": "count",
    "casestudies.build_s": "s",
    "problemfile.load_s": "s",
    "spectra.shadow_s": "s",
    "spectra.defining_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}

# metric name -> span name whose summed duration it reports
_SPAN_TIMES = {
    "sdp.solve_s": "sdp.solve",
    "sdp.step_chol_s": "sdp.step_chol",
    "sdp.factor_s": "sdp.factor",
    "sdp.cho_solve_s": "sdp.cho_solve",
    "relaxation.plan_s": "relaxation.plan",
    "relaxation.dedupe_s": "relaxation.dedupe",
    "relaxation.prune_s": "relaxation.prune",
    "relaxation.assemble_s": "relaxation.assemble",
    "moments.stencil_s": "moments.stencil",
    "gmp.liouville_s": "gmp.liouville",
    "gmp.build_s": "gmp.build",
    "gmp.resolve_s": "gmp.resolve",
    "extraction.certify_s": "extraction.certify",
    "casestudies.build_s": "casestudies.build",
    "problemfile.load_s": "problemfile.load",
    "spectra.shadow_s": "spectra.shadow",
    "spectra.defining_s": "spectra.defining",
}
# metric name -> span name whose number of calls it reports
_SPAN_CALLS = {
    "sdp.solves": "sdp.solve",
    "sdp.step_chol_calls": "sdp.step_chol",
    "sdp.factor_calls": "sdp.factor",
    "sdp.cho_solve_calls": "sdp.cho_solve",
    "relaxation.assembles": "relaxation.assemble",
    "extraction.certify_calls": "extraction.certify",
}


def nbytes(obj) -> int:
    """Bytes of the numpy arrays reachable from obj through containers."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(v) for v in obj)
    if hasattr(obj, "__dict__"):
        return sum(nbytes(v) for v in vars(obj).values())
    return 0


# -- result hooks: counts taken at the same boundary as the span ---------------


def _on_solve(tr: "Tracer", args, result) -> None:
    tr.counts["sdp.iterations"] += result.iterations
    tr.counts["sdp.m_sum"] += args[0].m
    tr.counts["sdp.not_optimal"] += result.status != "optimal"


def _on_dedupe(tr: "Tracer", args, result) -> None:
    tr.counts["relaxation.rows_deduped"] += len(args[0]) - len(result)


def _on_prune(tr: "Tracer", args, result) -> None:
    tr.counts["relaxation.rows_pruned"] += len(args[0]) - len(result)


def _on_assemble(tr: "Tracer", args, result) -> None:
    mb = nbytes(result.program.A) / 1e6
    tr.counts["relaxation.A_mb"] = max(tr.counts["relaxation.A_mb"], mb)


def _on_stencil(tr: "Tracer", args, result) -> None:
    tr.counts["moments.stencil_entries"] += sum(len(p) for p in result.cells.values())


def _on_liouville(tr: "Tracer", args, result) -> None:
    tr.counts["gmp.liouville_rows"] += len(result[0])


def _on_certify(tr: "Tracer", args, result) -> None:
    tr.counts["extraction.flat"] += bool(result.flat)


# (span name, module, attribute, result hook, only inside this span)
TARGETS: list[tuple[str, str, str, Optional[Callable], Optional[str]]] = [
    ("sdp.solve", "momentsdp.sdp", "solve", _on_solve, None),
    # the step-length bisection is the only caller of numpy's cholesky
    # inside a solve; the Schur factorizations go through scipy
    ("sdp.step_chol", "numpy.linalg", "cholesky", None, "sdp.solve"),
    ("sdp.factor", "momentsdp.sdp", "cho_factor", None, None),
    ("sdp.cho_solve", "momentsdp.sdp", "cho_solve", None, None),
    ("relaxation.plan", "momentsdp.relaxation", "measure_plan", None, None),
    ("relaxation.dedupe", "momentsdp.relaxation", "dedupe_rows", _on_dedupe, None),
    ("relaxation.prune", "momentsdp.relaxation", "prune_dependent_rows", _on_prune, None),
    ("relaxation.assemble", "momentsdp.relaxation", "assemble", _on_assemble, None),
    ("moments.stencil", "momentsdp.moments", "moment_matrix_stencil", _on_stencil, None),
    ("moments.stencil", "momentsdp.moments", "localizing_matrix_stencil", _on_stencil, None),
    ("gmp.liouville", "momentsdp.gmp", "piecewise_liouville", _on_liouville, None),
    ("gmp.build", "momentsdp.gmp", "build_gmp_relaxation", None, None),
    ("gmp.resolve", "momentsdp.gmp", "resolve_minimal_time", None, None),
    ("extraction.certify", "momentsdp.extraction", "certify", _on_certify, None),
    ("problemfile.load", "momentsdp.problemfile", "load_problem", None, None),
    ("spectra.shadow", "momentsdp.spectra", "shadow_support_points", None, None),
    ("spectra.defining", "momentsdp.spectra", "defining_polynomials", None, None),
    ("cli.main", "momentsdp.cli", "main", None, None),
]


def _casestudies_targets() -> list[tuple]:
    mod = sys.modules["momentsdp.casestudies"]
    return [
        ("casestudies.build", mod.__name__, name, None, None)
        for name, value in sorted(vars(mod).items())
        if name.startswith("build_") and getattr(value, "__module__", None) == mod.__name__
    ]


class Tracer:
    """Timing wrappers installed on module attributes, with spans and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counts: Counter = Counter()
        self.case = ""
        self._next_id = 0
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, func: Callable, hook: Optional[Callable], inside: Optional[str]):
        stack, opened = self._stack, self._open

        def wrapper(*args, **kwargs):
            if inside is not None and not opened[inside]:
                return func(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            opened[name] += 1
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                opened[name] -= 1
                stack.pop()
                self.spans.append((sid, parent, self.case, name, t0, t1))
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def span(self, name: str, func: Callable, *args, **kwargs):
        """Call func inside a span of the given name (for the benchmark's own spans)."""
        return self._wrap(name, func, None, None)(*args, **kwargs)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "momentsdp" or name.startswith("momentsdp."))
        }
        for span_name, mod_name, attr, hook, inside in TARGETS + _casestudies_targets():
            owner = sys.modules.get(mod_name)
            func = getattr(owner, attr, None) if owner is not None else None
            if func is None:
                continue
            wrapper = self._wrap(span_name, func, hook, inside)
            if mod_name.startswith("momentsdp"):
                bindings = [
                    (mod, key)
                    for mod in modules.values()
                    for key, value in list(vars(mod).items())
                    if value is func
                ]
            else:
                bindings = [(owner, attr)]
            for mod, key in bindings:
                self._patches.append((mod, key, func))
                setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, func in reversed(self._patches):
            setattr(mod, key, func)
        self._patches.clear()

    def take(self) -> tuple[list, Counter]:
        """Spans and counts recorded since the last take; starts afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for _sid, parent, _case, _name, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for sid, _p, _c, _n, t0, t1 in spans}


def pass_metrics(spans: list, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    total = defaultdict(float)
    calls = Counter()
    layer_self = defaultdict(float)
    selfs = self_times(spans)
    for sid, _p, _c, name, t0, t1 in spans:
        total[name] += t1 - t0
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += selfs[sid]
    solve_self = sum(selfs[s[0]] for s in spans if s[3] == "sdp.solve")
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        if metric in _SPAN_TIMES:
            out[metric] = total[_SPAN_TIMES[metric]]
        elif metric in _SPAN_CALLS:
            out[metric] = calls[_SPAN_CALLS[metric]]
        elif metric.endswith(".self_s"):
            out[metric] = layer_self[metric.split(".", 1)[0]]
        else:
            out[metric] = counts.get(metric, 0)
    out["sdp.other_s"] = solve_self
    its = counts.get("sdp.iterations", 0)
    out["sdp.iter_ms"] = 1000.0 * total["sdp.solve"] / its if its else 0.0
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each metric; counts that repeat stay exact."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def write_spans(path, spans: list) -> None:
    """Write spans as tab-separated lines: id, parent, case, name, start, end."""
    with open(path, "w") as f:
        f.write("id\tparent\tcase\tname\tstart_s\tend_s\n")
        for sid, parent, case, name, t0, t1 in sorted(spans):
            f.write(f"{sid}\t{parent}\t{case}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
