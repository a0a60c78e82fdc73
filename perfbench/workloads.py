"""The benchmark's workloads: inputs made from the seed, cases and answer checks.

Each case calls momentsdp through module attributes (`relaxation.bound_and_moments`,
not a name imported from it), so the tracer's wrappers see every call.  A
case returns its answers as a dict:

  statuses   solver statuses of the solves it made (empty when it made none)
  checks     [{"check", "ok", "value", "limit"}]; any failed check fails the run
  references [{"reference", "bound", "slack", "miss"}] for documented values

plus what it records about the answer (bound, iterations, residuals, ...).
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import momentsdp.casestudies as casestudies
import momentsdp.cli as cli
import momentsdp.extraction as extraction
import momentsdp.gmp as gmp
import momentsdp.relaxation as relaxation
import momentsdp.sdp as sdp
import momentsdp.spectra as spectra

from tracing import nbytes

# A bound misses its reference when it lies further from it than this many
# times the requested relative tolerance; a lower bound above its reference
# by more than the same slack fails the run.
MISS_MULTIPLE = 10

SQRT5 = math.sqrt(5)
PLANAR_MIN = -(1 + SQRT5) / 2
PLANAR_MINIMIZER = ((1 - SQRT5) / 2, (1 + SQRT5) / 2)
SHADOW_SLACK = 1e-6  # how far an optimal shadow halfspace may cut the minimizer

EIG_ORDER = 3
EIG_OPTIONS = {"gap_tol": 1e-4, "feas_tol": 1e-5}
EIG_REFERENCE = {4: 0.011941, 5: 0.008805}  # tight order-3 relaxation values

SHADOW_ORDER = 2
SHADOW_DIRECTIONS = 64

CLI_TOL = 1e-6  # the CLI's default --tol
# (file, --order or None for the minimal order, documented lower bound or None)
FIXTURES = [
    ("bolza.gmp", 3, 0.0),
    ("decay_energy.gmp", 4, 3 / 8),
    ("eigassign2.pop", None, None),
    ("eigassign3.pop", None, None),
    ("eigassign4.pop", 3, EIG_REFERENCE[4]),
    ("lqr_scalar.gmp", 3, 1.0),
    ("pillow.pencil", None, None),
    ("planar_nonconvex.pop", 3, PLANAR_MIN),
    ("power_chain.pencil", None, None),
    ("saturation3.gmp", 3, None),
    ("sqrt2.sdp", None, None),
    ("sqrt2_point.sdp", None, None),
    ("unit_disk.pop", None, None),
]
CLI_WARMUP = ("eigassign3.pop", "bolza.gmp", "sqrt2.sdp", "pillow.pencil")

RELAX_ORDER = 4
SATURATION_ORDER = 5


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, Path], object]  # (seed, repository root) -> inputs
    cases: Callable[[object, int], list[Case]]
    warmup: Callable[[object, int], list[Case]]  # untimed, run once first


def _answers(**fields) -> dict:
    return {"statuses": [], "checks": [], "references": [], **fields}


def _check(a: dict, name: str, ok: bool, value, limit) -> None:
    a["checks"].append({"check": name, "ok": bool(ok), "value": value, "limit": limit})


def _lower_bound(a: dict, bound: float, reference: float, tol: float) -> None:
    slack = MISS_MULTIPLE * tol * (1.0 + abs(reference))
    _check(a, "bound <= reference + slack", bound <= reference + slack, bound, reference + slack)
    a["references"].append(
        {"reference": reference, "bound": bound, "slack": slack,
         "miss": not abs(bound - reference) <= slack}
    )


def _solution_fields(sol, bound: float) -> dict:
    return {
        "status": sol.status,
        "bound": float(bound),
        "iterations": int(sol.iterations),
        "gap": float(sol.gap),
        "primal_residual": float(sol.primal_residual),
        "dual_residual": float(sol.dual_residual),
    }


# -- eig-ladder ------------------------------------------------------------------


def _eig_inputs(seed: int, root: Path) -> dict:
    return {n: casestudies.build_eig_assign(n) for n in (4, 5, 6)}


def _eig_case(pop, n: int, seed: int) -> Case:
    def run() -> dict:
        res = relaxation.bound_and_moments(pop, EIG_ORDER, sdp.SolveOptions(**EIG_OPTIONS))
        a = _answers(**_solution_fields(res.solution, res.bound))
        a["statuses"].append(res.solution.status)
        fs = pop.feasible_set
        constraints = [("ineq", q) for q in fs.effective_inequalities()]
        constraints += [("eq", q) for q in fs.equalities]
        try:
            cert = extraction.certify(
                res.moments, EIG_ORDER, res.info.r_x, seed=seed, constraints=constraints
            )
            a.update(flat=bool(cert.flat), ranks=list(cert.ranks), atoms=len(cert.atoms))
        except extraction.ExtractionError as e:
            # certify raises only after finding the moments flat
            a.update(flat=True, extraction_failed=str(e))
        _check(a, "bound is finite", math.isfinite(res.bound), res.bound, None)
        if n in EIG_REFERENCE:
            _lower_bound(a, res.bound, EIG_REFERENCE[n], EIG_OPTIONS["gap_tol"])
        return a

    return Case(f"eig{n}", run)


def _eig_cases(inputs: dict, seed: int) -> list[Case]:
    return [_eig_case(inputs[n], n, seed) for n in (4, 5, 6)]


# -- shadow-64 -------------------------------------------------------------------


def _shadow_inputs(seed: int, root: Path):
    pop = casestudies.build_polyopt()
    phase = 0.0 if seed == 0 else random.Random(seed).random()
    k = SHADOW_DIRECTIONS
    if phase == 0.0:
        directions = spectra.unit_directions(k)
    else:
        directions = [
            (math.cos(2 * math.pi * (t + phase) / k), math.sin(2 * math.pi * (t + phase) / k))
            for t in range(k)
        ]
    return pop.feasible_set, directions


def _fan(feasible_set, directions, name: str) -> Case:
    def run() -> dict:
        points = spectra.shadow_support_points(feasible_set, SHADOW_ORDER, directions)
        a = _answers(directions=[])
        worst = math.inf
        for p in points:
            a["statuses"].append(p.status)
            slack = p.value - (
                p.direction[0] * PLANAR_MINIMIZER[0] + p.direction[1] * PLANAR_MINIMIZER[1]
            )
            a["directions"].append(
                {"direction": list(p.direction), "status": p.status, "value": p.value,
                 "slack": slack}
            )
            if p.status == "optimal":
                worst = min(worst, slack)
        a["optimal"] = a["statuses"].count("optimal")
        a["worst_slack"] = worst
        _check(a, "one point per direction", len(points) == len(directions),
               len(points), len(directions))
        _check(a, "optimal halfspaces contain the minimizer", worst >= -SHADOW_SLACK,
               worst, -SHADOW_SLACK)
        return a

    return Case(name, run)


def _shadow_cases(inputs, seed: int) -> list[Case]:
    feasible_set, directions = inputs
    return [_fan(feasible_set, directions, "fan64")]


def _shadow_warmup(inputs, seed: int) -> list[Case]:
    feasible_set, directions = inputs
    return [_fan(feasible_set, directions[::16], "fan4")]


# -- fixtures-cli ----------------------------------------------------------------


def _cli_inputs(seed: int, root: Path) -> list[tuple[str, list[str], float | None]]:
    out = []
    for name, order, reference in FIXTURES:
        path = root / "fixtures" / name
        if not path.is_file():
            raise FileNotFoundError(path)
        argv = ["solve", str(path), "--extract", "--seed", str(seed)]
        if order is not None:
            argv += ["--order", str(order)]
        out.append((name, argv, reference))
    return out


def _parse_report(text: str) -> dict:
    """Header `key = value` lines, plus the flat flags of certificate sections."""
    head: dict[str, str] = {}
    flats: list[bool] = []
    section = None
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        elif " = " in line:
            key, value = line.split(" = ", 1)
            if section is None:
                head[key] = value
            elif section.startswith("[certificate") and key == "flat":
                flats.append(value == "true")
    head["flat"] = flats
    return head


def _cli_case(name: str, argv: list[str], reference) -> Case:
    def run() -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        rep = _parse_report(out.getvalue())
        status = rep.get("status")
        a = _answers(exit_code=code, kind=rep.get("kind"), status=status, flat=rep["flat"])
        for key in ("bound", "objective", "iterations", "gap", "primal_residual",
                    "dual_residual", "terminal_time"):
            if key in rep:
                a[key] = float(rep[key])
        if status is not None:
            a["statuses"].append(status)
        want = 0 if status in (None, "optimal") else 2
        _check(a, "exit code matches status", code == want, code, want)
        if err.getvalue():
            a["stderr"] = err.getvalue()
        if reference is not None:
            _lower_bound(a, a.get("bound", math.nan), reference, CLI_TOL)
        return a

    return Case(name, run)


def _cli_cases(inputs, seed: int) -> list[Case]:
    return [_cli_case(*item) for item in inputs]


def _cli_warmup(inputs, seed: int) -> list[Case]:
    return [_cli_case(*item) for item in inputs if item[0] in CLI_WARMUP]


# -- relax-build -----------------------------------------------------------------


def _point_mass(exponents, x) -> list[float]:
    return [math.prod(xi**e for xi, e in zip(x, exp)) for exp in exponents]


def _program_answers(asm, objective_terms, objective_constant, rng: random.Random,
                     expected_m: int, moment_side: int) -> dict:
    """Sizes of an assembled program, checked against the moment counts, and
    its objective checked at point masses drawn from rng."""
    prog = asm.program
    a = _answers(
        m=prog.m,
        blocks=[[blk.kind, blk.size] for blk in prog.blocks],
        A_mb=nbytes(prog.A) / 1e6,
    )
    _check(a, "m is the number of moments", prog.m == expected_m, prog.m, expected_m)
    _check(a, "first block is the moment matrix", prog.blocks[0].size == moment_side,
           prog.blocks[0].size, moment_side)
    y = [0.0] * prog.m
    points = {}
    for name, off in asm.measure_offsets.items():
        exps = asm.measure_exponents[name]
        points[name] = [rng.uniform(-1.0, 1.0) for _ in exps[0]]
        y[off : off + len(exps)] = _point_mass(exps, points[name])
    got = float(asm.objective @ y) + asm.objective_constant
    want = objective_constant + sum(float(p.evaluate(points[n])) for n, p in objective_terms)
    err = abs(got - want)
    _check(a, "objective at point masses", err <= 1e-9 * (1.0 + abs(want)), err,
           1e-9 * (1.0 + abs(want)))
    return a


def _relax_inputs(seed: int, root: Path) -> dict:
    return {n: casestudies.build_eig_assign(n) for n in (5, 6)}


def _eig_relax_case(pop, n: int, seed: int) -> Case:
    def run() -> dict:
        asm, _info = relaxation.build_relaxation(pop, RELAX_ORDER)
        return _program_answers(
            asm, [("mu", pop.objective)], 0.0, random.Random(seed),
            math.comb(n + 2 * RELAX_ORDER, n), math.comb(n + RELAX_ORDER, n),
        )

    return Case(f"eig{n}-r{RELAX_ORDER}", run)


def _saturation_case(seed: int) -> Case:
    def run() -> dict:
        g = casestudies.build_saturation_cells(SATURATION_ORDER).gmp
        asm, _info = gmp.build_gmp_relaxation(g, SATURATION_ORDER)
        r = SATURATION_ORDER
        first = g.measures[0]
        return _program_answers(
            asm, g.objective, g.objective_constant, random.Random(seed),
            sum(math.comb(len(m.variables) + 2 * r, 2 * r) for m in g.measures),
            math.comb(len(first.variables) + r, r),
        )

    return Case(f"saturation{SATURATION_ORDER}", run)


def _relax_cases(inputs: dict, seed: int) -> list[Case]:
    cases = [_eig_relax_case(inputs[n], n, seed) for n in (5, 6)] + [_saturation_case(seed)]
    if seed != 0:
        random.Random(seed).shuffle(cases)
    return cases


def _relax_warmup(inputs: dict, seed: int) -> list[Case]:
    return [_saturation_case(seed)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "eig-ladder", _eig_inputs, _eig_cases, lambda inputs, seed: _eig_cases(inputs, seed)[:1],
        ),
        Workload("shadow-64", _shadow_inputs, _shadow_cases, _shadow_warmup),
        Workload("fixtures-cli", _cli_inputs, _cli_cases, _cli_warmup),
        Workload("relax-build", _relax_inputs, _relax_cases, _relax_warmup),
    )
}
