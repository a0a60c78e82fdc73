"""Command-line front end.

Three subcommands over the shared problem-file format:

  solve FILE      relax (where applicable) and solve; report bound, solver
                  status, moments, and with --extract the rank certificate
  shadow FILE     support points of the projected relaxation feasible set
                  along evenly spaced directions (pop files)
  liouville FILE  print the generated transport rows of a dynamics file

Reports are `key = value` lines followed by moment tables (`alpha y[alpha]`
rows); numbers carry 12 significant digits.  Exit codes: 0 on a converged
solve, 2 when the solver did not converge, 141 on a closed standard output, 1
on input errors: a usage error, or a `ValueError`, `KeyError` or `OSError`
raised while reading, building or solving, which `main` alone catches.  An
input error writes one `error:` line to standard error and nothing to standard
output, unless only the `--out` write failed after the report was printed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional

from .extraction import ExtractionError, certify
from .gmp import resolve_minimal_time, solve_gmp, unscale_time_moments
from .moments import MomentVector
from .polynomials import Polynomial
from .problemfile import GMPFileData, load_problem, moment_sum_text
from .relaxation import POPProblem, SemialgebraicSet, bound_and_moments, minimal_order
from .sdp import SDPSolution, SolveOptions, solve
from .spectra import defining_polynomials, shadow_support_points, shadow_table, unit_directions


def _fmt(v: float) -> str:
    return f"{float(v):.12g}"


class Report:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def kv(self, key: str, value) -> None:
        self.lines.append(f"{key} = {_fmt(value) if isinstance(value, float) else value}")

    def section(self, name: str) -> None:
        self.lines += ["", f"[{name}]"]

    def raw(self, line: str) -> None:
        self.lines.append(line)

    def solver_stats(self, sol: SDPSolution) -> None:
        for key in ("iterations", "gap", "primal_residual", "dual_residual"):
            self.kv(key, getattr(sol, key))

    def relaxation(self, kind: str, r: int, res) -> None:
        """The header of a pop or gmp report: `res` has a `.solution` and a `.bound`."""
        self.kv("kind", kind)
        self.kv("order", r)
        self.kv("status", res.solution.status)
        self.kv("bound", res.bound)
        self.solver_stats(res.solution)

    def moments(self, y: MomentVector, name: Optional[str] = None) -> None:
        self.section("moments" + (f" {name}" if name else ""))
        for exp, v in zip(y.exponents(), y.values):
            self.raw(" ".join(str(e) for e in exp) + f"  {_fmt(float(v))}")

    def certificate(self, name: Optional[str], y: MomentVector, r: int, r_x: int, seed: int,
                    constraints=None) -> None:
        """The section of `certify`'s certificate of y, or why its extraction failed."""
        self.section("certificate" + (f" {name}" if name else ""))
        try:
            self.lines += certify(y, r, r_x, seed=seed, constraints=constraints).lines()
        except ExtractionError as e:
            self.kv("extraction_failed", str(e))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit(text: str, out_path: Optional[str], runtime: Optional[float]) -> None:
    try:
        sys.stdout.write(text)
        if runtime is not None:
            sys.stdout.write(f"runtime_seconds = {_fmt(runtime)}\n")
        sys.stdout.flush()  # a closed standard output fails here, inside `main`, not at exit
    finally:  # the report file is written even when standard output is closed
        if out_path:
            with open(out_path, "w") as f:
                f.write(text)


def _status_exit(status: str) -> int:
    return 0 if status == "optimal" else 2


def _options(args) -> SolveOptions:
    return SolveOptions(gap_tol=args.tol, feas_tol=args.tol, max_iter=args.max_iter)


def _minimal_gmp_order(data: GMPFileData) -> int:
    """Least order whose moment degree 2r holds every polynomial of the problem.

    Dynamics need r >= ceil(deg f / 2), and their transport rows then stay
    within degree 2r, so the problem expanded at that order shows every
    other degree.
    """
    cells = data.dynamics.cells if data.dynamics is not None else []
    r_f = minimal_order(p for _, fs in cells for p in fs)
    g, _ = data.instantiate(r_f)
    return max(r_f, g.minimal_order())


def _support_constraints(support: SemialgebraicSet, horizon=None) -> list[tuple[str, Polynomial]]:
    """The ("ineq", q) and ("eq", q) pairs of a support, for `certify`'s residual.

    A cell of a fixed horizon T != 1 has its support written in time scaled
    to [0, 1] but its moments reported in original time, so t reads as t / T.
    """
    pairs = [("ineq", q) for q in support.effective_inequalities()]
    pairs += [("eq", q) for q in support.equalities]
    if horizon is None or horizon == 1:
        return pairs
    return [
        (kind, Polynomial(q.nvars, {e: c / horizon ** e[0] for e, c in q.terms.items()}))
        for kind, q in pairs
    ]


def _solve_pop(pop: POPProblem, args, options: SolveOptions, report: Report) -> int:
    r = args.order if args.order is not None else pop.minimal_order()
    res = bound_and_moments(pop, r, options)
    report.relaxation("pop", r, res)
    report.kv("compactness_certified", str(res.info.compactness_certified).lower())
    if res.eliminated:
        space = pop.feasible_set.space
        report.kv("eliminated", "; ".join(f"{space.names[v]} = {f.to_string(space)}" for v, f in res.eliminated))
    report.moments(res.moments)
    if args.extract:
        constraints = _support_constraints(pop.feasible_set)
        report.certificate(None, res.moments, r, res.info.r_x, args.seed, constraints)
    return _status_exit(res.solution.status)


def _solve_gmp_file(data: GMPFileData, args, options: SolveOptions, report: Report) -> int:
    r = args.order if args.order is not None else _minimal_gmp_order(data)
    g, dp = data.instantiate(r)
    res = solve_gmp(g, r, options)
    if dp is not None and dp.dynamics.autonomous and res.solution.status == "optimal":
        res = resolve_minimal_time(dp, r, res, options)
    moments = res.moments
    if dp is not None and not dp.dynamics.autonomous:
        moments = unscale_time_moments(dp, moments)  # report in original time
    report.relaxation("gmp", r, res)
    if dp is not None and dp.dynamics.autonomous:
        occ_mass = sum(float(moments[name].mass) for name, _ in dp.dynamics.cells)
        report.kv("terminal_time", occ_mass)
        if res.minimal_time is not None:
            report.kv("minimal_time_status", res.minimal_time.status)
            report.kv("minimal_time_iterations", res.minimal_time.iterations)
    for m in g.measures:
        report.moments(moments[m.name], m.name)
    if args.extract:
        scaled = {name for name, _ in dp.dynamics.cells} if dp and not dp.dynamics.autonomous else ()
        for m in g.measures:
            horizon = dp.dynamics.horizon if m.name in scaled else None
            constraints = _support_constraints(m.support, horizon)
            report.certificate(m.name, moments[m.name], r, res.info[m.name].r_x, args.seed, constraints)
    return _status_exit(res.solution.status)


def _solve_sdp(prog, options: SolveOptions, report: Report) -> int:
    sol = solve(prog, options)
    report.kv("kind", "sdp")
    report.kv("status", sol.status)
    report.kv("objective", sol.dual_obj)
    report.kv("primal_objective", sol.primal_obj)
    report.solver_stats(sol)
    report.section("y")
    for k, v in enumerate(sol.y, start=1):
        report.raw(f"{k}  {_fmt(v)}")
    for bi, (blk, Xb) in enumerate(zip(sol.blocks, sol.X), start=1):
        report.section(f"X {bi}")
        if blk.kind == "psd":
            for i in range(blk.size):
                for j in range(i, blk.size):
                    report.raw(f"{i + 1} {j + 1}  {_fmt(Xb[i, j])}")
        else:
            for i in range(blk.size):
                report.raw(f"{i + 1} {i + 1}  {_fmt(Xb[i])}")
    return _status_exit(sol.status)


def _solve_pencil(pencil, report: Report) -> int:
    report.kv("kind", "pencil")
    report.kv("side", pencil.side)
    report.kv("variables", pencil.nvars)
    fs = defining_polynomials(pencil)
    report.section("defining_polynomials")
    for k, f in enumerate(fs, start=1):
        report.raw(f"f{k} = {f.to_string()}")
    return 0


def cmd_solve(args) -> int:
    parsed = load_problem(args.file)
    options = _options(args)
    report = Report()
    t0 = time.perf_counter()
    if parsed.kind == "pop":
        code = _solve_pop(parsed.pop, args, options, report)
    elif parsed.kind == "gmp":
        code = _solve_gmp_file(parsed.gmp, args, options, report)
    elif parsed.kind == "sdp":
        code = _solve_sdp(parsed.sdp, options, report)
    else:
        code = _solve_pencil(parsed.pencil, report)
    _emit(report.text(), args.out, time.perf_counter() - t0)
    return code


def cmd_shadow(args) -> int:
    parsed = load_problem(args.file)
    if parsed.kind != "pop":
        raise ValueError("shadow needs a pop file")
    pop = parsed.pop
    try:
        i, j = (int(t) - 1 for t in args.proj.split(","))
    except ValueError:
        raise ValueError("--proj takes two comma-separated variable indices") from None
    points = shadow_support_points(
        pop.feasible_set,
        args.order if args.order is not None else pop.minimal_order(),
        unit_directions(args.directions),
        projection=(i, j),
        options=_options(args),
    )
    _emit(shadow_table(points), args.out, None)
    return 0 if all(p.status == "optimal" for p in points) else 2


def cmd_liouville(args) -> int:
    parsed = load_problem(args.file)
    if parsed.kind != "gmp" or parsed.gmp.dynamics is None:
        raise ValueError("liouville needs a gmp file with a [dynamics] section")
    r = args.order if args.order is not None else _minimal_gmp_order(parsed.gmp)
    g, dp = parsed.gmp.instantiate(r)
    spaces = {m.name: m.support.space for m in g.measures}
    report = Report()
    report.kv("kind", "gmp")
    report.kv("order", r)
    report.kv("test_degree", dp.info.test_degree)
    report.kv("trimmed", str(dp.info.trimmed).lower())
    report.kv("rows", dp.info.rows)
    report.section("rows")
    for con in dp.liouville_rows:
        label = f"v = {con.label}: " if con.label else ""
        report.raw(f"{label}{moment_sum_text(con.terms, spaces)} == {con.rhs}")
    _emit(report.text(), args.out, None)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, the input-error code, instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="momentsdp",
        description="moment relaxations, conic solves, certificates and shadows",
    )
    sub = ap.add_subparsers(dest="command", required=True)  # subparsers are _Parsers too

    def nonnegative_int(text: str) -> int:  # --seed: `np.random.default_rng` takes no negative seed
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
        return value

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="problem file (kind: pop | gmp | sdp | pencil)")
        p.add_argument("--order", type=int, default=None, help="relaxation order r")
        p.add_argument(
            "--tol", type=float, default=1e-6, help="solver gap and feasibility tolerance"
        )
        p.add_argument("--max-iter", type=int, default=200, help="iteration budget")
        p.add_argument("--out", default=None, help="write the report to this path")

    ps = sub.add_parser("solve", help="solve a problem file")
    common(ps)
    ps.add_argument("--extract", action="store_true", help="rank certificate and atoms")
    ps.add_argument("--seed", type=nonnegative_int, default=0, help="seed for atom extraction")
    ps.set_defaults(func=cmd_solve)

    psh = sub.add_parser("shadow", help="support points of the projected relaxation")
    common(psh)
    psh.add_argument("--directions", type=int, default=16, help="number of directions")
    psh.add_argument("--proj", default="1,2", help="two 1-based variable indices, e.g. 1,2")
    psh.set_defaults(func=cmd_shadow)

    pl = sub.add_parser("liouville", help="print generated transport rows")
    common(pl)
    pl.set_defaults(func=cmd_liouville)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # standard output was closed: end quietly, with SIGPIPE's exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return 141
    except (ValueError, KeyError, OSError) as e:  # the input errors of every subcommand
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
