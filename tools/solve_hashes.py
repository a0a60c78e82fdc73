#!/usr/bin/env python3
"""Hash the outcome of a fixed set of conic solves and program builds, one line each.

  python3 tools/solve_hashes.py --src DIR --out FILE

`momentsdp` is imported from DIR (a checkout's `src/`), and every module
that bound `momentsdp.sdp.solve_batch` gets a wrapper that records each of
its solutions, in order: `solve` is its batch of one, so each solve is
recorded once.  A checkout without `solve_batch` gets the wrapper on
`momentsdp.sdp.solve` instead.
BLAS/OpenMP run on one thread, as in perfbench, unless the environment
already sets a count.  The 90 solves are:

  - the 21 of the `solve` commands of `tools/reports.py`, run in process
    through `momentsdp.cli.main` from the repository root;
  - the planar shadow at order 2 over 64 directions, solved as one batch
    where the checkout has `solve_batch`;
  - eig-assign n = 4, 5 and 6 at order 3 (gap 1e-4, feas 1e-5), the
    eig-ladder of perfbench, and n = 5 at order 4.  `bound_and_moments`
    eliminates their linear equality first, so they solve programs of
    m = 84, 210 and 462, and m = 495 with psd sides 70 and 35 at order 4,
    where both psd blocks still form their terms from their nonzeros;
  - the saturation cells of `build_saturation_cells(2)` at order 2
    (gap and feas 1e-6).

Each line reads `CASE #K status iterations factorizations sha256`, the
hash taken over the bytes of y and of every X and Z block.  Every
field is one that older checkouts' `SDPSolution` also has, so the lines of
two checkouts compare.

The 6 builds are assembled without a solve: the three of perfbench's
relax-build (eig-assign n = 5 and 6 at order 4, the saturation cells at
order 5) and `build_saturation_cells(r)` at order r for r = 2, 3, 4.  Each
line reads `CASE build m blocks sha256`, the hash taken over the kind and
size of every block, the dtype, shape and bytes of its `rows`, `cols`,
`vals` and `C`, and those of `b`: 96 lines in all.

Two files made from two checkouts compare with `diff`: equal lines mean
bit-identical iterates and programs.

While it runs, each case's line `CASE: K solves, S s` goes to stderr, S
the wall seconds of the case's K solves, so two checkouts run on one host
compare in time as well.

Once the file is written, the census of the 90 solves goes to stdout: the
count of each status, then one `near budget: CASE #K iterations/max_iter`
line for each solve that used at least 90% of its iteration budget, since a
change of rounding can push such a solve to `max_iter` without any test
failing.  Last comes `floor: K of 100 optimal`, the count of `optimal` ends of
the random 4 x 4 programs of `tests/test_sdp.py` (`random_feasible(rng, 4, 5)`
for seeds 0-99) at gap 1e-11 and feas 1e-10, near the floating-point floor,
where a change of rounding shows first.  The tool carries its own copy of
that generator, so it runs on older checkouts too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAT_COUNTS = ("factorizations",)


def _line(case: str, k: int, sol) -> str:
    h = hashlib.sha256(sol.y.tobytes())
    for block in (*sol.X, *sol.Z):
        h.update(block.tobytes())
    counts = " ".join(str(sol.stats.get(key)) for key in STAT_COUNTS)
    return f"{case} #{k} {sol.status} {sol.iterations} {counts} {h.hexdigest()}\n"


def _build_line(case: str, prog) -> str:
    h = hashlib.sha256()

    def add(arr) -> None:
        h.update(f"{arr.dtype.str} {arr.shape};".encode())
        h.update(arr.tobytes())

    for blk, data, c in zip(prog.blocks, prog.A, prog.C):
        h.update(f"{blk.kind} {blk.size};".encode())
        for arr in (data.rows, data.cols, data.vals, c):
            add(arr)
    add(prog.b)
    return f"{case} build {prog.m} {len(prog.blocks)} {h.hexdigest()}\n"


def census(solves: list, near: list[str]) -> str:
    """The solve count, then the count of each status, by name, then the solves in ``near``."""
    statuses = Counter(sol.status for sol in solves)
    lines = [f"solves: {len(solves)}"]
    lines += [f"status {status}: {statuses[status]}" for status in sorted(statuses)]
    lines += [f"near budget: {entry}" for entry in near]
    return "\n".join(lines) + "\n"


def random_feasible(sdp, rng, n: int, m: int):
    """`TestRandomPrograms._random_feasible` of `tests/test_sdp.py`: one psd block of side n and m
    constraints, from a strictly feasible primal-dual pair."""
    import numpy as np

    A = np.empty((m, n, n))
    for k in range(m):
        T = rng.normal(size=(n, n))
        A[k] = T + T.T
    L = rng.normal(size=(n, n))
    X0 = L @ L.T + 0.3 * np.eye(n)
    L = rng.normal(size=(n, n))
    Z0 = L @ L.T + 0.3 * np.eye(n)
    y0 = rng.normal(size=m)
    b = np.einsum("kij,ij->k", A, X0)
    C = np.einsum("kij,k->ij", A, y0) + Z0
    return sdp.ConicProgram(blocks=[sdp.Block("psd", n)], A=[A], b=b, C=[C])


def floor_census(sdp) -> str:
    """The count of `optimal` ends of the 100 random programs at gap 1e-11 and feas 1e-10."""
    import numpy as np

    options = sdp.SolveOptions(gap_tol=1e-11, feas_tol=1e-10)
    optimal = sum(sdp.solve(random_feasible(sdp, np.random.default_rng(seed), 4, 5), options).status == "optimal"
                  for seed in range(100))
    return f"floor: {optimal} of 100 optimal\n"


def load(src: Path):
    """Import `momentsdp` from ``src`` (a checkout's `src/`); exit with code 2 if it comes from elsewhere.

    BLAS/OpenMP are set to one thread unless the environment already sets a
    count; this must run before numpy loads.
    """
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    src = src.resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "tools"))
    import momentsdp
    import momentsdp.cli  # noqa: F401  (loaded now, so a wrapper of `solve` reaches it too)

    if Path(momentsdp.__file__).resolve().parent.parent != src:
        print(f"error: momentsdp was imported from {momentsdp.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return momentsdp


def cases():
    """Run the solves listed above, one case at a time; yield each case's name once it has run.

    Works from the repository root, where the commands name their fixtures.
    """
    import momentsdp.cli
    from momentsdp import casestudies, gmp, relaxation, sdp, spectra
    from reports import commands

    os.chdir(ROOT)
    for name, argv in commands():
        if argv[0] == "solve":
            with contextlib.redirect_stdout(io.StringIO()):
                code = momentsdp.cli.main(argv)
            yield f"{name}:exit{code}"
    feasible = casestudies.build_polyopt().feasible_set
    spectra.shadow_support_points(feasible, 2, spectra.unit_directions(64))
    yield "shadow-planar-r2-64"
    eig = sdp.SolveOptions(gap_tol=1e-4, feas_tol=1e-5)
    for n in (4, 5, 6):
        relaxation.bound_and_moments(casestudies.build_eig_assign(n), 3, eig)
        yield f"eig-assign-{n}-r3"
    relaxation.bound_and_moments(casestudies.build_eig_assign(5), 4, eig)
    yield "eig-assign-5-r4"
    prog = gmp.build_gmp_relaxation(casestudies.build_saturation_cells(2).gmp, 2)[0].program
    sdp.solve(prog, sdp.SolveOptions(gap_tol=1e-6, feas_tol=1e-6))
    yield "saturation-cells-2-r2"


def builds():
    """(name, program) of the builds listed above, one at a time."""
    from momentsdp import casestudies, gmp, relaxation

    for n in (5, 6):
        yield f"eig-assign-{n}-r4", relaxation.build_relaxation(casestudies.build_eig_assign(n), 4)[0].program
    for r in (2, 3, 4, 5):
        g = casestudies.build_saturation_cells(r).gmp
        yield f"saturation-cells-{r}-r{r}", gmp.build_gmp_relaxation(g, r)[0].program


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", required=True, help="directory that holds the momentsdp package")
    ap.add_argument("--out", required=True, help="file for the hash lines")
    args = ap.parse_args()
    out = Path(args.out).resolve()
    momentsdp = load(Path(args.src))
    sdp = momentsdp.sdp
    floor = floor_census(sdp)  # before the wrappers, which would record its solves

    solves: list = []
    budgets: list[int] = []  # max_iter of each solve in ``solves``

    def record(sols: list, options) -> list:
        solves.extend(sols)
        budgets.extend([(options or sdp.SolveOptions()).max_iter] * len(sols))
        return sols

    # `solve` is the batch of one of `solve_batch`, so only the batch entry is wrapped where there is one
    if hasattr(sdp, "solve_batch"):
        name, original = "solve_batch", sdp.solve_batch

        def recorded(prog, objectives, options=None):
            return record(original(prog, objectives, options), options)
    else:
        name, original = "solve", sdp.solve

        def recorded(prog, options=None):
            return record([original(prog, options)], options)[0]

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "momentsdp" and getattr(module, name, None) is original:
            setattr(module, name, recorded)

    lines, every, near = [], [], []
    start = time.perf_counter()
    for case in cases():
        lines += [_line(case, k, sol) for k, sol in enumerate(solves)]
        near += [f"{case} #{k} {sol.iterations}/{budget}"
                 for k, (sol, budget) in enumerate(zip(solves, budgets)) if sol.iterations >= 0.9 * budget]
        print(f"{case}: {len(solves)} solves, {time.perf_counter() - start:.2f} s", file=sys.stderr)
        every += solves
        solves.clear()
        budgets.clear()
        start = time.perf_counter()
    for case, prog in builds():
        lines.append(_build_line(case, prog))
        print(f"{case}: built", file=sys.stderr)
    out.write_text("".join(lines))
    sys.stdout.write(census(every, near))
    sys.stdout.write(floor)
    return 0


if __name__ == "__main__":
    sys.exit(main())
