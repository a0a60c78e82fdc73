#!/usr/bin/env python3
"""Hash the outcome of a fixed set of conic solves and program builds, one line each.

  python3 tools/solve_hashes.py --src DIR --out FILE

`momentsdp` is imported from DIR (a checkout's `src/`), and every module
that bound `momentsdp.sdp.solve` gets a wrapper that records each solve.
BLAS/OpenMP run on one thread, as in perfbench, unless the environment
already sets a count.  The 89 solves are:

  - the 21 of the `solve` commands of `tools/reports.py`, run in process
    through `momentsdp.cli.main` from the repository root;
  - the planar shadow at order 2 over 64 directions;
  - eig-assign n = 4, 5 and 6 at order 3 (gap 1e-4, feas 1e-5), the
    eig-ladder of perfbench (m = 210, 462 and 924);
  - the saturation cells of `build_saturation_cells(2)` at order 2
    (gap and feas 1e-6).

Each line reads `CASE #K status iterations fallback_used step_chol_calls
factorizations regularized sha256`, the hash taken over the bytes of y and of
every X and Z block.

The 6 builds are assembled without a solve: the three of perfbench's
relax-build (eig-assign n = 5 and 6 at order 4, the saturation cells at
order 5) and `build_saturation_cells(r)` at order r for r = 2, 3, 4.  Each
line reads `CASE build m blocks sha256`, the hash taken over the kind and
size of every block, the dtype, shape and bytes of its `rows`, `cols`,
`vals` and `C`, and those of `b`: 95 lines in all.

Two files made from two checkouts compare with `diff`: equal lines mean
bit-identical iterates and programs.

Once the file is written, the census of the 89 solves goes to stdout: the
count of each status, then how many solves returned the best earlier iterate
(`fallback_used`) and in how many a Schur factorization needed the diagonal
shift (`regularized` > 0).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAT_COUNTS = ("step_chol_calls", "factorizations", "regularized")


def _line(case: str, k: int, sol) -> str:
    h = hashlib.sha256(sol.y.tobytes())
    for block in (*sol.X, *sol.Z):
        h.update(block.tobytes())
    counts = " ".join(str(sol.stats.get(key)) for key in STAT_COUNTS)
    return (f"{case} #{k} {sol.status} {sol.iterations} {sol.fallback_used} {counts} "
            f"{h.hexdigest()}\n")


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


def census(solves: list) -> str:
    """The status counts (by name), then the solves with `fallback_used` and with `regularized` > 0."""
    statuses = Counter(sol.status for sol in solves)
    lines = [f"solves: {len(solves)}"]
    lines += [f"status {status}: {statuses[status]}" for status in sorted(statuses)]
    lines.append(f"fallback_used: {sum(bool(sol.fallback_used) for sol in solves)}")
    lines.append(f"regularized > 0: {sum(sol.stats.get('regularized', 0) > 0 for sol in solves)}")
    return "\n".join(lines) + "\n"


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

    solves: list = []
    original = sdp.solve

    def recorded(*a, **kw):
        solves.append(original(*a, **kw))
        return solves[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "momentsdp" and getattr(module, "solve", None) is original:
            module.solve = recorded

    lines, every = [], []
    for case in cases():
        lines += [_line(case, k, sol) for k, sol in enumerate(solves)]
        print(f"{case}: {len(solves)} solves", file=sys.stderr)
        every += solves
        solves.clear()
    for case, prog in builds():
        lines.append(_build_line(case, prog))
        print(f"{case}: built", file=sys.stderr)
    out.write_text("".join(lines))
    sys.stdout.write(census(every))
    return 0


if __name__ == "__main__":
    sys.exit(main())
