#!/usr/bin/env python3
"""Run 29 momentsdp commands and keep what each one wrote, in one directory.

  python3 tools/reports.py --out DIR

The commands go through the installed `momentsdp` console script (the one on
PATH), from the repository root:

  - `solve FILE --extract` on every fixture at its default order (13);
  - `solve FILE --extract --order R` at bolza 3, decay_energy 4, eigassign4 3,
    lqr_scalar 3, planar_nonconvex 3 and saturation3 3 (6);
  - `liouville FILE` on the four gmp fixtures at their default order (4);
  - `liouville FILE --order R` at bolza 3, decay_energy 4, lqr_scalar 3 and
    saturation3 3, the gmp fixtures' explicit orders above (4);
  - `shadow` on planar_nonconvex at order 2 over 64 directions and on
    unit_disk at order 1 over 16 (2).

For a command NAME, DIR gets `NAME.report` (its `--out` report),
`NAME.stdout` (standard output without the `runtime_seconds` line) and
`NAME.stderr`, and `exit_codes` gets one `NAME CODE` line.  Two such
directories made from two checkouts compare with `diff -r`.

Exit code 1 when some command exited 1 (an input error) or printed a
traceback, 2 when no `momentsdp` script is on PATH, 0 otherwise: exit code 2
of a command (the solver did not converge) is a result, not a failure.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPLICIT_ORDERS = {
    "bolza.gmp": 3,
    "decay_energy.gmp": 4,
    "eigassign4.pop": 3,
    "lqr_scalar.gmp": 3,
    "planar_nonconvex.pop": 3,
    "saturation3.gmp": 3,
}
SHADOWS = {"planar_nonconvex.pop": ("2", "64"), "unit_disk.pop": ("1", "16")}


def commands() -> list[tuple[str, list[str]]]:
    """(name, arguments after `momentsdp`) of every command, `--out` left off."""
    fixtures = sorted(p.name for p in (ROOT / "fixtures").iterdir())
    out = [(f"solve-{f}", ["solve", f"fixtures/{f}", "--extract"]) for f in fixtures]
    out += [
        (f"solve-{f}-r{r}", ["solve", f"fixtures/{f}", "--extract", "--order", str(r)])
        for f, r in EXPLICIT_ORDERS.items()
    ]
    out += [(f"liouville-{f}", ["liouville", f"fixtures/{f}"]) for f in fixtures if f.endswith(".gmp")]
    out += [
        (f"liouville-{f}-r{r}", ["liouville", f"fixtures/{f}", "--order", str(r)])
        for f, r in EXPLICIT_ORDERS.items()
        if f.endswith(".gmp")
    ]
    out += [
        (f"shadow-{f}", ["shadow", f"fixtures/{f}", "--order", r, "--directions", k])
        for f, (r, k) in SHADOWS.items()
    ]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="directory for the reports (created)")
    args = ap.parse_args()
    script = shutil.which("momentsdp")
    if script is None:
        print("error: no `momentsdp` script on PATH; install the package first", file=sys.stderr)
        return 2
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    failed = []
    codes = []
    for name, argv in commands():
        report = out / f"{name}.report"
        run = subprocess.run(
            [script, *argv, "--out", str(report)], cwd=ROOT, capture_output=True, text=True
        )
        stdout = "".join(
            line for line in run.stdout.splitlines(keepends=True)
            if not line.startswith("runtime_seconds = ")
        )
        (out / f"{name}.stdout").write_text(stdout)
        (out / f"{name}.stderr").write_text(run.stderr)
        codes.append(f"{name} {run.returncode}\n")
        print(f"{name}: exit {run.returncode}")
        if run.returncode == 1 or "Traceback (most recent call last)" in run.stderr:
            failed.append(name)
    (out / "exit_codes").write_text("".join(codes))
    if failed:
        print(f"failed: {' '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
