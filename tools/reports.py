#!/usr/bin/env python3
"""Run 46 momentsdp commands and keep what each one wrote, in one directory.

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
    unit_disk at order 1 over 16 (2);
  - seventeen commands that must end in an input error, one per kind of
    refusal (an order below the minimum, order 0 of a gmp file, a nan
    tolerance, a missing file, `shadow` of an sdp file, a repeated or a
    non-numeric `--proj`, zero directions, `liouville` of a pop file and at
    order 0), seven of them `solve` on a problem file in BAD_FILES, which
    DIR also gets (a repeated dynamics key, a repeated or an extra f<i> line
    in a cell, two `ball:` lines, a repeated sdp or pencil section, a pencil
    side above 8).

For a command NAME, DIR gets `NAME.report` (its `--out` report),
`NAME.stdout` (standard output without the `runtime_seconds` line) and
`NAME.stderr`, and `exit_codes` gets one `NAME CODE` line.  Two such
directories made from two checkouts compare with `diff -r`.

Exit code 1 when some command printed a traceback or exited with a code it
should not: the seventeen input errors must exit 1, every other command 0 or
2 (2, the solver did not converge, is a result, not a failure).  Exit code 2
when no `momentsdp` script is on PATH, 0 otherwise.
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
_DYNAMICS = (
    "kind: gmp\n[dynamics]\nhorizon: free\nstate: x\ninitial: point 0\nterminal: point 1\n"
    "cell: a\nf1: 1\n"
)
_PENCIL = "kind: pencil\nvariables: x\nside: {}\n[F0]\n1 1 1\n[F 1]\n1 1 1\n"
# problem files each refused at one line, which main() writes into --out; not in
# fixtures/, where every file parses
BAD_FILES = {
    "two-horizons.gmp": _DYNAMICS + "horizon: fixed 2\n",
    "two-f1.gmp": _DYNAMICS + "f1: 2\n",
    "f2-of-one-state.gmp": _DYNAMICS + "f2: 1\n",
    "two-balls.gmp": "kind: gmp\n[measures]\nmu: x\n[support mu]\nball: 4\nball: 1\n"
                     "[objective]\nmin <x, mu>\n",
    "two-A1.sdp": "kind: sdp\n[blocks]\npsd 2\n[b]\n1\n[A 1]\n1 1 1 1\n[A 1]\n1 2 2 1\n",
    "two-F1.pencil": _PENCIL.format(2) + "[F 1]\n2 2 1\n",
    "side9.pencil": _PENCIL.format(9),
}
INPUT_ERRORS = [
    ("error-solve-eigassign3.pop-r1", ["solve", "fixtures/eigassign3.pop", "--order", "1"]),
    ("error-solve-bolza.gmp-r0", ["solve", "fixtures/bolza.gmp", "--order", "0"]),
    ("error-solve-tol-nan", ["solve", "fixtures/unit_disk.pop", "--tol", "nan"]),
    ("error-solve-missing-file", ["solve", "fixtures/no_such_file.pop"]),
    ("error-shadow-sqrt2.sdp", ["shadow", "fixtures/sqrt2.sdp"]),
    ("error-shadow-proj-repeated", ["shadow", "fixtures/unit_disk.pop", "--proj", "1,1"]),
    ("error-shadow-proj-word", ["shadow", "fixtures/unit_disk.pop", "--proj", "x"]),
    ("error-shadow-no-directions", ["shadow", "fixtures/unit_disk.pop", "--directions", "0"]),
    ("error-liouville-unit_disk.pop", ["liouville", "fixtures/unit_disk.pop"]),
    ("error-liouville-bolza.gmp-r0", ["liouville", "fixtures/bolza.gmp", "--order", "0"]),
] + [(f"error-solve-{name}", ["solve", name]) for name in BAD_FILES]


def commands() -> list[tuple[str, list[str]]]:
    """(name, arguments after `momentsdp`) of every command but INPUT_ERRORS, `--out` left off."""
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
    runs = [(name, argv, (0, 2)) for name, argv in commands()]
    for name, text in BAD_FILES.items():
        (out / name).write_text(text)
    runs += [
        (name, [str(out / a) if a in BAD_FILES else a for a in argv], (1,))
        for name, argv in INPUT_ERRORS
    ]
    for name, argv, allowed in runs:
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
        if run.returncode not in allowed or "Traceback (most recent call last)" in run.stderr:
            failed.append(name)
    (out / "exit_codes").write_text("".join(codes))
    if failed:
        print(f"failed: {' '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
