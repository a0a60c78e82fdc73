#!/usr/bin/env python3
"""Time the psd step-length search of one or more checkouts on recorded inputs.

  python3 tools/step_bench.py --src DIR [--src DIR ...]

The `(X, D, cap)` inputs of every `momentsdp.sdp._max_step_psd` call made by
the solves of `tools/solve_hashes.py` are recorded, with `momentsdp`
imported from the first DIR (a checkout's `src/`).  Then each DIR's
`momentsdp/sdp.py` is loaded on its own and replays them all.  The tool
checks that every tree returns the same steps, bit for bit (exit code 1
if not), and prints per psd side the least of 5 timed replays for each
tree, with each tree's ratio to the first.  BLAS/OpenMP run on one thread.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

from solve_hashes import THREAD_VARS, cases, load

REPEATS = 5


def _record(sdp) -> dict[int, list[tuple]]:
    """The (X, D, cap) of every step search of the solves, grouped by psd side."""
    inputs: dict[int, list[tuple]] = defaultdict(list)
    original = sdp._max_step_psd

    def recorded(X, D, cap, *rest):
        inputs[X.shape[0]].append((X.copy(), D.copy(), cap))
        return original(X, D, cap, *rest)

    sdp._max_step_psd = recorded
    try:
        for case in cases():
            print(f"recorded {case}", file=sys.stderr)
    finally:
        sdp._max_step_psd = original
    return dict(sorted(inputs.items()))


def _load_sdp(src: Path, index: int):
    """``src``'s momentsdp/sdp.py as a module of its own (it imports no other module of the package)."""
    name = f"step_bench_sdp_{index}"
    spec = importlib.util.spec_from_file_location(name, src / "momentsdp" / "sdp.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look the module up while it executes
    spec.loader.exec_module(module)
    return module


def _replay(trees: list, inputs: list[tuple]) -> tuple[list[float], list[list[float]]]:
    """Per tree, the least seconds of REPEATS replays of ``inputs`` and the steps returned.

    The trees take turns within each repeat, so that a change of host speed
    reaches all of them.  Each search gets a counting dict and runs under one
    ignored invalid flag, as the solver's own searches do.
    """
    import numpy as np  # loaded by `_record` already, after the thread count was set

    best = [float("inf")] * len(trees)
    steps: list[list[float]] = [[] for _ in trees]
    for _ in range(REPEATS):
        for i, tree in enumerate(trees):
            search, stats = tree._max_step_psd, defaultdict(int)
            with np.errstate(invalid="ignore"):
                start = time.perf_counter()
                steps[i] = [search(X, D, cap, stats) for X, D, cap in inputs]
                best[i] = min(best[i], time.perf_counter() - start)
    return best, steps


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", required=True, action="append", type=Path,
                    help="directory that holds the momentsdp package (repeat for each tree)")
    args = ap.parse_args()
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    srcs = [src.resolve() for src in args.src]
    inputs = _record(load(srcs[0]).sdp)
    trees = [_load_sdp(src, i) for i, src in enumerate(srcs)]

    seconds: dict[int, list[float]] = {}
    for side, group in inputs.items():
        seconds[side], steps = _replay(trees, group)
        for src, other in zip(srcs[1:], steps[1:]):
            if other != steps[0]:
                bad = sum(a != b for a, b in zip(other, steps[0]))
                print(f"error: side {side}: {src} returns {bad} of {len(group)} steps "
                      f"unlike {srcs[0]}", file=sys.stderr)
                return 1

    names = [f"tree {i}" for i in range(len(trees))]
    print("trees: " + "; ".join(f"{n} = {src}" for n, src in zip(names, srcs)))
    print(f"least of {REPEATS} replays, seconds; ratio = tree 0 / tree k")
    print("| side | searches | " + " | ".join(names)
          + "".join(f" | ratio {k}" for k in range(1, len(trees))) + " |")
    print("|---" * (2 + len(trees) + len(trees) - 1) + "|")
    rows = [(str(side), len(inputs[side]), seconds[side]) for side in inputs]
    batch_sides = {getattr(tree, "_BATCH_SIDE", None) for tree in trees} - {None}
    for cut in sorted(batch_sides):
        for label, keep in ((f"<= {cut}", lambda s: s <= cut), (f"> {cut}", lambda s: s > cut)):
            sides = [side for side in inputs if keep(side)]
            rows.append((f"all {label}", sum(len(inputs[s]) for s in sides),
                         [sum(seconds[s][i] for s in sides) for i in range(len(trees))]))
    for label, count, times in rows:
        ratios = "".join(f" | {times[0] / t:.2f}x" if t else " | -" for t in times[1:])
        print(f"| {label} | {count} | " + " | ".join(f"{t:.4f}" for t in times) + ratios + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
