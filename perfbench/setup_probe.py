"""Set-up time of one workload in a fresh process.

  python3 perfbench/setup_probe.py WORKLOAD SEED

Times importing momentsdp and building the workload's inputs, and prints
one JSON line {"setup_s": seconds}.  run.py starts it with the thread pins
already in the environment.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import momentsdp  # noqa: F401
    import workloads

    workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]), root)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
