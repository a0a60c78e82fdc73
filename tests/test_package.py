import os
import subprocess
import sys

import momentsdp

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# run in a fresh process: prints whether scipy is loaded after `import momentsdp`, then, for each
# argument list (joined by commas), the exit code of `cli.main(["solve", ...])` and whether scipy
# is loaded after it
STARTUP = """
import contextlib, io, sys
import momentsdp.cli

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

print(scipy_loaded())
for args in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = momentsdp.cli.main(["solve", *args.split(",")])
    print(code, scipy_loaded())
"""


def startup(*commands: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", STARTUP, *commands], capture_output=True, text=True,
                          env=env, cwd=os.path.join(ROOT, "fixtures"), check=True)
    return proc.stdout.split("\n")[:-1]


def test_every_exported_name_resolves_once():
    missing = [name for name in momentsdp.__all__ if not hasattr(momentsdp, name)]
    assert missing == []
    assert len(set(momentsdp.__all__)) == len(momentsdp.__all__)


def test_import_and_small_solves_load_no_scipy():
    # the solver's factorizations are numpy's; scipy serves only the nonzero Schur path, the prune
    # of more than one equality row and the extraction of more than one atom
    fixtures = ["sqrt2.sdp", "sqrt2_point.sdp", "pillow.pencil", "power_chain.pencil", "unit_disk.pop",
                "planar_nonconvex.pop"]
    assert startup(*fixtures) == ["False"] + ["0 False"] * len(fixtures)


def test_scipy_loads_lazily_where_it_is_used():
    assert startup("eigassign3.pop,--extract") == ["False", "0 True"]
