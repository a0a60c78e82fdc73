import os
import subprocess
import sys

import momentsdp
from momentsdp import relaxation

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# run in a fresh process: prints which scipy modules are loaded after `import momentsdp`, then,
# for each argument, the value of that Python expression and which are loaded after it; `solve`
# gives the exit code of `cli.main(["solve", ...])`, `relax` the equality rows that
# `build_relaxation(build_eig_assign(n), r)` hands its prune
STARTUP = """
import contextlib, io, sys
import momentsdp.cli
from momentsdp.casestudies import build_eig_assign
from momentsdp.relaxation import build_relaxation

def scipy_loaded():
    # "none", or which of scipy.linalg and scipy.sparse are loaded ("scipy" if neither)
    if not any(name == "scipy" or name.startswith("scipy.") for name in sys.modules):
        return "none"
    return ",".join(sub for sub in ("linalg", "sparse") if "scipy." + sub in sys.modules) or "scipy"

def solve(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        return momentsdp.cli.main(["solve", *args])

def relax(n, r):
    return build_relaxation(build_eig_assign(n), r)[0].stats["equality_rows"]

print(scipy_loaded())
for expr in sys.argv[1:]:
    print(eval(expr), scipy_loaded())
"""


def startup(*expressions: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", STARTUP, *expressions], capture_output=True, text=True,
                          env=env, cwd=os.path.join(ROOT, "fixtures"), check=True)
    return proc.stdout.split("\n")[:-1]


def test_every_exported_name_resolves_once():
    missing = [name for name in momentsdp.__all__ if not hasattr(momentsdp, name)]
    assert missing == []
    assert len(set(momentsdp.__all__)) == len(momentsdp.__all__)


def test_import_and_small_solves_load_no_scipy():
    # the solver's factorizations, the row prune up to relaxation._NUMPY_PRUNE_ROWS rows and the
    # atom extraction are numpy's: every fixture, extracted at the benchmark's orders, loads no scipy
    fixtures = {"bolza.gmp": 3, "decay_energy.gmp": 4, "eigassign2.pop": None, "eigassign3.pop": None,
                "eigassign4.pop": 3, "lqr_scalar.gmp": 3, "pillow.pencil": None, "planar_nonconvex.pop": 3,
                "power_chain.pencil": None, "saturation3.gmp": 3, "sqrt2.sdp": None,
                "sqrt2_point.sdp": None, "unit_disk.pop": None}
    solves = [f"solve({name!r}, '--extract'" + (f", '--order', '{order}')" if order else ")")
              for name, order in fixtures.items()]
    codes = ["2" if name == "saturation3.gmp" else "0" for name in fixtures]  # 2: not converged
    assert startup(*solves) == ["none"] + [f"{code} none" for code in codes]


def test_scipy_loads_lazily_where_it_is_used():
    # a prune of more rows than relaxation._NUMPY_PRUNE_ROWS takes dpstrf of a sparse Gram matrix;
    # eigassign4 at order 4 has a psd block on the solver's nonzero Schur path (sdp._span_csr)
    assert relaxation._NUMPY_PRUNE_ROWS < 737
    assert startup("relax(4, 4)") == ["none", "737 linalg,sparse"]
    assert startup("solve('eigassign4.pop', '--order', '4')") == ["none", "0 sparse"]
