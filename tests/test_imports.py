"""What importing dppls loads, checked in fresh interpreters.

The package and its CLI load no scipy module: the privacy profile runs on
``math`` alone, and airPLS imports scipy's banded solver when it first
runs.  Each check starts a new interpreter, because this test process has
scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dppls
from dppls.preprocess import AirPlsConfig, airpls_correct

# The directory holding the dppls this process imported, so the child
# interpreters import the same code.
_SRC = str(Path(dppls.__file__).resolve().parent.parent)

_SCIPY_MODULES = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def _run(code: str, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_dppls_and_cli_loads_no_scipy(tmp_path):
    out = _run(f"import sys, dppls, dppls.cli; print({_SCIPY_MODULES})", tmp_path)
    assert out == "[]"


def test_private_fit_and_predict_load_no_scipy(tmp_path):
    # A private fit evaluates the privacy profile; it must not pull scipy in
    # lazily either.
    code = f"""
import sys
from dppls import cli
assert cli.main(["simulate", "--n", "10", "--m", "8", "--seed", "1", "--output", "sim"]) == 0
assert cli.main(["fit", "--input", "sim/combined.csv", "--output", "m.json",
                 "--k", "2", "--epsilon", "1", "--seed", "1"]) == 0
assert cli.main(["predict", "--model", "m.json", "--input", "sim/holder1.csv",
                 "--response-col", "0", "--output", "p.csv"]) == 0
print({_SCIPY_MODULES})
"""
    assert _run(code, tmp_path) == "[]"


def test_airpls_imports_its_solver_on_first_use(tmp_path):
    # The lazy import path: a fresh interpreter has no scipy.linalg until
    # airpls_correct runs, and then gives the same bits as this process.
    X = np.vstack([np.sin(np.linspace(0, 6, 40)) + np.linspace(0, 2, 40),
                   np.cos(np.linspace(0, 3, 40)) ** 2])
    cfg = AirPlsConfig(lam=100.0, max_iterations=10)
    code = f"""
import sys
import numpy as np
from dppls.preprocess import AirPlsConfig, airpls_correct
assert "scipy.linalg" not in sys.modules
X = np.frombuffer(bytes.fromhex("{X.tobytes().hex()}")).reshape({X.shape})
out = airpls_correct(X, AirPlsConfig(lam=100.0, max_iterations=10))
assert "scipy.linalg" in sys.modules
print(out.tobytes().hex())
"""
    assert _run(code, tmp_path) == airpls_correct(X, cfg).tobytes().hex()
