"""What importing dppls loads, checked in fresh interpreters.

The package and its CLI load no scipy module: the privacy profile runs on
``math`` alone, and airPLS solves its banded systems in numpy at every
difference order.  Nor do they load ``numpy.random``.  Each check starts a new interpreter, because this test
process has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_import_dppls_and_cli_loads_no_numpy_random(tmp_path):
    # numpy.random loads on a stream's first use, not at import, which
    # keeps it out of every command's start-up that draws nothing.
    out = _run("import sys, dppls, dppls.cli; "
               "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))",
               tmp_path)
    assert out == "[]"


def test_import_dppls_and_cli_builds_no_csv_tables(tmp_path):
    # The Schubfach and Eisel-Lemire tables are built on the first write
    # and the first read, not at import.
    out = _run("import dppls, dppls.cli; from dppls import core; "
               "print(core._format_tables.cache_info().currsize, "
               "core._parse_tables.cache_info().currsize)", tmp_path)
    assert out == "0 0"


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


def test_simulate_preprocess_and_predict_load_no_numpy_ma(tmp_path):
    # numpy.ma adds about 2 MiB to a command's resident memory; np.unique,
    # for one, imports it.  Each command writes CSV files.
    code = """
import sys
from dppls import cli
loaded = lambda: sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))
assert cli.main(["simulate", "--n", "10", "--m", "8", "--seed", "1", "--output", "sim"]) == 0
after_simulate = loaded()
assert cli.main(["preprocess", "--input", "sim/combined.csv", "--output", "pre.csv",
                 "--pipeline", "sg:5,2,1|msc"]) == 0
after_preprocess = loaded()
assert cli.main(["fit", "--input", "pre.csv", "--output", "m.json", "--k", "2"]) == 0
assert cli.main(["predict", "--model", "m.json", "--input", "pre.csv",
                 "--response-col", "0", "--output", "p.csv"]) == 0
print([after_simulate, after_preprocess, loaded()])
"""
    assert _run(code, tmp_path) == "[[], [], []]"


def _airpls_in_a_fresh_interpreter(X, cfg, tmp_path):
    """airpls_correct(X, cfg) in a new interpreter: its output's bytes
    and the scipy modules loaded before and after the call."""
    code = f"""
import json, sys
import numpy as np
from dppls.preprocess import AirPlsConfig, airpls_correct
before = {_SCIPY_MODULES}
X = np.frombuffer(bytes.fromhex("{X.tobytes().hex()}")).reshape({X.shape})
out = airpls_correct(X, AirPlsConfig{(cfg.lam, cfg.max_iterations, cfg.diff_order)!r})
print(json.dumps([before, {_SCIPY_MODULES}, out.tobytes().hex()]))
"""
    return json.loads(_run(code, tmp_path))


_ROWS = np.vstack([np.sin(np.linspace(0, 6, 40)) + np.linspace(0, 2, 40),
                   np.cos(np.linspace(0, 3, 40)) ** 2])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_airpls_loads_no_scipy(tmp_path, order):
    # The numpy banded solve gives the bits of this process's
    # airpls_correct, which the preprocess tests tie to a per-row solve
    # and to scipy's solver.
    cfg = AirPlsConfig(lam=100.0, max_iterations=10, diff_order=order)
    before, after, out = _airpls_in_a_fresh_interpreter(_ROWS, cfg, tmp_path)
    assert before == after == []
    assert out == airpls_correct(_ROWS, cfg).tobytes().hex()


def test_airpls_sweep_command_loads_no_scipy(tmp_path):
    code = f"""
import sys
from dppls import cli
assert cli.main(["simulate", "--n", "12", "--m", "30", "--seed", "1", "--output", "sim"]) == 0
assert cli.main(["sweep", "--input", "sim/combined.csv", "--output", "sweep",
                 "--mode", "both", "--k", "2", "--k-max", "2", "--epsilons", "1",
                 "--folds", "3", "--repeats", "2", "--seed", "1",
                 "--pipeline", "airpls|center"]) == 0
print({_SCIPY_MODULES})
"""
    assert _run(code, tmp_path) == "[]"

