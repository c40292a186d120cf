"""What importing dppls loads, checked in fresh interpreters.

``import dppls`` loads neither numpy nor any ``dppls.*`` module: the
package resolves its names on first use.  The CLI loads numpy, ``core``
and ``errors``, and on each command's first run only the modules that
command calls.  The checks below that import ``dppls`` and ``dppls.cli``
alone therefore hold trivially; the per-command table is what pins each
command's imports.  No command loads scipy: the privacy profile runs on
``math`` alone, and airPLS solves its banded systems in numpy at every
difference order.  Each check starts a new interpreter, because this test
process has scipy and every dppls module loaded already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dppls
from dppls import cli
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


# Each submodule of the package and the names it exports as dppls.<name>.
_PUBLIC = {
    "core": ["CALIBRATION_TARGETS", "Dataset", "NoiseCalibration", "PlsModel",
             "PrivacyBudget", "RngStream", "load_dataset", "load_matrix", "norm_ppf",
             "save_dataset", "save_matrix"],
    "errors": ["ArgumentError", "ConfigurationError", "CsvFormatError",
               "DegenerateInputError", "DpplsError", "ModelFormatError", "NumericalError",
               "ShapeError", "SingularSystemError", "StateError"],
    "mechanism": ["SampleBounds", "analytic_gaussian_sigma", "gaussian_privacy_profile",
                  "sample_bounds"],
    "pls": ["FitConfig", "NipalsPath", "fit", "load_model", "nipals_path", "predict",
            "release", "save_model"],
    "attack": ["AttackReport", "attack_and_score", "cosine_similarity",
               "orthogonal_complement_weights"],
    "preprocess": ["AirPlsConfig", "Pipeline", "SgConfig", "airpls_correct", "msc",
                   "parse_pipeline", "savitzky_golay", "sg_kernel"],
    "datagen": ["DEFAULT_SPECS", "SignalSpec", "gaussian_signal", "simulate_two_holders"],
    "evaluate": ["EvalReport", "r2_score", "rmse", "sweep", "train_test_split"],
}
_NAMES = [(module, name) for module, names in _PUBLIC.items() for name in names]


def test_package_exports_its_54_names_and_8_submodules():
    assert len(_NAMES) == 54
    assert sorted(dppls.__all__) == sorted([name for _, name in _NAMES] + list(_PUBLIC))
    assert dppls.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", _NAMES)
def test_each_name_is_the_object_of_its_module(module, name):
    defining = importlib.import_module(f"dppls.{module}")
    assert getattr(dppls, name) is getattr(defining, name)
    assert getattr(dppls, module) is defining
    assert {name, module, "__version__"} <= set(dir(dppls))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dppls.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from dppls import no_such_name", {})


def test_import_dppls_loads_no_numpy_and_no_submodule(tmp_path):
    out = _run("import sys, dppls; "
               "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'dppls')))",
               tmp_path)
    assert out == "['dppls']"


def test_a_submodule_is_an_attribute_after_a_bare_import(tmp_path):
    out = _run("import dppls; print(dppls.core.load_matrix.__module__, "
               "dppls.fit.__module__)", tmp_path)
    assert out == "dppls.core dppls.pls"


def test_importtime_lists_a_submodule_loaded_on_first_use(tmp_path):
    # -X importtime is how a command's import cost is read per module.
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dppls; dppls.fit"],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    listed = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert {"dppls", "dppls.pls", "dppls.core"} <= listed


# Per command: its arguments, run in the _inputs directory, and the dppls
# modules, and numpy.random if so, that it may load.
_BASE = {"cli", "core", "errors"}
_COMMAND_MODULES = {
    "simulate": ("--n 10 --m 8 --seed 1 --output sim2",
                 _BASE | {"datagen", "numpy.random"}),
    "fit": ("--input sim/combined.csv --output m2.json --k 2",
            _BASE | {"mechanism", "pls"}),
    "predict": ("--model m.json --input sim/holder1.csv --response-col 0 --output p.csv",
                _BASE | {"mechanism", "pls"}),
    "attack": ("--global-model m.json --input sim/holder1.csv --output a.json",
               _BASE | {"mechanism", "pls", "attack"}),
    "sweep": ("--input sim/combined.csv --output sw --k 2 --k-max 2 --epsilons 1 "
              "--folds 3 --repeats 2",
              _BASE | {"evaluate", "mechanism", "pls", "preprocess", "numpy.random"}),
    "preprocess": ("--input sim/combined.csv --output pre.csv --pipeline sg:5,2,1|msc",
                   _BASE | {"preprocess"}),
}


@pytest.fixture(scope="module")
def _inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    assert cli.main(["simulate", "--n", "10", "--m", "8", "--seed", "1",
                     "--output", str(path / "sim")]) == 0
    assert cli.main(["fit", "--input", str(path / "sim" / "combined.csv"),
                     "--output", str(path / "m.json"), "--k", "2"]) == 0
    return path


def test_the_table_covers_every_command():
    assert set(_COMMAND_MODULES) == set(cli.COMMANDS)


@pytest.mark.parametrize("command", list(_COMMAND_MODULES))
def test_each_command_loads_only_its_own_modules(command, _inputs):
    args, allowed = _COMMAND_MODULES[command]
    code = f"""
import sys
from dppls import cli
assert cli.main([{command!r}, *{args.split()!r}]) == 0
print(" ".join(sorted({{m[len("dppls."):] for m in sys.modules if m.startswith("dppls.")}}
                      | {{"numpy.random"}} & set(sys.modules))))
"""
    loaded = set(_run(code, _inputs).split())
    assert loaded <= allowed, sorted(loaded - allowed)


def test_a_name_replaced_on_cli_before_the_first_run_is_the_one_called(_inputs):
    code = """
from dppls import cli
import dppls.pls as pls
calls = []

def traced(name):
    real = getattr(pls, name)
    return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

for name in ("fit", "save_model", "load_model", "predict"):
    setattr(cli, name, traced(name))
assert cli.main(["fit", "--input", "sim/combined.csv", "--output", "m3.json", "--k", "2"]) == 0
assert cli.main(["predict", "--model", "m3.json", "--input", "sim/holder1.csv",
                 "--response-col", "0", "--output", "p3.csv"]) == 0
assert cli.fit is not pls.fit
print(" ".join(calls))
"""
    assert _run(code, _inputs) == "fit save_model load_model predict"


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

