"""Differentially private PLS1 regression, with attack and evaluation tools.

The package fits single-response partial least squares models whose
per-component weight, score, and loading releases carry calibrated
Gaussian noise; quantifies what pooled models leak through an
orthogonalization attack; and evaluates the privacy-utility trade-off on
simulated or real spectra.

``import dppls`` loads neither numpy nor any submodule.  Each name below,
and each submodule, is imported on its first use as ``dppls.<name>``
(PEP 562), so a program loads only the modules it uses.
"""

# Per submodule, the names the package exports from it.
_EXPORTS = {
    "core": (
        "CALIBRATION_TARGETS", "Dataset", "NoiseCalibration", "PlsModel",
        "PrivacyBudget", "RngStream", "load_dataset", "load_matrix", "norm_ppf",
        "save_dataset", "save_matrix",
    ),
    "errors": (
        "ArgumentError", "ConfigurationError", "CsvFormatError",
        "DegenerateInputError", "DpplsError", "ModelFormatError", "NumericalError",
        "ShapeError", "SingularSystemError", "StateError",
    ),
    "mechanism": (
        "SampleBounds", "analytic_gaussian_sigma", "gaussian_privacy_profile",
        "sample_bounds",
    ),
    "pls": (
        "FitConfig", "NipalsPath", "fit", "load_model", "nipals_path", "predict",
        "release", "release_many", "save_model",
    ),
    "attack": (
        "AttackReport", "attack_and_score", "cosine_similarity",
        "orthogonal_complement_weights",
    ),
    "preprocess": (
        "AirPlsConfig", "Pipeline", "SgConfig", "airpls_correct", "msc",
        "parse_pipeline", "savitzky_golay", "sg_kernel",
    ),
    "datagen": (
        "DEFAULT_SPECS", "SignalSpec", "gaussian_signal", "simulate_two_holders",
    ),
    "evaluate": (
        "EvalReport", "r2_score", "rmse", "sweep", "train_test_split",
    ),
}

# Each exported name, and each submodule under its own name, to the
# submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULE_OF.update((module, module) for module in _EXPORTS)

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows the module in
    # ``python -X importtime``; it binds the submodule in this namespace.
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
