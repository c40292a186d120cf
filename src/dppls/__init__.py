"""Differentially private PLS1 regression, with attack and evaluation tools.

The package fits single-response partial least squares models whose
per-component weight, score, and loading releases carry calibrated
Gaussian noise; quantifies what pooled models leak through an
orthogonalization attack; and evaluates the privacy-utility trade-off on
simulated or real spectra.
"""

from .core import (
    CALIBRATION_TARGETS,
    Dataset,
    NoiseCalibration,
    PlsModel,
    PrivacyBudget,
    RngStream,
    load_dataset,
    load_matrix,
    norm_ppf,
    save_dataset,
    save_matrix,
)
from .errors import (
    ArgumentError,
    ConfigurationError,
    CsvFormatError,
    DegenerateInputError,
    DpplsError,
    ModelFormatError,
    NumericalError,
    ShapeError,
    SingularSystemError,
    StateError,
)
from .mechanism import (
    SampleBounds,
    analytic_gaussian_sigma,
    gaussian_privacy_profile,
    sample_bounds,
)
from .pls import (
    FitConfig,
    NipalsPath,
    fit,
    load_model,
    nipals_path,
    predict,
    release,
    release_many,
    save_model,
)
from .attack import (
    AttackReport,
    attack_and_score,
    cosine_similarity,
    orthogonal_complement_weights,
)
from .preprocess import (
    AirPlsConfig,
    Pipeline,
    SgConfig,
    airpls_correct,
    msc,
    parse_pipeline,
    savitzky_golay,
    sg_kernel,
)
from .datagen import (
    DEFAULT_SPECS,
    SignalSpec,
    gaussian_signal,
    simulate_two_holders,
)
from .evaluate import (
    EvalReport,
    r2_score,
    rmse,
    sweep,
    train_test_split,
)

__version__ = "0.1.0"
