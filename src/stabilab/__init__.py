"""Leave-one-out risk estimation, L^q stability, and PAC bound verification."""

from .bounds import (
    KAPPA,
    BoundsRow,
    GammaSet,
    gamma_set,
    moment_bound_generic,
    pac_bound_bounded,
    pac_bound_subgaussian,
    ridge_moment_bound,
    ridge_variance_term_bound,
)
from .datagen import (
    DataSpec,
    Dataset,
    SeedSpec,
    leave_one_out,
    replace_point,
    sample_dataset,
)
from .harness import (
    AlgorithmConfig,
    ConfigError,
    ExperimentConfig,
    PreconditionError,
    config_from_dict,
    config_to_dict,
    emit_report,
    load_config,
    run_experiment,
)
from .learners import (
    prediction_error_mc,
    ridge_fit,
    ridge_loo_fast,
)
from .stability import (
    SweepRow,
    knn_gamma_1,
    ridge_gamma_q,
    ridge_param_diff_check,
    y_norm,
)

__version__ = "0.1.0"
