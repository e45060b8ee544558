import inspect

import stabilab

# The public API of the package: a change to it shows up in this list.
EXPORTS = [
    "AlgorithmConfig", "BoundsRow", "ConfigError", "DataSpec", "Dataset", "ExperimentConfig",
    "GammaSet", "KAPPA", "PreconditionError", "SeedSpec", "SweepRow", "config_from_dict",
    "config_to_dict", "emit_report", "gamma_set", "knn_gamma_1", "leave_one_out", "load_config",
    "moment_bound_generic", "pac_bound_bounded", "pac_bound_subgaussian", "prediction_error_mc",
    "replace_point", "ridge_fit", "ridge_gamma_q", "ridge_loo_fast", "ridge_moment_bound",
    "ridge_param_diff_check", "ridge_variance_term_bound", "run_experiment", "sample_dataset",
    "y_norm",
]


def test_public_names_are_pinned():
    # Submodules become attributes of the package as they are imported,
    # so they are left out.
    public = sorted(
        name for name, obj in vars(stabilab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    )
    assert public == EXPORTS
