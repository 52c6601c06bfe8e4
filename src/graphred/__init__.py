"""Graph-signal denoising with regularization by denoising (RED).

The package builds k-nearest-neighbor graphs from point clouds, denoises
signals on them with Laplacian regularization or plug-and-play ADMM, wraps
either denoiser in a RED conjugate-gradient solver, unrolls that solver into
a trainable network with per-layer parameters, and analyzes everything as
spectral filters on the graph frequencies.

Public names and submodules are imported on first use (PEP 562), so a
process loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name.
_EXPORTS = {
    "cmd_check": ("check_homogeneity", "check_passivity"),
    "construct": ("knn_graph", "normalize_weights"),
    "datasets": (
        "SyntheticSpec", "add_noise", "fps", "generate_bandlimited", "generate_pointcloud_dataset",
        "generate_sensor_points", "generate_synthetic_dataset", "load_point_cloud", "save_dataset", "save_point_cloud",
    ),
    "denoisers": ("Denoiser", "apply_denoiser", "denoiser_gains", "lr_denoise", "lr_gains", "pnp_gains"),
    "exceptions": (
        "ConfigError", "ConvergenceError", "DegenerateDistanceError", "DivergenceError", "GraphRedError",
        "GraphTooLargeError", "InvalidGraphError", "NoEdgesError", "NumericalError", "ParseError", "StagnationError",
        "TrainingError",
    ),
    "files": ("Dataset", "DatasetRecord", "load_dataset", "mse", "rmse"),
    "graphs": (
        "Graph", "Laplacian", "SpectralDecomp", "build_laplacian", "eigendecompose", "gft", "igft", "load_edge_list",
        "quadratic_form", "save_edge_list",
    ),
    "problem": ("RedProblem", "lr_denoise_cg", "red_cg_solve", "red_gradient", "red_gradient_descent", "red_objective"),
    "red": ("RedSolveReport", "UnrolledParams", "red_cg_layers", "softplus", "softplus_inv"),
    "spectral": (
        "FilterResponse", "ResponseComparison", "compare_responses", "h_lr", "h_red", "red_filter_matrix",
        "write_response_csv",
    ),
    "unroll": (
        "AdamState", "TrainConfig", "TrainSample", "adam_step", "load_params", "make_n2n_pair", "save_loss_history",
        "save_params", "train", "unrolled_forward",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

# write_response_csv can be imported from here but is not part of the star-import set.
__all__ = sorted(set(_HOME) - {"write_response_csv"})


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
