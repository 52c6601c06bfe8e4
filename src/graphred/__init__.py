"""Graph-signal denoising with regularization by denoising (RED).

The package builds k-nearest-neighbor graphs from point clouds, denoises
signals on them with Laplacian regularization or plug-and-play ADMM, wraps
either denoiser in a RED conjugate-gradient solver, unrolls that solver into
a trainable network with per-layer parameters, and analyzes everything as
spectral filters on the graph frequencies.
"""

from .construct import knn_graph, normalize_weights
from .datasets import (
    Dataset, DatasetRecord, SyntheticSpec, add_noise, fps, generate_bandlimited, generate_pointcloud_dataset,
    generate_sensor_points, generate_synthetic_dataset, load_dataset, load_point_cloud, save_dataset, save_point_cloud,
)
from .denoisers import (
    Denoiser, apply_denoiser, denoiser_gains, lr_denoise, lr_denoise_cg, lr_gains, lr_smoother, pnp_admm_denoise,
    pnp_gains,
)
from .exceptions import (
    ConfigError, ConvergenceError, DegenerateDistanceError, DivergenceError, GraphRedError, GraphTooLargeError,
    InvalidGraphError, NoEdgesError, NumericalError, ParseError, StagnationError, TrainingError,
)
from .graphs import (
    Graph, Laplacian, SpectralDecomp, build_laplacian, eigendecompose, gft, igft, load_edge_list, quadratic_form,
    save_edge_list,
)
from .red import (
    RedProblem, RedSolveReport, UnrolledParams, check_homogeneity, check_passivity, red_cg_layers, red_cg_solve,
    red_gradient, red_gradient_descent, red_objective, softplus, softplus_inv,
)
from .spectral import (
    FilterResponse, ResponseComparison, compare_responses, h_lr, h_red, red_filter_matrix, write_response_csv,
)
from .unroll import (
    AdamState, TrainConfig, TrainSample, adam_step, load_params, make_n2n_pair, mse, rmse, save_loss_history,
    save_params, train, unrolled_forward,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "ConfigError", "ConvergenceError", "Dataset", "DatasetRecord", "DegenerateDistanceError", "Denoiser",
    "DivergenceError", "FilterResponse", "Graph", "GraphRedError", "GraphTooLargeError", "InvalidGraphError",
    "Laplacian", "NoEdgesError", "NumericalError", "ParseError", "RedProblem", "RedSolveReport", "ResponseComparison",
    "SpectralDecomp", "StagnationError", "SyntheticSpec", "TrainConfig", "TrainSample", "TrainingError",
    "UnrolledParams", "adam_step", "add_noise", "apply_denoiser", "build_laplacian", "check_homogeneity",
    "check_passivity", "compare_responses", "denoiser_gains", "eigendecompose", "fps", "generate_bandlimited",
    "generate_pointcloud_dataset", "generate_sensor_points", "generate_synthetic_dataset", "gft", "h_lr", "h_red",
    "igft", "knn_graph", "load_dataset", "load_edge_list", "load_params", "load_point_cloud", "lr_denoise",
    "lr_denoise_cg", "lr_gains", "lr_smoother", "make_n2n_pair", "mse", "normalize_weights", "pnp_admm_denoise",
    "pnp_gains", "quadratic_form", "red_cg_layers", "red_cg_solve", "red_filter_matrix", "red_gradient",
    "red_gradient_descent", "red_objective", "rmse", "save_dataset", "save_edge_list", "save_loss_history",
    "save_params", "save_point_cloud", "softplus", "softplus_inv", "train", "unrolled_forward",
]
