"""Compare the spectral penalties of plain LR and RED regularization.

Both regularizer gradients are graph filters.  h_lr(lambda) = alpha_lr *
lambda grows without bound, so strong smoothing also crushes mid-band
signal.  h_red saturates at alpha_red: high frequencies are penalized
equally instead of ever harder, which is the mechanism behind RED's
better RMSE at matched smoothing strength.
"""

import os
import tempfile

import numpy as np

from graphred import (
    build_laplacian,
    compare_responses,
    eigendecompose,
    generate_sensor_points,
    h_lr,
    h_red,
    knn_graph,
    lr_denoise,
    normalize_weights,
    red_filter_matrix,
    write_response_csv,
)


def main():
    points = generate_sensor_points(100, seed=0)
    lap = build_laplacian(normalize_weights(knn_graph(points, k=5)))
    decomp = eigendecompose(lap)
    alpha_red, alpha_lr = 3.0, 2.0

    comparison = compare_responses(decomp, alpha_red, alpha_lr)
    print("lambda      h_lr     h_red")
    for lam, hl, hr in comparison.rows()[:: len(comparison.eigenvalues) // 8]:
        print(f"{lam:8.4f} {hl:8.4f} {hr:8.4f}")
    print(f"h_red ceiling: alpha_red = {alpha_red}; h_red at lambda=1e6 is "
          f"{h_red(np.array([1e6]), alpha_red, alpha_lr).response[0]:.6f}")
    print(f"h_lr keeps growing: at lambda=1e6 it is {h_lr(np.array([1e6]), alpha_lr).response[0]:.3g}")

    rng = np.random.default_rng(0)
    x = rng.normal(size=100)
    mat = red_filter_matrix(decomp, alpha_red, alpha_lr)
    direct = alpha_red * (x - lr_denoise(lap, x, alpha_lr))
    err = np.linalg.norm(mat @ x - direct) / np.linalg.norm(direct)
    print(f"U diag(h_red) U^T x equals alpha_red (x - D(x)): rel err {err:.2e}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spectrum_demo.csv")
        write_response_csv(path, comparison)
        print(f"wrote {path} (columns: lambda,h_lr,h_red)")


if __name__ == "__main__":
    main()
