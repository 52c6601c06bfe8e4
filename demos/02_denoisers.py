"""Run the two plug-in denoisers and compare their implementations.

The Laplacian-regularization (LR) denoiser solves (I + alpha L) x = y three
ways — as per-frequency gains 1/(1 + alpha lambda) at the Ritz values of a
Lanczos basis (no eigendecomposition needed), as the same gains on the
graph Fourier coefficients, and by conjugate gradients — and all three
agree.  The PnP-ADMM denoiser wraps LR in an ADMM loop; it too is one gain
per frequency, applied with or without an eigendecomposition, and the two
agree.  For large rho a single iteration collapses back to plain LR.
"""

import numpy as np

from graphred import (
    Denoiser,
    add_noise,
    apply_denoiser,
    build_laplacian,
    eigendecompose,
    generate_bandlimited,
    generate_sensor_points,
    knn_graph,
    lr_denoise,
    lr_denoise_cg,
    lr_gains,
    normalize_weights,
    rmse,
)


def main():
    points = generate_sensor_points(100, seed=0)
    lap = build_laplacian(normalize_weights(knn_graph(points, k=5)))
    decomp = eigendecompose(lap)
    x = generate_bandlimited(decomp)
    y = add_noise(x, sigma=1.0, seed=2)
    print(f"observed rmse {rmse(y, x):.4f}")

    alpha = 3.0
    lanczos = lr_denoise(lap, y, alpha)
    spectral = apply_denoiser(Denoiser(kind="lr", alpha=alpha), lap, y, decomp=decomp)
    iterative = lr_denoise_cg(lap, y, alpha, tol=1e-10)
    print(f"lr denoised rmse {rmse(spectral, x):.4f}")
    print(f"  lanczos vs spectral max diff {np.max(np.abs(lanczos - spectral)):.2e}")
    print(f"  cg vs spectral      max diff {np.max(np.abs(iterative - spectral)):.2e}")

    gains = lr_gains(decomp.eigenvalues, alpha)
    print(f"  spectral gains 1/(1+alpha*lambda): DC {gains[0]:.3f}, highest {gains[-1]:.3f}")

    pnp_den = Denoiser(kind="pnp", alpha=alpha, rho=1.0, iters=10)
    pnp_lanczos = apply_denoiser(pnp_den, lap, y)
    pnp_spectral = apply_denoiser(pnp_den, lap, y, decomp=decomp)
    stiff_den = Denoiser(kind="pnp", alpha=alpha, rho=1e6, iters=1)
    pnp_stiff = apply_denoiser(stiff_den, lap, y, decomp=decomp)
    print(f"pnp denoised rmse {rmse(pnp_spectral, x):.4f} (rho=1, 10 iterations)")
    print(f"  lanczos vs spectral max diff {np.max(np.abs(pnp_lanczos - pnp_spectral)):.2e}")
    print(f"  rho=1e6, 1 iteration collapses to lr: max diff {np.max(np.abs(pnp_stiff - spectral)):.2e}")


if __name__ == "__main__":
    main()
