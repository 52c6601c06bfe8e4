"""Learn per-layer solver parameters, with and without clean targets.

Unrolling fixes the CG solver at K layers and treats each layer's
(alpha_red, alpha_lr) as trainable weights — 22 scalars at K=10.
Supervised training regresses onto clean signals; Noise2Noise training
never sees them, instead re-noising the observation and mapping it back.
Both start from the best flat (layer-shared) parameters found by grid
search, which is also the baseline they must beat.  Gradients are exact:
one reverse sweep through the unrolled solver per epoch.
"""

import numpy as np

from graphred import (
    SyntheticSpec,
    TrainConfig,
    TrainSample,
    UnrolledParams,
    build_laplacian,
    eigendecompose,
    generate_synthetic_dataset,
    rmse,
    train,
    unrolled_forward,
)
from graphred.cli import tune_method


def main():
    sigma = 20.0
    dataset = generate_synthetic_dataset(SyntheticSpec(sigmas=(sigma,)))
    lap = build_laplacian(dataset.train[0].graph)
    decomp = eigendecompose(lap)
    y_train = np.column_stack([r.observed[sigma] for r in dataset.train])
    clean_train = np.column_stack([r.clean for r in dataset.train])
    y_test = np.column_stack([r.observed[sigma] for r in dataset.test])
    clean_test = np.column_stack([r.clean for r in dataset.test])

    entry = tune_method(dataset.train, sigma, "red_lr", grid_points=10)
    flat = UnrolledParams.constant(
        10, "lr", alpha_red=entry["alpha_red"], alpha_denoiser=entry["alpha_lr"]
    )
    print(f"flat grid-search params: alpha_red={entry['alpha_red']:.3g}, alpha_lr={entry['alpha_lr']:.3g}")
    print(f"trainable parameters: {flat.n_params}")
    flat_rmse = rmse(unrolled_forward(lap, y_test, flat, decomp=decomp), clean_test)

    cfg = TrainConfig(mode="supervised", epochs=120, gradient_method="exact")
    learned, history = train([TrainSample(y=y_train, target=clean_train)], cfg, flat, lap, decomp=decomp)
    sup_rmse = rmse(unrolled_forward(lap, y_test, learned, decomp=decomp), clean_test)
    print(f"supervised: loss {history[0]:.4f} -> {history[-1]:.4f} over {len(history)} epochs")

    n2n_cfg = TrainConfig(mode="noise2noise", epochs=120, gradient_method="exact")
    n2n, n2n_history = train([TrainSample(y=y_train)], n2n_cfg, flat, lap, decomp=decomp)
    n2n_rmse = rmse(unrolled_forward(lap, y_test, n2n, decomp=decomp), clean_test)
    print(f"noise2noise: loss {n2n_history[0]:.1f} -> {n2n_history[-1]:.1f} (no clean targets used)")

    # The exact gradient also covers PnP layers (33 scalars at K=10).
    pnp_flat = UnrolledParams.constant(10, "pnp", entry["alpha_red"], entry["alpha_lr"], rho=1.0)
    pnp, pnp_history = train([TrainSample(y=y_train, target=clean_train)], cfg, pnp_flat, lap, decomp=decomp)
    pnp_rmse = rmse(unrolled_forward(lap, y_test, pnp, decomp=decomp), clean_test)
    print(f"supervised pnp: loss {pnp_history[0]:.4f} -> {pnp_history[-1]:.4f} over {pnp.n_params} parameters")

    observed = rmse(y_test, clean_test)
    print(f"test rmse: observed {observed:.3f}, flat {flat_rmse:.3f}, "
          f"supervised {sup_rmse:.3f}, noise2noise {n2n_rmse:.3f}, supervised pnp {pnp_rmse:.3f}")
    runs = (("supervised", sup_rmse), ("noise2noise", n2n_rmse), ("supervised pnp", pnp_rmse))
    print("per-layer runs that beat the best flat setting:", ", ".join(n for n, v in runs if v < flat_rmse))


if __name__ == "__main__":
    main()
