#!/usr/bin/env python3
"""Run every desk-scale study end to end and drop CSVs + SVGs into one directory.

Covers the noise-robustness sweep, both ablations, the layer-evolution
report, and the sensitivity curves.  Runtime is a few CPU minutes.
"""

import argparse
import time
from pathlib import Path

from arcgate import engine, experiments, idx, svg
from arcgate.engine import ModelSpec, TrainConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--epochs", type=int, default=5)
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    dataset = idx.synthesize_arrays()
    config = TrainConfig(epochs=args.epochs, seed=args.seed)
    print(f"dataset: {dataset.x_train.shape[0]} train / {dataset.x_test.shape[0]} test")

    print("noise sweep ...")
    report = experiments.noise_sweep(dataset, config=config, seed=args.seed)
    experiments.write_sweep_csv(report, out / "noise_sweep.csv")
    for sigma, gain in report.gains:
        print(f"  sigma={sigma:g}: gain {gain:+.4f}")

    print("init ablation ...")
    rows = experiments.init_ablation(dataset, config, seed=args.seed)
    experiments.write_init_csv(rows, out / "init_ablation.csv", config, args.seed)
    for row in rows:
        print(f"  {row.strategy:14s} {row.test_accuracy:.4f}")

    print("granularity ablation ...")
    grows = experiments.granularity_ablation(dataset, config, seed=args.seed)
    experiments.write_granularity_csv(grows, out / "granularity_ablation.csv",
                                      config, args.seed)
    for row in grows:
        print(f"  {row.granularity:14s} params={row.learnable_activation_params:3d} "
              f"acc={row.test_accuracy:.4f}")

    print("layer evolution ...")
    spec = ModelSpec(in_dim=dataset.x_train.shape[1], n_classes=dataset.n_classes)
    model, _ = engine.train(spec, dataset,
                            TrainConfig(epochs=args.epochs, seed=args.seed))
    layer_report = experiments.layer_evolution_report(model)
    experiments.write_layer_csv(layer_report, out / "layer_evolution.csv")
    for row in layer_report.rows:
        print(f"  layer {row.layer_index}: a={row.a:.3f} alpha={row.alpha:.4f} "
              f"gamma={row.gamma:+.4f}")

    print("sensitivity curves ...")
    paths = experiments.sensitivity_curves(out, seed=args.seed)

    print("charts ...")
    from arcgate.cli import run as cli_run
    for name in ("steepness", "sharpness", "shift", "mode", "leak"):
        cli_run(["plot", "--figure", "sensitivity", "--in", str(paths[name]),
                 "--out", str(out / f"{name}.svg")])
    cli_run(["plot", "--figure", "fit", "--in", str(paths["classics"]),
             "--out", str(out / "classics.svg")])
    cli_run(["plot", "--figure", "sweep", "--in", str(out / "noise_sweep.csv"),
             "--out", str(out / "noise_sweep.svg")])

    print(f"done in {time.time() - t0:.0f}s -> {out}/")


if __name__ == "__main__":
    main()
