#!/usr/bin/env python3
"""Run every desk-scale study (``experiments.run_round``) and plot its charts."""

import argparse
import time

from arcgate import cli, experiments, idx
from arcgate.engine import TrainConfig

# chart -> plot figure; drawn from the round's CSV of that name, next to it as <chart>.svg
CHARTS = {**dict.fromkeys(("steepness", "sharpness", "shift", "mode", "leak"), "sensitivity"),
          "classics": "fit", "noise_sweep": "sweep"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--epochs", type=int, default=5)
    args = parser.parse_args()
    try:
        config = TrainConfig(epochs=args.epochs, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    t0 = time.time()
    result = experiments.run_round(idx.synthesize_arrays(), config, args.seed, args.out_dir)
    print(*(f"  sigma={s:g}: gain {gain:+.4f}" for s, gain in result.sweep.gains),
          *(f"  {r.strategy:14s} {r.test_accuracy:.4f}" for r in result.init_rows),
          *(f"  {r.granularity:14s} params={r.learnable_activation_params:3d} "
            f"acc={r.test_accuracy:.4f}" for r in result.granularity_rows),
          *(f"  layer {r.layer_index}: a={r.a:.3f} alpha={r.alpha:.4f} gamma={r.gamma:+.4f}"
            for r in result.layers.rows), sep="\n")
    for name, figure in CHARTS.items():
        cli.run(["plot", "--figure", figure, "--in", str(result.paths[name]),
                 "--out", str(result.paths[name].with_name(f"{name}.svg"))])
    print(f"done in {time.time() - t0:.0f}s -> {args.out_dir}/")


if __name__ == "__main__":
    main()
