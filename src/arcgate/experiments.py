"""Desk-scale experiment runners.

Noise-robustness sweep, initialization and granularity ablations, the
per-layer parameter report, and the parametric sensitivity curves.  Every
runner is deterministic given its seed and embeds its configuration digest
in the CSV it writes, so re-running reproduces files byte for byte.

The study runners in one process share trainings by content key: the model
spec, every ``TrainConfig`` field and a SHA-256 digest of the four dataset
arrays.  Only a training's summary is kept (final test accuracy and
learnable activation parameter count, or a divergence mark), never the
model, so an ablation that needs only those numbers reads them instead of
training the same configuration again.

Accuracy numbers here are desk-scale analogs: they preserve the structural
comparisons (which variant beats which) but not the absolute values of
full-size benchmarks.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import OrderedDict
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import core, fitter
from .engine import (MLPModel, ModelSpec, TrainConfig, TrainingDivergedError,
                     _correct_counts, train)

__all__ = [
    "DEFAULT_SIGMAS", "LayerReport", "SweepReport",
    "granularity_ablation", "init_ablation", "layer_evolution_report",
    "noise_sweep", "sensitivity_curves",
    "write_sweep_csv", "write_init_csv", "write_granularity_csv", "write_layer_csv",
]

#: Noise grid: the reference sweep's levels plus 0.3 and 0.5, where the
#: desk-scale fixture reaches its degradation knee.
DEFAULT_SIGMAS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)

_SENSITIVITY_GRID = np.linspace(-6.0, 6.0, 601)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _spec_for(dataset) -> ModelSpec:
    x_train, y_train = np.asarray(dataset[0]), np.asarray(dataset[1])
    n_classes = int(max(y_train.max(), np.asarray(dataset[3]).max())) + 1
    return ModelSpec(in_dim=x_train.shape[1], n_classes=n_classes)


def _write_csv(path, comment: str, columns: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# {comment}\n")
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# training summaries shared by the study runners
# ---------------------------------------------------------------------------

_SUMMARY_CAP = 256      # entries; the oldest is evicted first

# (spec fields, config fields, dataset digest) -> (final test accuracy,
# learnable activation parameter count), or None for a diverged run
_summaries: OrderedDict[tuple, tuple[float, int] | None] = OrderedDict()


def _dataset_digest(dataset) -> str:
    """SHA-256 over the dtype, shape and bytes of the four dataset arrays."""
    h = hashlib.sha256()
    for i in range(4):
        a = np.ascontiguousarray(dataset[i])
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a)
    return h.hexdigest()


def _summary_key(spec: ModelSpec, config: TrainConfig, data_digest: str) -> tuple:
    return astuple(spec), astuple(config), data_digest


def _train_recorded(spec: ModelSpec, dataset, config: TrainConfig,
                    data_digest: str) -> tuple[MLPModel | None, tuple[float, int] | None]:
    """``train``, recording the run's summary; returns the model and the summary.

    Both are ``None`` when the run diverged.
    """
    key = _summary_key(spec, config, data_digest)
    try:
        model, trace = train(spec, dataset, config)
    except TrainingDivergedError:
        model, summary = None, None
    else:
        summary = (trace[-1].test_acc, model.learnable_activation_parameter_count())
    _summaries[key] = summary
    while len(_summaries) > _SUMMARY_CAP:
        _summaries.popitem(last=False)
    return model, summary


def _summary(spec: ModelSpec, dataset, config: TrainConfig,
             data_digest: str) -> tuple[float, int] | None:
    """The recorded summary of this training; trains only if none is recorded."""
    key = _summary_key(spec, config, data_digest)
    if key not in _summaries:
        _train_recorded(spec, dataset, config, data_digest)
    return _summaries[key]


# ---------------------------------------------------------------------------
# noise sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    model: str
    sigma: float
    accuracy: float


@dataclass
class SweepReport:
    rows: list[SweepRow]
    gains: list[tuple[float, float]]     # (sigma, adaptive minus baseline)
    seed: int
    noise_seeds: dict[float, int]
    config_digest: str
    partial: bool = False


def noise_sweep(dataset, sigmas: Sequence[float] = DEFAULT_SIGMAS,
                config: TrainConfig | None = None, seed: int = 0) -> SweepReport:
    """Train matched adaptive-gate and ReLU models, evaluate both across noise levels.

    Both models share the seed, the architecture, and per-sigma noise draws;
    only the activation differs.  Each sigma's noise is drawn once and both
    models are evaluated on it; sigma 0 is the clean test accuracy that
    training recorded.  If one training run diverges the report is returned
    partial, with whatever rows were completed.
    """
    sigmas = [float(s) for s in sigmas]
    if any(s < 0 for s in sigmas) or sorted(sigmas) != sigmas:
        raise ValueError("sigmas must be sorted and non-negative")
    config = config or TrainConfig()
    spec = _spec_for(dataset)
    data_digest = _dataset_digest(dataset)

    models: dict[str, tuple[MLPModel, float]] = {}   # label -> (model, clean test accuracy)
    partial = False
    for label, cfg in (("arcgate", replace(config, seed=seed, init_strategy="soft_relu",
                                            granularity="layer_wise")),
                       ("relu", replace(config, seed=seed, init_strategy="relu_baseline"))):
        model, summary = _train_recorded(spec, dataset, cfg, data_digest)
        if model is None:
            partial = True
        else:
            models[label] = model, summary[0]
    return _sweep_report(models, dataset[2], dataset[3], sigmas, seed, (spec, config), partial)


def _sweep_report(models: dict[str, tuple[MLPModel, float | None]], x, y,
                  sigmas: list[float], seed: int, key: tuple,
                  partial: bool = False) -> SweepReport:
    """Evaluate each ``label -> (model, clean accuracy or None)`` on one noise draw per sigma.

    Sigma ``i`` draws from seed ``seed * 1000 + i``, one row block at a time,
    and every model is run on each noisy block, so no noisy copy of ``x`` is
    made.  The digest covers ``key``, the sigmas and the seed.
    """
    noise_seeds = {s: seed * 1000 + i for i, s in enumerate(sigmas)}
    rows: list[SweepRow] = []
    for s in sigmas:
        accuracy = {label: clean_acc for label, (_, clean_acc) in models.items()
                    if s == 0 and clean_acc is not None}
        pending = [label for label in models if label not in accuracy]
        if pending:
            counts = _correct_counts([models[label][0] for label in pending], x, y, s,
                                     noise_seeds[s])
            accuracy.update((label, c / len(y)) for label, c in zip(pending, counts))
        rows.extend(SweepRow(label, s, accuracy[label]) for label in models)
    gains = []
    if len(models) == 2:
        acc = {(r.model, r.sigma): r.accuracy for r in rows}
        gains = [(s, acc[("arcgate", s)] - acc[("relu", s)]) for s in sigmas]
    return SweepReport(rows=rows, gains=gains, seed=seed, noise_seeds=noise_seeds,
                       config_digest=_digest(*key, sigmas, seed), partial=partial)


def write_sweep_csv(report: SweepReport, path) -> None:
    _write_csv(path, f"config_digest={report.config_digest} seed={report.seed} "
                     f"noise_seeds={sorted(report.noise_seeds.items())!r} "
                     f"partial={report.partial}",
               ["model", "sigma", "accuracy", "seed"],
               ([row.model, repr(row.sigma), repr(row.accuracy), report.seed]
                for row in report.rows))


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitRow:
    strategy: str
    test_accuracy: float    # NaN marks a diverged run


def init_ablation(dataset, config: TrainConfig | None = None, seed: int = 0) -> list[InitRow]:
    """One row per initialization strategy, all sharing seed and architecture."""
    config = config or TrainConfig()
    spec = _spec_for(dataset)
    data_digest = _dataset_digest(dataset)
    rows = []
    for strategy in ("relu_baseline", "identity", "random", "soft_relu"):
        cfg = replace(config, seed=seed, init_strategy=strategy)
        acc, _ = _summary(spec, dataset, cfg, data_digest) or (math.nan, -1)
        rows.append(InitRow(strategy, acc))
    return rows


def write_init_csv(rows: list[InitRow], path, config: TrainConfig, seed: int) -> None:
    _write_csv(path, f"config_digest={_digest(config, seed)} seed={seed}",
               ["strategy", "test_accuracy", "epochs", "seed"],
               ([row.strategy, repr(row.test_accuracy), config.epochs, seed] for row in rows))


@dataclass(frozen=True)
class GranularityRow:
    granularity: str
    learnable_activation_params: int
    test_accuracy: float


def granularity_ablation(dataset, config: TrainConfig | None = None,
                         seed: int = 0) -> list[GranularityRow]:
    """Fixed vs global-shared vs layer-wise gate parameters; counts by traversal."""
    config = config or TrainConfig()
    spec = _spec_for(dataset)
    data_digest = _dataset_digest(dataset)
    rows = []
    for granularity in ("fixed", "global_shared", "layer_wise"):
        cfg = replace(config, seed=seed, init_strategy="soft_relu", granularity=granularity)
        acc, count = _summary(spec, dataset, cfg, data_digest) or (math.nan, -1)
        rows.append(GranularityRow(granularity, count, acc))
    return rows


def write_granularity_csv(rows: list[GranularityRow], path,
                          config: TrainConfig, seed: int) -> None:
    _write_csv(path, f"config_digest={_digest(config, seed)} seed={seed}",
               ["granularity", "learnable_activation_params", "test_accuracy", "seed"],
               ([row.granularity, row.learnable_activation_params, repr(row.test_accuracy), seed]
                for row in rows))


# ---------------------------------------------------------------------------
# layer evolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerRow:
    layer_index: int
    a: float
    c: float
    p: float
    alpha: float
    beta: float
    gamma: float
    delta: float


@dataclass
class LayerReport:
    rows: list[LayerRow]


def layer_evolution_report(model: MLPModel) -> LayerReport:
    """Effective gate parameters per activation layer, ordered by depth.

    Only meaningful for layer-wise models, where the vectors can diverge.
    """
    acts = model.activation_layers()
    if not acts:
        raise ValueError("model has no activation layers")
    for layer in acts:
        if layer.baseline is not None or layer.granularity != "layer_wise":
            raise ValueError("layer evolution requires a layer_wise gate model")
    rows = [LayerRow(i, *layer.effective_params()) for i, layer in enumerate(acts)]
    return LayerReport(rows=rows)


def write_layer_csv(report: LayerReport, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["layer_index", "a", "c", "p", "alpha", "beta", "gamma", "delta"])
        for r in report.rows:
            writer.writerow([r.layer_index] + [repr(v) for v in
                                               (r.a, r.c, r.p, r.alpha, r.beta, r.gamma, r.delta)])


# ---------------------------------------------------------------------------
# sensitivity curves
# ---------------------------------------------------------------------------

def sensitivity_curves(out_dir, fit_budget: int = 5000, seed: int = 0) -> dict[str, Path]:
    """Write the six sensitivity CSVs into ``out_dir``; returns name -> path.

    Gate curves on x in [-6, 6]: steepness, sharpness, center shift,
    gating-vs-saturating mode, linear leak, and the fitted-classics table.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = _SENSITIVITY_GRID

    def curves(configs: list[tuple[str, tuple[float, ...]]]) -> tuple[list[str], list[np.ndarray]]:
        labels, cols = [], []
        for label, eff in configs:
            labels.append(label)
            cols.append(core.batch_value(grid, eff))
        return labels, cols

    paths: dict[str, Path] = {}

    # steepness/sharpness/shift use the bounded configuration (alpha=0,
    # beta=1), where the transition slope scales with a*p and a center shift
    # is an exact horizontal translation; the gating mode's x-proportional
    # factor would mask both effects
    sweeps = {
        "steepness": [(f"a={a:g}", (a, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0))
                      for a in (0.5, 1.0, 5.0, 20.0)],
        "sharpness": [(f"p={p:g}", (5.0, 0.0, p, 0.0, 1.0, 0.0, 0.0))
                      for p in (0.5, 1.0, 2.0, 8.0)],
        "shift": [(f"c={c:g}", (5.0, c, 1.0, 0.0, 1.0, 0.0, 0.0))
                  for c in (-2.0, 0.0, 2.0)],
        "mode": [("gating", (5.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0)),
                 ("saturating", (5.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0))],
        "leak": [(f"gamma={g:g}", (5.0, 0.0, 1.0, 1.0, 0.0, g, 0.0))
                 for g in (0.0, 0.05, 0.3)],
    }
    for name, configs in sweeps.items():
        path = out_dir / f"sensitivity_{name}.csv"
        labels, cols = curves(configs)
        _write_csv(path, f"config_digest={_digest(name, configs)}", ["x"] + labels,
                   ([repr(float(x))] + [repr(float(col[i])) for col in cols]
                    for i, x in enumerate(grid)))
        paths[name] = path

    classics_path = out_dir / "sensitivity_classics.csv"
    window = (float(grid[0]), float(grid[-1]))
    rows = fitter.replicate_classics(*window, budget=fit_budget, seed=seed)
    fitter.write_fit_csv(rows, classics_path, window, fit_budget, seed)
    paths["classics"] = classics_path
    return paths
