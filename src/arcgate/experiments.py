"""Desk-scale experiment runners.

Noise-robustness sweep, initialization and granularity ablations, the
per-layer parameter report, and the parametric sensitivity curves.  Every
runner is deterministic given its seed and embeds its configuration digest
in the CSV it writes, so re-running reproduces files byte for byte.

The study runners in one process share trainings by content key: the model
spec, every ``TrainConfig`` field and a SHA-256 digest of the four dataset
arrays.  Only a training's summary is kept (final test accuracy, learnable
activation parameter count and effective gate parameters per layer, or a
divergence mark), never the model, so a later study reads it instead of
training again.  :func:`run_round` runs every study once and reads its layer
report from the sweep's ArcGate training: six trainings, six configurations.

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
from typing import NamedTuple, Sequence

import numpy as np

from . import core, fitter, idx
from .engine import (GRANULARITIES, MLPModel, ModelSpec, TrainConfig,
                     TrainingDivergedError, _correct_counts, train)

__all__ = [
    "DEFAULT_SIGMAS", "LayerReport", "Round", "SweepReport",
    "granularity_ablation", "init_ablation", "layer_evolution_report",
    "noise_sweep", "run_round", "sensitivity_curves",
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
    """The desk model for ``dataset``, an :class:`idx.Dataset` or any 4-tuple."""
    return ModelSpec(in_dim=np.shape(dataset[0])[1], n_classes=idx.Dataset(*dataset).n_classes)


def _write_csv(path, comment: str | None, columns: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# training summaries shared by the study runners
# ---------------------------------------------------------------------------

_SUMMARY_CAP = 256      # entries; the oldest is evicted first


class _Summary(NamedTuple):
    test_acc: float                              # final test accuracy
    gate_count: int                              # learnable activation parameters
    gate_params: tuple[tuple[float, ...], ...]   # effective, per activation layer


_DIVERGED = _Summary(math.nan, -1, ())    # the record of every diverged run

# (spec fields, config fields, dataset digest) -> summary
_summaries: OrderedDict[tuple, _Summary] = OrderedDict()

# the sweep's ArcGate training, whose gates a round's layer report reads
_ARCGATE = {"init_strategy": "soft_relu", "granularity": "layer_wise"}


def _dataset_digest(dataset) -> str:
    """SHA-256 over the dtype, shape and bytes of the four dataset arrays.

    :class:`idx.PixelRows` are hashed as their stored bytes under a tag of
    their own, so they never share a digest with a uint8 array (whose
    values are 0-255, not scaled) or with their float rows.
    """
    h = hashlib.sha256()
    for i in range(4):
        a = dataset[i]
        if isinstance(a, idx.PixelRows):
            h.update(b"PixelRows")
            a = a.pixels
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a)
    return h.hexdigest()


def _summary_key(spec: ModelSpec, config: TrainConfig, data_digest: str) -> tuple:
    return astuple(spec), astuple(config), data_digest


def _train_recorded(spec: ModelSpec, dataset, config: TrainConfig,
                    data_digest: str) -> tuple[MLPModel | None, _Summary]:
    """``train``, recording the run's summary; returns the model and the summary.

    A diverged run gives no model and the summary ``_DIVERGED``.
    """
    key = _summary_key(spec, config, data_digest)
    try:
        model, trace = train(spec, dataset, config)
    except TrainingDivergedError:
        model, summary = None, _DIVERGED
    else:
        summary = _Summary(trace[-1].test_acc, model.learnable_activation_parameter_count(),
                           tuple(layer.effective_params() for layer in model.activation_layers()))
    _summaries[key] = summary
    while len(_summaries) > _SUMMARY_CAP:
        _summaries.popitem(last=False)
    return model, summary


def _study_summaries(dataset, config: TrainConfig | None, seed: int,
             variants: list[dict]) -> list[_Summary]:
    """The summary of ``config`` at ``seed`` under each override; trains only unrecorded ones."""
    config = config or TrainConfig()
    spec, data_digest = _spec_for(dataset), _dataset_digest(dataset)
    summaries = []
    for overrides in variants:
        cfg = replace(config, seed=seed, **overrides)
        key = _summary_key(spec, cfg, data_digest)
        summaries.append(_summaries[key] if key in _summaries
                         else _train_recorded(spec, dataset, cfg, data_digest)[1])
    return summaries


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
    models are evaluated on it; sigma 0 draws none, so it gives the clean
    test accuracy that training recorded.  If one training run diverges the
    report is returned partial, with whatever rows were completed.
    """
    sigmas = [float(s) for s in sigmas]
    if not all(math.isfinite(s) and s >= 0 for s in sigmas) or sorted(sigmas) != sigmas:
        raise ValueError(f"sigmas must be sorted, finite and >= 0, got {sigmas}")
    config = config or TrainConfig()
    spec, data_digest = _spec_for(dataset), _dataset_digest(dataset)

    models: dict[str, MLPModel] = {}
    partial = False
    for label, cfg in (("arcgate", replace(config, seed=seed, **_ARCGATE)),
                       ("relu", replace(config, seed=seed, init_strategy="relu_baseline"))):
        model, summary = _train_recorded(spec, dataset, cfg, data_digest)
        if model is None:
            partial = True
        else:
            models[label] = model
    return _sweep_report(models, dataset[2], dataset[3], sigmas, seed, (spec, config), partial)


def _sweep_report(models: dict[str, MLPModel], x, y, sigmas: list[float], seed: int,
                  key: tuple, partial: bool = False) -> SweepReport:
    """Evaluate each ``label -> model`` on one noise draw per sigma.

    Sigma ``i`` draws from seed ``seed * 1000 + i``, one row block at a time,
    and every model is run on each noisy block, so no noisy copy of ``x`` is
    made.  The digest covers ``key``, the sigmas and the seed.
    """
    noise_seeds = {s: seed * 1000 + i for i, s in enumerate(sigmas)}
    rows: list[SweepRow] = []
    for s in sigmas:
        counts = _correct_counts(list(models.values()), x, y, s, noise_seeds[s])
        rows.extend(SweepRow(label, s, c / len(y)) for label, c in zip(models, counts))
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
    strategies = ("relu_baseline", "identity", "random", "soft_relu")
    runs = _study_summaries(dataset, config, seed, [{"init_strategy": s} for s in strategies])
    return [InitRow(strategy, run.test_acc) for strategy, run in zip(strategies, runs)]


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
    runs = _study_summaries(dataset, config, seed,
                            [{**_ARCGATE, "granularity": g} for g in GRANULARITIES])
    return [GranularityRow(g, run.gate_count, run.test_acc) for g, run in zip(GRANULARITIES, runs)]


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
    return _layer_report(layer.effective_params() for layer in acts)


def _layer_report(gate_params) -> LayerReport:
    """Rows from effective gate parameters, one 7-tuple per activation layer by depth."""
    return LayerReport(rows=[LayerRow(i, *params) for i, params in enumerate(gate_params)])


def write_layer_csv(report: LayerReport, path) -> None:
    _write_csv(path, None, ["layer_index", "a", "c", "p", "alpha", "beta", "gamma", "delta"],
               ([r.layer_index] + [repr(v) for v in astuple(r)[1:]] for r in report.rows))


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
        paths[name] = out_dir / f"sensitivity_{name}.csv"
        cols = [core.batch_value(grid, eff) for _, eff in configs]
        _write_csv(paths[name], f"config_digest={_digest(name, configs)}",
                   ["x"] + [label for label, _ in configs],
                   ([repr(float(x))] + [repr(float(col[i])) for col in cols]
                    for i, x in enumerate(grid)))

    paths["classics"] = out_dir / "sensitivity_classics.csv"
    window = (float(grid[0]), float(grid[-1]))
    rows = fitter.replicate_classics(*window, budget=fit_budget, seed=seed)
    fitter.write_fit_csv(rows, paths["classics"], window, fit_budget, seed)
    return paths


# ---------------------------------------------------------------------------
# the whole round
# ---------------------------------------------------------------------------

@dataclass
class Round:
    sweep: SweepReport
    init_rows: list[InitRow]
    granularity_rows: list[GranularityRow]
    layers: LayerReport
    paths: dict[str, Path]     # CSV stem, or sensitivity curve name -> path


def run_round(dataset, config: TrainConfig, seed: int, out_dir) -> Round:
    """Run every study once, in order, writing its CSVs into ``out_dir``.

    The noise sweep over :data:`DEFAULT_SIGMAS`, both ablations, the layer
    report and the sensitivity curves.  If the sweep's ArcGate training
    diverged, ``RuntimeError`` is raised after the three study CSVs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {stem: out_dir / f"{stem}.csv" for stem in
             ("noise_sweep", "init_ablation", "granularity_ablation", "layer_evolution")}
    sweep = noise_sweep(dataset, config=config, seed=seed)
    write_sweep_csv(sweep, paths["noise_sweep"])
    init_rows = init_ablation(dataset, config, seed)
    write_init_csv(init_rows, paths["init_ablation"], config, seed)
    granularity_rows = granularity_ablation(dataset, config, seed)
    write_granularity_csv(granularity_rows, paths["granularity_ablation"], config, seed)
    arcgate, = _study_summaries(dataset, config, seed, [_ARCGATE])
    if arcgate is _DIVERGED:
        raise RuntimeError("the noise sweep's ArcGate training diverged; no layer report")
    layers = _layer_report(arcgate.gate_params)
    write_layer_csv(layers, paths["layer_evolution"])
    paths.update(sensitivity_curves(out_dir, seed=seed))
    return Round(sweep, init_rows, granularity_rows, layers, paths)
