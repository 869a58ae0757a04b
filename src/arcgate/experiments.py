"""Desk-scale experiment runners.

Noise-robustness sweep, initialization and granularity ablations, the
per-layer parameter report, and the parametric sensitivity curves.  Every
runner is deterministic given its seed and embeds its configuration digest
in the CSV it writes, so re-running reproduces files byte for byte.

Every study runner gets its trainings from :func:`_study_summaries`, which
shares them in one process by content key: the model spec, every
``TrainConfig`` field and a SHA-256 digest of the four dataset arrays.  Only
a training's summary is kept (final test accuracy, learnable activation
parameter count, effective gate parameters per layer and test accuracies
at the noise grid it was made for, or a divergence mark), never the model.
:func:`run_round` runs every study once and reads its layer report from the
sweep's ArcGate training: six trainings, six configurations.

A study call's unrecorded trainings run in ``min(trainings, usable cores)``
persistent worker processes at one BLAS thread each: one worker on one core,
and on macOS and Windows, which have no affinity mask to read (neither has
been run; CI is Linux only).  Each job carries its dataset, so a worker
keeps nothing between jobs.  Only summaries come back, in plan order, so any
number of workers gives the same bytes.

Accuracy numbers here are desk-scale analogs: they preserve the structural
comparisons (which variant beats which) but not the absolute values of
full-size benchmarks.
"""

from __future__ import annotations

import atexit
import csv
import hashlib
import math
import os
import pickle
import signal
import subprocess
import sys
import warnings
from collections import OrderedDict
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import core, fitter, idx
from .engine import (GRANULARITIES, MLPModel, ModelSpec, NonFiniteGradientError,
                     TrainConfig, TrainingDivergedError, evaluate, train)

__all__ = [
    "DEFAULT_SIGMAS", "Round", "SWEEP_COLUMNS", "SweepReport",
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


def _write_csv(path, comment: str | None, columns: Sequence[str], rows) -> None:
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
    gate_params: tuple[tuple[float, ...], ...]   # effective, per gate layer
    sigmas: tuple[float, ...] = ()               # the noise grid it was trained for
    accuracies: tuple[float, ...] = ()           # its test accuracy at each sigma

    @property
    def diverged(self) -> bool:
        return self.gate_count < 0


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


def _train_summary(spec: ModelSpec, dataset, config: TrainConfig,
                   sigmas: Sequence[float] = ()) -> _Summary:
    """Train ``config``: its summary, with its :func:`_accuracies` at ``sigmas``.

    Sigma 0 reads the clean test accuracy of ``train``'s last epoch.  A run
    whose loss or gradient turns non-finite gives ``_DIVERGED``.  A study
    worker calls this; the model never leaves it.
    """
    try:
        model, trace = train(spec, dataset, config)
    except (TrainingDivergedError, NonFiniteGradientError):
        return _DIVERGED
    test_acc = trace[-1].test_acc
    return _Summary(test_acc, model.learnable_activation_parameter_count(),
                    tuple(layer.effective_params() for layer in model.activation_layers()),
                    tuple(sigmas), _accuracies(model, dataset[2:], sigmas, config.seed, test_acc))


def _study_summaries(dataset, config: TrainConfig | None, seed: int, variants: list[dict],
                     sigmas: Sequence[float] = ()) -> list[_Summary]:
    """The summary of ``config`` at ``seed`` under each override, with accuracies at ``sigmas``.

    Trains and records only what no record serves: a record serves the grid
    it was made for, any grid if it diverged, and a study with no sigmas.
    """
    config, sigmas = config or TrainConfig(), tuple(sigmas)
    spec, data_digest = _spec_for(dataset), _dataset_digest(dataset)
    configs = [replace(config, seed=seed, **overrides) for overrides in variants]
    keys = [_summary_key(spec, cfg, data_digest) for cfg in configs]
    runs = [_summaries.get(key) for key in keys]
    todo = [i for i, run in enumerate(runs)
            if run is None or sigmas and not run.diverged and run.sigmas != sigmas]
    for i, run in zip(todo, _run_jobs([(spec, dataset, configs[i], sigmas) for i in todo])):
        runs[i] = _summaries[keys[i]] = run
    while len(_summaries) > _SUMMARY_CAP:
        _summaries.popitem(last=False)
    return runs


# ---------------------------------------------------------------------------
# study workers
# ---------------------------------------------------------------------------

# persistent for the process; each keeps nothing between jobs
_workers: list[subprocess.Popen] = []
_WORKER_ARGV = (sys.executable, "-c",
                f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parents[1])!r})\n"
                "from arcgate import experiments; experiments._serve()")


def _usable_cores() -> int:
    """Cores in this process's affinity mask; 1 where there is none to read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_jobs(jobs: list[tuple]) -> list[_Summary]:
    """:func:`_train_summary` of each ``(spec, dataset, config, sigmas)`` job, in plan order.

    The jobs run in ``min(jobs, usable cores)`` worker processes, kept for
    the life of this one: job i goes to worker i mod n once that worker
    has answered its previous job, and answers are read in job order.  A
    job carries its dataset, so a worker keeps nothing between jobs.  A
    worker's warnings are issued again here and its exception raised here,
    each in plan order.  A dead worker raises ``RuntimeError`` naming its job.
    """
    n_workers = min(len(jobs), _usable_cores())
    while len(_workers) < n_workers:
        _workers.append(subprocess.Popen(
            _WORKER_ARGV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}))
    answers = []
    try:
        # Job i goes out once its worker's answer to job i - n is read: a worker
        # holds one job at a time, so no pipe write waits forever, whatever size.
        for i in range(len(jobs) + n_workers):
            worker, at = _workers[i % n_workers], i - n_workers
            if at >= 0:
                answers.append(pickle.load(worker.stdout))
            if i < len(jobs):
                at = i
                pickle.dump(jobs[i], worker.stdin, protocol=5)
                worker.stdin.flush()
    except BaseException as exc:
        _stop_workers()
        if isinstance(exc, (OSError, EOFError, pickle.UnpicklingError)):
            raise RuntimeError(f"a study worker died while training {jobs[at][2]}") from exc
        raise
    for result, issued in answers:
        for category, message in issued:
            warnings.warn(message, category)
        if isinstance(result, Exception):
            raise result
    return [result for result, _ in answers]


@atexit.register
def _stop_workers() -> None:
    """Kill and wait for every worker; the next study call starts fresh ones."""
    while _workers:
        worker = _workers.pop()
        worker.kill()
        worker.communicate()        # closes its pipes and waits


def _serve() -> None:
    """A worker's loop, until its input ends: one answer per job.

    A job is a pickle of :func:`_train_summary`'s arguments (spec, dataset,
    config, sigmas); its answer is a pickle of its result, or the exception
    it raised, and the warnings it issued.  The job and its result are
    dropped before the next job is read.  File descriptor 1 is pointed at
    stderr, so a stray print cannot corrupt the answers.  An interrupt is
    left to the caller, which stops its workers.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    answers = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    while True:
        try:
            job = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = _train_summary(*job)
            except Exception as exc:    # noqa: BLE001 - raised again in the caller
                result = exc
        issued = list(dict.fromkeys((w.category, str(w.message)) for w in caught))
        answers.write(pickle.dumps((result, issued), protocol=5))
        answers.flush()
        del job, result     # an exception's traceback holds the dataset too


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

    Both models train at ``seed`` (it replaces ``config.seed``) on the same
    architecture; only the activation differs.  Each is evaluated in the
    study worker that trained it, on noise drawn there from seed
    ``seed * 1000 + i`` for sigma ``i``, so both see the same draws; sigma 0
    draws none, so it gives the clean test accuracy that training recorded.
    A model recorded for this very grid is read, not trained again.  If one
    training run diverges the report is returned partial, with the other
    model's rows.  A level given twice would be drawn twice, from two
    seeds, so ``sigmas`` must be non-empty and strictly increasing; -0.0
    is rejected, since its rows and digest would differ from those of 0.
    """
    sigmas = [float(s) for s in sigmas]
    if not (sigmas and all(math.isfinite(s) and math.copysign(1.0, s) > 0 for s in sigmas)
            and all(a < b for a, b in zip(sigmas, sigmas[1:]))):
        raise ValueError("sigmas must be non-empty, strictly increasing, finite and >= 0, "
                         f"got {sigmas}")
    config = config or TrainConfig()
    runs = _study_summaries(dataset, config, seed,
                            [_ARCGATE, {"init_strategy": "relu_baseline"}], sigmas)
    accuracies = {label: run.accuracies for label, run in zip(("arcgate", "relu"), runs)
                  if not run.diverged}
    return _sweep_report(accuracies, sigmas, seed, (_spec_for(dataset), config),
                         len(accuracies) < 2)


def _noise_seeds(sigmas: Sequence[float], seed: int) -> dict[float, int]:
    """Each sigma's noise seed: ``seed * 1000 + i`` for the ``i``-th."""
    return {s: seed * 1000 + i for i, s in enumerate(sigmas)}


def _accuracies(model: MLPModel, test, sigmas: Sequence[float], seed: int,
                clean: float | None = None) -> tuple[float, ...]:
    """:func:`evaluate` at each sigma and its noise seed; ``clean``, if given, is sigma 0's."""
    return tuple(clean if s == 0 and clean is not None else evaluate(model, test, s, noise_seed)
                 for s, noise_seed in _noise_seeds(sigmas, seed).items())


def _sweep_report(accuracies: dict[str, Sequence[float]], sigmas: list[float], seed: int,
                  key: tuple, partial: bool = False) -> SweepReport:
    """The rows of each ``label -> accuracies``; the digest covers ``key``, sigmas and seed."""
    rows = [SweepRow(label, s, acc[i]) for i, s in enumerate(sigmas)
            for label, acc in accuracies.items()]
    gains = ([(s, a - r) for s, a, r in zip(sigmas, accuracies["arcgate"], accuracies["relu"])]
             if len(accuracies) == 2 else [])
    return SweepReport(rows=rows, gains=gains, seed=seed, noise_seeds=_noise_seeds(sigmas, seed),
                       config_digest=_digest(*key, sigmas, seed), partial=partial)


#: The sweep table's header row, by which ``arcgate plot`` knows the table.
SWEEP_COLUMNS = ("model", "sigma", "accuracy", "seed")


def write_sweep_csv(report: SweepReport, path) -> None:
    _write_csv(path, f"config_digest={report.config_digest} seed={report.seed} "
                     f"noise_seeds={sorted(report.noise_seeds.items())!r} "
                     f"partial={report.partial}",
               SWEEP_COLUMNS,
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
    """One row per initialization strategy, all at ``seed``, which replaces ``config.seed``."""
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
    """Fixed vs global-shared vs layer-wise gates at ``seed``, which replaces ``config.seed``."""
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


def layer_evolution_report(model: MLPModel) -> list[LayerRow]:
    """Effective gate parameters per gate layer, ordered by depth.

    Only meaningful for layer-wise models, where the vectors can diverge.
    """
    acts = model.activation_layers()
    if not acts:
        raise ValueError("model has no gate layers")
    if any(layer.granularity != "layer_wise" for layer in acts):
        raise ValueError("layer evolution requires a layer_wise gate model")
    return _layer_report(layer.effective_params() for layer in acts)


def _layer_report(gate_params) -> list[LayerRow]:
    """Rows from effective gate parameters, one 7-tuple per gate layer by depth."""
    return [LayerRow(i, *params) for i, params in enumerate(gate_params)]


def write_layer_csv(rows: list[LayerRow], path) -> None:
    _write_csv(path, None, ["layer_index", "a", "c", "p", "alpha", "beta", "gamma", "delta"],
               ([r.layer_index] + [repr(v) for v in astuple(r)[1:]] for r in rows))


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
    layers: list[LayerRow]
    paths: dict[str, Path]     # CSV stem, or sensitivity curve name -> path


def run_round(dataset, config: TrainConfig, seed: int, out_dir) -> Round:
    """Run every study once, in order, writing its CSVs into ``out_dir``.

    The noise sweep over :data:`DEFAULT_SIGMAS`, both ablations, the layer
    report and the sensitivity curves.  ``seed`` replaces ``config.seed``
    in every training.  If the sweep's ArcGate training diverged,
    ``RuntimeError`` is raised after the three study CSVs.
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
    if arcgate.diverged:
        raise RuntimeError("the noise sweep's ArcGate training diverged; no layer report")
    layers = _layer_report(arcgate.gate_params)
    write_layer_csv(layers, paths["layer_evolution"])
    paths.update(sensitivity_curves(out_dir, seed=seed))
    return Round(sweep, init_rows, granularity_rows, layers, paths)
