"""The benchmark workloads: set-up, warm-up, one measured operation, checks.

Each workload is a closed loop with one caller: the next operation starts
only when the previous one has returned.  An operation is work a user
waits for (a desk training run; a round of studies, classic fits and the
gradient self-check).  Its inputs come from the operation seed; the checks
compare its outputs against ``references.json`` and against invariants
the library documents.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from arcgate import cli, core, engine, experiments, fitter, idx
from arcgate.engine import ModelSpec, TrainConfig
from arcgate.zoo import ActivationKind

REFERENCES = json.loads((Path(__file__).with_name("references.json")).read_text())

DESK_SPEC = ModelSpec(in_dim=784, hidden=(256, 128, 64), n_classes=10)


def desk_config(seed: int, epochs: int) -> TrainConfig:
    return TrainConfig(epochs=epochs, batch_size=64, seed=seed,
                       init_strategy="soft_relu", granularity="layer_wise")


@dataclass
class Outcome:
    """What one operation produced: its result, its work count, and a byte fingerprint."""

    result: object
    items: float
    fingerprint: bytes


@dataclass(frozen=True)
class Workload:
    name: str
    item: str                                            # what items_per_s counts
    warm_up: Callable[[idx.Dataset], None]
    run: Callable[[idx.Dataset, int], object]            # the measured call
    summarize: Callable[[object, idx.Dataset, Path], Outcome]
    check: Callable[[object, idx.Dataset, Path], list[str]]
    reference_check: Callable[[idx.Dataset, Path], list[str]] | None   # once per run


def load(paths: dict[str, str]) -> idx.Dataset:
    """Read the fixture's four IDX files with ``idx.load_idx``."""
    x_train, y_train = idx.load_idx(paths["train_images"], paths["train_labels"])
    x_test, y_test = idx.load_idx(paths["test_images"], paths["test_labels"])
    return idx.Dataset(x_train, y_train, x_test, y_test)


def set_up(work_dir: Path) -> tuple[dict[str, str], idx.Dataset]:
    """Synthesize the bundled 5k/1k fixture, write it as IDX, read it back."""
    paths = {k: str(v) for k, v in idx.synthesize_idx_files(work_dir).items()}
    return paths, load(paths)


def fixture_check(data: idx.Dataset) -> list[str]:
    """The IDX round trip must reproduce the in-memory fixture exactly."""
    if all(np.array_equal(a, b) for a, b in zip(data, idx.synthesize_arrays())):
        return []
    return ["IDX round trip differs from the synthesized fixture"]


def _warm_train(data: idx.Dataset) -> None:
    small = idx.Dataset(data.x_train[:640], data.y_train[:640],
                        data.x_test[:200], data.y_test[:200])
    engine.train(DESK_SPEC, small, desk_config(0, 1))


# ---------------------------------------------------------------------------
# train_desk: engine.train on the desk fixture
# ---------------------------------------------------------------------------

TRAIN_EPOCHS = 2
_TRAIN_REF = REFERENCES["train_desk"]


def _train_run(data, seed):
    return engine.train(DESK_SPEC, data, desk_config(seed, TRAIN_EPOCHS))


def _train_summarize(result, data, work_dir) -> Outcome:
    model, _trace = result
    path = work_dir / "model.agm1"
    engine.save_model(model, path)
    return Outcome(result, TRAIN_EPOCHS * len(data.x_train), path.read_bytes())


def _train_check(result, data, work_dir) -> list[str]:
    model, trace = result
    problems = []
    loss = trace[-1].train_loss
    lo, hi = _TRAIN_REF["final_loss_envelope"]
    if not (math.isfinite(loss) and lo <= loss <= hi):
        problems.append(f"final train loss {loss!r} outside [{lo}, {hi}]")
    loaded = engine.load_model(work_dir / "model.agm1")    # written by _train_summarize
    if not np.array_equal(engine.predict(loaded, data.x_test), engine.predict(model, data.x_test)):
        problems.append("AGM1 round trip changed the predictions")
    return problems


def _train_reference(data, work_dir) -> list[str]:
    """Train the pinned reference seed and compare its final loss with the stored one."""
    ref = _TRAIN_REF["reference"]
    _model, trace = engine.train(DESK_SPEC, data, desk_config(ref["seed"], ref["epochs"]))
    loss, want = trace[-1].train_loss, ref["final_train_loss"]
    if not math.isclose(loss, want, rel_tol=ref["rel_tol"], abs_tol=0.0):
        return [f"reference seed {ref['seed']}: final train loss {loss!r}, stored {want!r}"]
    return []


# ---------------------------------------------------------------------------
# experiments, part 1: noise sweep, init ablation, granularity ablation
# ---------------------------------------------------------------------------

STUDY_EPOCHS = 1
STUDY_TRAININGS = 9
_STUDY_REF = REFERENCES["studies"]


def _studies_run(data, seed):
    config = TrainConfig(epochs=STUDY_EPOCHS)
    return (experiments.noise_sweep(data, config=config, seed=seed),
            experiments.init_ablation(data, config=config, seed=seed),
            experiments.granularity_ablation(data, config=config, seed=seed))


def _studies_fingerprint(result) -> bytes:
    sweep, inits, grans = result
    return repr((sweep.rows, sweep.gains, sweep.partial, inits, grans)).encode()


def _studies_check(result) -> list[str]:
    sweep, inits, grans = result
    problems = []
    if sweep.partial:
        problems.append("noise sweep report is partial")
    if len(sweep.rows) != _STUDY_REF["sweep_rows"]:
        problems.append(f"noise sweep has {len(sweep.rows)} rows")
    counts = {row.granularity: row.learnable_activation_params for row in grans}
    if counts != _STUDY_REF["learnable_activation_params"]:
        problems.append(f"learnable gate parameter counts {counts}")
    accuracies = [r.accuracy for r in sweep.rows] + [r.test_accuracy for r in inits] \
        + [r.test_accuracy for r in grans]
    if not all(0.0 <= a <= 1.0 for a in accuracies):
        problems.append("a training diverged or an accuracy is out of range")
    return problems


# ---------------------------------------------------------------------------
# experiments, part 2: fitter.replicate_classics
# ---------------------------------------------------------------------------

_FIT_REF = REFERENCES["fit_classics"]


def _fit_warm_up() -> None:
    target = fitter.FitTarget.from_kind(ActivationKind("sigmoid"))
    fitter.fit(target, core.preset("sigmoid_like"), budget=100, restarts=1)


def _fit_fingerprint(rows) -> bytes:
    return b"".join(kind.label().encode() + res.params.raw_vector().tobytes()
                    + struct.pack("<ddi?", res.l_inf_error, res.l2_error, res.iterations,
                                  res.converged)
                    for kind, res in rows)


def _fit_check(rows, ceilings: dict[str, float]) -> list[str]:
    problems = [] if len(rows) == 7 else [f"{len(rows)} fit rows, expected 7"]
    for kind, res in rows:
        values = (*res.params.raw_vector(), res.l_inf_error, res.l2_error)
        if not all(math.isfinite(v) for v in values) or res.iterations < 1:
            problems.append(f"{kind.label()}: non-finite or empty fit row")
        elif kind.tag in ceilings and not res.l_inf_error <= ceilings[kind.tag]:
            problems.append(f"{kind.label()}: l_inf {res.l_inf_error!r} above "
                            f"ceiling {ceilings[kind.tag]!r}")
    return problems


# ---------------------------------------------------------------------------
# experiments, part 3: the CLI's analytical-vs-finite-difference suites
# ---------------------------------------------------------------------------

GRADCHECK_SAMPLES = 1000


def _gradcheck(samples: int, seed: int) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(["gradcheck", "--samples", str(samples), "--seed", str(seed)])
    return code, err.getvalue()


def _gradcheck_check(result) -> list[str]:
    code, text = result
    return [] if code == 0 else [f"gradcheck exited {code}: {text.strip()!r}"]


# ---------------------------------------------------------------------------
# experiments: the three parts as one operation
# ---------------------------------------------------------------------------

def _experiments_warm_up(data) -> None:
    _warm_train(data)
    _fit_warm_up()
    _gradcheck(20, 0)


def _experiments_run(data, seed):
    return (_studies_run(data, seed),
            fitter.replicate_classics(budget=_FIT_REF["budget"], seed=seed),
            _gradcheck(GRADCHECK_SAMPLES, seed))


def _experiments_summarize(result, data, work_dir) -> Outcome:
    studies, rows, gradcheck = result
    fingerprint = b"\0".join((_studies_fingerprint(studies), _fit_fingerprint(rows),
                              repr(gradcheck).encode()))
    return Outcome(result, STUDY_TRAININGS * STUDY_EPOCHS * len(data.x_train), fingerprint)


def _experiments_check(result, data, work_dir) -> list[str]:
    studies, rows, gradcheck = result
    return _studies_check(studies) + _fit_check(rows, _FIT_REF["l_inf_ceiling"]) \
        + _gradcheck_check(gradcheck)


WORKLOADS = {w.name: w for w in (
    Workload("train_desk", "training samples", _warm_train, _train_run,
             _train_summarize, _train_check, _train_reference),
    Workload("experiments", "study training samples", _experiments_warm_up, _experiments_run,
             _experiments_summarize, _experiments_check, None),
)}
