"""Least-squares recovery of classical activations inside the gate family.

Full-batch Adam over the seven raw parameters on a fixed sample grid, with
seeded random restarts and monotone best-tracking: the returned result is
never worse than the initialization it was handed.

Every descent (each restart of each target fitted together) is one row of
a single Adam loop.  Each step evaluates all running rows on the shared grid
in one batched kernel call that writes into reused buffers.  A row keeps its
own learning rate, blow-up retries, iteration count, best point and stall
record, and leaves the batch when it stops, so it follows exactly the
arithmetic of a descent run on its own.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import core, zoo
from .core import ArcGateParams
from .zoo import ActivationKind

__all__ = ["FitResult", "FitTarget", "fit", "replicate_classics", "write_fit_csv",
           "CLASSIC_TARGETS"]

_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8
_GRAD_TOL = 1e-8
_STALL_TOL = 1e-12
_STALL_WINDOW = 100
_ATTEMPTS = 6      # a descent that blows up retries from its start at half the rate


@dataclass(frozen=True)
class FitTarget:
    """Sample grid and target values the gate is fitted against."""

    grid: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 16:
            raise ValueError("target grid needs at least 16 points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("target grid must be strictly increasing")
        if values.shape != grid.shape:
            raise ValueError("grid and values must have matching shapes")

    @classmethod
    def from_kind(cls, kind: ActivationKind, lo: float = -6.0, hi: float = 6.0,
                  n_points: int = 1001) -> "FitTarget":
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        grid = np.linspace(lo, hi, n_points)
        values = np.array([zoo.act(kind, float(x)) for x in grid])
        return cls(grid, values, kind.label())


@dataclass(frozen=True)
class FitResult:
    params: ArcGateParams
    l_inf_error: float
    l2_error: float
    iterations: int
    converged: bool


def fit(target: FitTarget, init: ArcGateParams, budget: int = 5000, seed: int = 0,
        lr: float = 0.02, restarts: int = 3,
        effective_cap: float | None = None) -> FitResult:
    """Minimize mean squared error of the gate against ``target`` on its grid.

    Restart 0 descends from ``init``; later restarts from seeded random
    draws.  The restarts run together as rows of one batched Adam loop (see
    the module docstring); each row stops at ``budget`` iterations or at a
    stationary point, and a row that blows up retries from its start at half
    the learning rate, six attempts in all.  ``effective_cap`` optionally
    clamps the effective steepness and sharpness below a ceiling (projected
    after every step), which is how the hard-rectifier limit is probed.
    Best parameters across all restarts and iterations win; the init itself
    is the starting incumbent.
    """
    return _fit_targets(target.grid, target.values[None, :], [init], [seed],
                        [effective_cap], budget, lr, restarts)[0]


def _fit_targets(grid: np.ndarray, values: np.ndarray, inits: list[ArcGateParams],
                 seeds: list[int], effective_caps: list[float | None], budget: int,
                 lr: float, restarts: int) -> list[FitResult]:
    """Fit row ``j`` of ``values`` on ``grid`` as :func:`fit` would from ``inits[j]``.

    The restarts of every target descend together in one batch.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    restarts = max(restarts, 0)
    raw_caps = np.array([math.inf if cap is None else core.raw_from_effective(cap)
                         for cap in effective_caps])
    init_raws = _clamp(np.array([init.raw_vector() for init in inits]), raw_caps)
    # restart draws never depend on a descent's outcome, so they are all made up front
    starts = []
    for init_raw, seed in zip(init_raws, seeds):
        rng = np.random.default_rng(seed)
        starts += [init_raw if restart == 0 else core.random_raw(rng)
                   for restart in range(restarts)]
    job = np.repeat(np.arange(len(inits)), restarts)
    outcomes = _descend_rows(grid, values[job],
                             _clamp(np.array(starts).reshape(-1, 7), raw_caps[job]),
                             raw_caps[job], budget, lr)

    picks = []
    for j, (init_loss, _, _) in enumerate(_errors(grid, init_raws, values)):
        best_loss = init_loss if math.isfinite(init_loss) else math.inf
        best_raw, best_converged = init_raws[j], False
        total_iters, any_finite = 0, math.isfinite(init_loss)
        for restart, outcome in enumerate(outcomes[j * restarts:(j + 1) * restarts]):
            if outcome is None:
                continue
            loss, raw, iters, converged = outcome
            total_iters += iters
            any_finite = True
            if loss < best_loss or (restart == 0 and loss == best_loss):
                best_loss, best_raw, best_converged = loss, raw, converged
        picks.append((best_raw, best_converged, total_iters, any_finite))

    final = _errors(grid, np.array([pick[0] for pick in picks]), values)
    results = []
    for init, (best_raw, converged, iters, any_finite), (_, l_inf, l2) in zip(inits, picks, final):
        if not any_finite:
            results.append(FitResult(params=init, l_inf_error=math.inf, l2_error=math.inf,
                                     iterations=iters, converged=False))
        else:
            results.append(FitResult(params=ArcGateParams.from_raw_vector(best_raw),
                                     l_inf_error=l_inf, l2_error=l2,
                                     iterations=iters, converged=converged))
    return results


def _clamp(raws: np.ndarray, raw_caps: np.ndarray) -> np.ndarray:
    """Project each row's raw a and p below its cap, in place."""
    np.minimum(raws[:, 0], raw_caps, out=raws[:, 0])
    np.minimum(raws[:, 2], raw_caps, out=raws[:, 2])
    return raws


def _effective_rows(raws: np.ndarray) -> np.ndarray:
    """Effective parameter rows of raw rows, through the scalar positive map.

    The scalar ``math`` map keeps each row equal, bit for bit, to
    ``ArcGateParams.effective`` of that row.
    """
    eff = raws.copy()
    eff[:, 0] = [core.positive_map(r) for r in raws[:, 0].tolist()]
    eff[:, 2] = [core.positive_map(r) for r in raws[:, 2].tolist()]
    return eff


def _errors(grid: np.ndarray, raws: np.ndarray,
            values: np.ndarray) -> list[tuple[float, float, float]]:
    """(mse, l_inf, l2) of each row of ``raws`` against the same row of ``values``."""
    resid = core.batch_eval(grid, _effective_rows(raws)).f - values
    sq = np.sum(resid * resid, axis=-1).tolist()
    l_inf = np.max(np.abs(resid), axis=-1).tolist()
    n = grid.size
    return [(s / n, m, math.sqrt(s)) for s, m in zip(sq, l_inf)]


class _Rows:
    """State of the running descents, one row each, in batch order."""

    def __init__(self, starts: np.ndarray, caps: np.ndarray, lr: float):
        k = len(starts)
        self.id = np.arange(k)
        self.start = starts
        self.cap = caps
        self.lr = np.full(k, float(lr))
        self.attempt = np.zeros(k, dtype=np.int64)
        self.raw = np.empty_like(starts)
        self.m = np.empty_like(starts)
        self.v = np.empty_like(starts)
        self.it = np.empty(k, dtype=np.int64)
        self.best_loss = np.empty(k)
        self.best_raw = np.empty_like(starts)
        self.stall_anchor = np.empty(k)
        self.stalled = np.empty(k, dtype=bool)
        self.restart(slice(None))

    def restart(self, rows) -> None:
        """Send ``rows`` back to their starts with fresh Adam moments and records."""
        self.raw[rows] = self.start[rows]
        self.m[rows] = 0.0
        self.v[rows] = 0.0
        self.it[rows] = 0
        self.best_loss[rows] = math.inf
        self.best_raw[rows] = self.start[rows]
        self.stall_anchor[rows] = math.inf
        self.stalled[rows] = False

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row not selected by the mask ``rows``."""
        for name, value in vars(self).items():
            setattr(self, name, value[rows])


def _stationary(g: np.ndarray) -> np.ndarray:
    """Rows whose gradient norm, as ``np.linalg.norm`` gives it, is below ``_GRAD_TOL``."""
    out = np.zeros(len(g), dtype=bool)
    # the norm is at least the largest |component|, so only small rows need it
    for r in np.flatnonzero(np.max(np.abs(g), axis=1) < 2.0 * _GRAD_TOL).tolist():
        out[r] = float(np.linalg.norm(g[r])) < _GRAD_TOL
    return out


def _descend_rows(grid: np.ndarray, values: np.ndarray, starts: np.ndarray,
                  caps: np.ndarray, budget: int, lr: float) -> list:
    """Adam descents, one per row, batched into one kernel call per step.

    Row ``r`` fits ``values[r]`` from ``starts[r]`` and clamps its raw a and p
    below ``caps[r]`` after every step.  Returns, per row, (best_loss,
    best_raw, iterations, converged), or None if every attempt blew up.

    Only true stationarity (tiny gradient) stops a row early; a slow window
    is merely recorded, since Adam routinely crosses plateaus it later
    escapes.  The kernel writes into buffers reused across steps, so the
    loop allocates no array the size of the grid.
    """
    k_all, n = values.shape
    b1, b2 = _ADAM_BETAS
    outcomes: list = [None] * k_all
    rows = _Rows(starts, caps, lr)
    all_buffers = core.GateBuffers((k_all, n))
    all_resid, all_cot, all_values = (np.empty((k_all, n)) for _ in range(3))
    k = -1
    while rows.id.size:
        if rows.id.size != k:   # rows only ever leave the batch
            k = rows.id.size
            buffers = all_buffers.rows(k)
            resid, cot = all_resid[:k], all_cot[:k]
            row_values = np.take(values, rows.id, axis=0, out=all_values[:k])
        rows.it += 1
        tape = core.batch_eval(grid, _effective_rows(rows.raw), buffers)
        np.subtract(tape.f, row_values, out=resid)
        loss = np.sum(np.multiply(resid, resid, out=cot), axis=-1) / n
        np.divide(np.multiply(2.0, resid, out=cot), n, out=cot)
        _, g = core.batch_vjp(tape, cot, buffers)
        g[:, [0, 2]] *= [[core.positive_map_grad(a), core.positive_map_grad(p)]
                         for a, p in rows.raw[:, [0, 2]].tolist()]

        ok = np.isfinite(loss) & np.all(np.isfinite(g), axis=1)
        better = ok & (loss < rows.best_loss)
        rows.best_loss[better] = loss[better]
        rows.best_raw[better] = rows.raw[better]
        converged = ok & _stationary(g)
        for r in np.flatnonzero(ok & ~converged & (rows.it % _STALL_WINDOW == 0)).tolist():
            anchor, best = float(rows.stall_anchor[r]), float(rows.best_loss[r])
            rows.stalled[r] = math.isfinite(anchor) and \
                anchor - best <= _STALL_TOL * max(abs(anchor), 1e-300)
            rows.stall_anchor[r] = best

        # every row takes the Adam step; rows that blew up or stop now discard it
        its = rows.it.tolist()
        bias1 = np.array([1 - b1 ** it for it in its])[:, None]
        bias2 = np.array([1 - b2 ** it for it in its])[:, None]
        with np.errstate(invalid="ignore", over="ignore"):
            rows.m = b1 * rows.m + (1 - b1) * g
            rows.v = b2 * rows.v + (1 - b2) * g * g
            rows.raw = rows.raw - rows.lr[:, None] * (rows.m / bias1) / \
                (np.sqrt(rows.v / bias2) + _ADAM_EPS)
        _clamp(rows.raw, rows.cap)

        blown = ~ok
        if blown.any():
            rows.attempt[blown] += 1
            rows.lr[blown] *= 0.5
            rows.restart(blown & (rows.attempt < _ATTEMPTS))
        done = converged | (ok & (rows.it >= budget)) | (rows.attempt >= _ATTEMPTS)
        if done.any():
            for r in np.flatnonzero(done & ok).tolist():
                outcomes[rows.id[r]] = (float(rows.best_loss[r]), rows.best_raw[r].copy(),
                                        int(rows.it[r]), bool(converged[r] or rows.stalled[r]))
            rows.keep(~done)
    return outcomes


#: Classic targets in table order with the preset each fit starts from.
CLASSIC_TARGETS: tuple[tuple[ActivationKind, tuple[str, float | None]], ...] = (
    (ActivationKind("relu"), ("relu_like", 1e4)),
    (ActivationKind("sigmoid"), ("sigmoid_like", None)),
    (ActivationKind("tanh"), ("tanh_like", None)),
    (ActivationKind("silu"), ("soft_relu_init", None)),
    (ActivationKind("gelu"), ("soft_relu_init", None)),
    (ActivationKind("leaky_relu", 0.01), ("leaky", 0.01)),
    (ActivationKind("identity"), ("identity", None)),
)


def replicate_classics(lo: float = -6.0, hi: float = 6.0, n_points: int = 1001,
                       budget: int = 5000, seed: int = 0,
                       ) -> list[tuple[ActivationKind, FitResult]]:
    """Fit every classic target from its matching preset, as :func:`fit` with seed ``seed + i``.

    All targets share one grid, so their 7 x 3 descents run as one batch.
    A fit whose every descent blows up still yields a row, with infinite
    errors.
    """
    targets = [FitTarget.from_kind(kind, lo, hi, n_points) for kind, _ in CLASSIC_TARGETS]
    inits = [core.preset(*preset_args) for _, preset_args in CLASSIC_TARGETS]
    results = _fit_targets(targets[0].grid, np.array([t.values for t in targets]), inits,
                           [seed + i for i in range(len(targets))], [None] * len(targets),
                           budget, lr=0.02, restarts=3)
    return [(kind, result) for (kind, _), result in zip(CLASSIC_TARGETS, results)]


def write_fit_csv(rows, path) -> None:
    """Emit the fit table; one row per target (ActivationKind or plain label)."""
    path = Path(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["target", "kind", "a", "c", "p", "alpha", "beta",
                         "gamma", "delta", "l_inf", "l2", "iterations", "converged"])
        for kind, res in rows:
            tag = kind.tag if isinstance(kind, ActivationKind) else str(kind)
            label = kind.label() if isinstance(kind, ActivationKind) else str(kind)
            a, c, p, alpha, beta, gamma, delta = res.params.effective()
            writer.writerow([tag, label,
                             repr(a), repr(c), repr(p), repr(alpha), repr(beta),
                             repr(gamma), repr(delta),
                             repr(res.l_inf_error), repr(res.l2_error),
                             res.iterations, res.converged])
