"""Least-squares recovery of classical activations inside the gate family.

Levenberg–Marquardt (Levenberg 1944; Marquardt 1963) over the seven raw
parameters on a fixed sample grid, with seeded random restarts and monotone
best-tracking: the returned result is never worse than the initialization
it was handed.

Every descent (each restart of each target fitted together) is one row of a
single loop.  Each iteration evaluates the running rows' trial points in one
kernel call, keeps a trial only where it lowers the loss (dividing that
row's damping λ by 3, else multiplying it by 2), reads the partials of the
rows that moved from the same kernel tape, and solves the damped normal
equations ``(JᵀJ + λ·D) δ = −Jᵀr`` of all rows at once, with D Marquardt's
``diag(JᵀJ)``.  A row leaves the batch when it stops, so it follows exactly
the arithmetic of a descent run on its own.  A descent stops on ``gtol``
(every component of ``Jᵀr`` within 1e-13 of zero), ``ftol`` (an accepted
step lowered the loss by at most 1e-8 relative), ``damping_cap`` (λ above
1e16), ``budget`` (``budget`` iterations) or ``nonfinite`` (its start or
Jacobian is not finite); the first three count as converged.  ``ftol`` is
what ends the classic fits, whose best parameters lie at infinity (a → 0,
p → ∞ on sigmoid) while the loss creeps down forever.  A descent is also
stopped, not converged, once an earlier restart of the same target has a
loss of exactly 0: no loss is below 0 and ties go to the earlier restart,
so it could never win.  This ends the random restarts of the identity
target, which would otherwise crawl to the budget towards the
unidentifiable alpha = beta = 0.

The ÷3/×2 damping schedule is Transtrum & Sethna's "delayed gratification"
(arXiv:1201.5885).  Under Marquardt's ÷10/×10, λ steps up and down on
alternate iterations while the sloppy classic fits creep towards
parameters at infinity, and about half of their trials are rejected; at
the default budget ÷3/×2 reaches the same losses in about a third of the
iterations.

Each row keeps the undamped ``JᵀJ`` and ``Jᵀr`` of its current point.  A
rejected trial changes neither, so although the kernel's partials are
taken once for every running row, only the rows whose trial was accepted
read theirs and take new products (MINPACK's LM likewise evaluates the
Jacobian only after a successful step).
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import core, zoo
from .core import ArcGateParams
from .zoo import ActivationKind

__all__ = ["FitResult", "FitTarget", "fit", "replicate_classics", "write_fit_csv",
           "CLASSIC_TARGETS", "FIT_COLUMNS"]

_GTOL = 1e-13
_FTOL = 1e-8          # MINPACK's default, the square root of the double epsilon
_LAMBDA_INIT = 1e-3
_LAMBDA_DOWN = 3.0    # λ is divided by this on an accepted trial
_LAMBDA_UP = 2.0      # and multiplied by this on a rejected one
_LAMBDA_MIN = 1e-10   # keeps λ·D above the rounding noise of a rank-deficient JᵀJ
_LAMBDA_CAP = 1e16
# D floors each row's diagonal at this share of its largest entry: the identity
# preset (alpha = beta = 0) has zero a, c and p columns
_DIAG_FLOOR = 1e-15


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
        for name, column in (("grid point", grid), ("value", values)):
            bad = np.flatnonzero(~np.isfinite(column))
            if bad.size:
                k = int(bad[0])
                raise ValueError(f"target {name} {k} is {float(column[k])!r}, not finite")

    @classmethod
    def from_kind(cls, kind: ActivationKind, lo: float = -6.0, hi: float = 6.0,
                  n_points: int = 1001) -> "FitTarget":
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"fit window must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        if n_points < 16:
            raise ValueError(f"target grid needs at least 16 points, got {n_points}")
        grid = np.linspace(lo, hi, n_points)
        values = np.array(zoo.act_batch(kind, grid))   # a copy: identity returns its input
        return cls(grid, values, kind.label())


@dataclass(frozen=True)
class FitResult:
    params: ArcGateParams
    l_inf_error: float
    l2_error: float
    iterations: int
    converged: bool


def fit(target: FitTarget, init: ArcGateParams, budget: int = 5000, seed: int = 0,
        restarts: int = 3) -> FitResult:
    """Minimize mean squared error of the gate against ``target`` on its grid.

    Restart 0 descends from ``init``; later restarts from seeded random
    draws.  The restarts run together as rows of one batched
    Levenberg–Marquardt loop (see the module docstring); each row makes at
    most ``budget`` iterations.  ``converged`` is true when the winning
    descent stopped on ``gtol``, ``ftol`` or ``damping_cap`` rather than on
    the budget.  A restart stops early, not converged, once an earlier
    restart has reached a loss of exactly 0, since it could no longer win.
    ``iterations`` sums the iterations of all restarts, stopped ones
    included.  The lowest loss wins, the earlier restart on a tie, so the
    result is never worse than ``init`` (``init`` with infinite errors if no
    descent is finite).  ``budget`` and ``restarts`` must be at least 1.
    """
    return _fit_targets(target.grid, target.values[None, :], [init], [seed],
                        budget, restarts)[0]


def _fit_targets(grid: np.ndarray, values: np.ndarray, inits: list[ArcGateParams],
                 seeds: list[int], budget: int, restarts: int) -> list[FitResult]:
    """Fit row ``j`` of ``values`` on ``grid`` as :func:`fit` would from ``inits[j]``.

    The restarts of every target descend together in one batch.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    init_raws = np.array([init.raw_vector() for init in inits])
    # restart draws never depend on a descent's outcome, so they are all made up front
    starts = []
    for init_raw, seed in zip(init_raws, seeds):
        rng = np.random.default_rng(seed)
        starts += [init_raw if restart == 0 else core.random_raw(rng)
                   for restart in range(restarts)]
    job = np.repeat(np.arange(len(inits)), restarts)
    outcomes = _descend_rows(grid, values[job], np.array(starts).reshape(-1, 7), job, budget)

    picks = []
    for j, init_raw in enumerate(init_raws):
        runs = [run for run in outcomes[j * restarts:(j + 1) * restarts] if run is not None]
        # min keeps the first of equal losses, and restart 0 descends from the init
        _, best_raw, _, converged = min(runs, key=lambda run: run[0],
                                        default=(math.inf, init_raw, 0, False))
        picks.append((best_raw, converged, sum(run[2] for run in runs), bool(runs)))

    final = _errors(grid, np.array([pick[0] for pick in picks]), values)
    return [FitResult(ArcGateParams.from_raw_vector(raw), l_inf, l2, iters, converged)
            if any_finite else FitResult(init, math.inf, math.inf, iters, False)
            for init, (raw, converged, iters, any_finite), (l_inf, l2)
            in zip(inits, picks, final)]


def _effective_rows(raws: np.ndarray) -> np.ndarray:
    """Effective parameter rows of raw rows, through the scalar positive map.

    The scalar ``math`` map keeps each row equal, bit for bit, to
    ``ArcGateParams.effective`` of that row.
    """
    eff = raws.copy()
    eff[:, 0] = [core.positive_map(r) for r in raws[:, 0].tolist()]
    eff[:, 2] = [core.positive_map(r) for r in raws[:, 2].tolist()]
    return eff


def _units(values: np.ndarray) -> np.ndarray | None:
    """Per row of ``values``, the unit its squared residuals are summed in; None if all are 1.

    A row whose ``n * max|y|**2`` overflows gets 2**e, with e from
    ``frexp(max|y|)``; dividing by a power of two is exact.  Every other row gets 1.
    """
    peak = np.max(np.abs(values), axis=1)
    big = peak > math.sqrt(sys.float_info.max / values.shape[1])
    if not big.any():
        return None
    return np.where(big, np.ldexp(1.0, np.frexp(peak)[1]), 1.0)


def _errors(grid: np.ndarray, raws: np.ndarray,
            values: np.ndarray) -> list[tuple[float, float]]:
    """(l_inf, l2) of each row of ``raws`` against the same row of ``values``.

    ``l2`` is summed in the row's :func:`_units` and scaled back after the root.
    """
    resid = core.batch_value(grid, _effective_rows(raws)) - values
    l_inf = np.max(np.abs(resid), axis=-1).tolist()
    unit = _units(values)
    if unit is not None:
        resid /= unit[:, None]
    with np.errstate(over="ignore"):    # a loss past the double range is inf
        l2 = np.sqrt(np.sum(resid * resid, axis=-1))
    if unit is not None:
        l2 *= unit
    return list(zip(l_inf, l2.tolist()))


def _descend_rows(grid: np.ndarray, values: np.ndarray, starts: np.ndarray,
                  targets: np.ndarray, budget: int) -> list:
    """Levenberg–Marquardt descents, one per row, batched into one loop.

    Row ``r`` fits ``values[r]`` from ``starts[r]``.  Returns, per row, (loss, raw,
    iterations, converged), or None if its start is not finite.  Iteration
    ``it`` evaluates the start (``it`` = 1) or the last trial point; a row
    moves only when that lowers its loss, so its point is always its best.

    ``targets[r]`` (a non-negative int) names the fit row ``r`` belongs to;
    the rows of one fit come in the order ties between them are broken.  A
    row stops, not converged, once an earlier row of its fit has a loss of
    exactly 0: a loss cannot go below 0 and the tie goes to the earlier row,
    so the stopped row could never be picked.

    A row with a :func:`_units` unit u other than 1 descends on ``values / u``
    from a start whose alpha, beta, gamma and delta are divided by u.  F is
    linear in those four, so its residuals and the a, c, p columns of its
    Jacobian are divided by u exactly, and its loss no longer overflows.  The
    loss returned is in that unit; the raw point is scaled back.
    """
    unit = _units(values)
    if unit is not None:
        values = values / unit[:, None]
        starts = starts.copy()
        starts[:, 3:] /= unit[:, None]
    k_all, n = values.shape
    outcomes: list = [None] * k_all
    # d(residual)/d(raw) of the rows that moved, in its first rows; the gamma and delta
    # columns are x and 1
    jac = np.zeros((k_all, 7, n))
    jac[:, 5], jac[:, 6] = grid, 1.0
    eye = np.eye(7)
    # per fit, the first row whose loss is exactly 0 (k_all while there is none)
    first_exact = np.full(int(targets.max(initial=-1)) + 1, k_all)
    ids, raw, trial, target = np.arange(k_all), starts.copy(), starts, targets
    loss = np.full(k_all, math.inf)
    # the start's acceptance lowers λ to _LAMBDA_INIT
    lam = np.full(k_all, _LAMBDA_DOWN * _LAMBDA_INIT)
    jtj = np.zeros((k_all, 7, 7))
    jtr = np.full((k_all, 7), math.nan)        # NaN until a row's start is accepted
    for it in range(1, budget + 1):
        tape = core.batch_eval(grid, _effective_rows(trial))
        trial_resid = tape.f - values
        with np.errstate(over="ignore"):    # a loss past the double range is inf
            trial_loss = np.sum(trial_resid * trial_resid, axis=-1) / n
        accept = np.isfinite(trial_loss) & (trial_loss < loss)
        small_step = accept & (trial_loss >= (1.0 - _FTOL) * loss)
        moved = np.flatnonzero(accept)
        if moved.size:
            with np.errstate(invalid="ignore"):   # rejected rows' partials are not read
                _, d_a, d_c, d_p = core._partials(tape)
            chain = np.array([[core.positive_map_grad(a), core.positive_map_grad(p)]
                              for a, p in trial[moved][:, [0, 2]].tolist()])
            jm = jac[:moved.size]
            jm[:, 0] = d_a[moved] * chain[:, :1]
            jm[:, 1] = d_c[moved]
            jm[:, 2] = d_p[moved] * chain[:, 1:]
            jm[:, 4] = tape.v[moved]
            jm[:, 3] = grid * jm[:, 4]
            jtr[moved] = (jm @ trial_resid[moved][:, :, None])[:, :, 0]
            jtj[moved] = jm @ jm.transpose(0, 2, 1)
        raw[accept], loss[accept] = trial[accept], trial_loss[accept]
        lam = np.where(accept, np.maximum(lam / _LAMBDA_DOWN, _LAMBDA_MIN), lam * _LAMBDA_UP)
        finite = np.all(np.isfinite(jtr), axis=1)   # false for a non-finite start or Jacobian
        converged = finite & (small_step | (np.max(np.abs(jtr), axis=1) <= _GTOL)
                              | (lam > _LAMBDA_CAP))
        for r in np.flatnonzero(loss == 0.0).tolist():
            first_exact[target[r]] = min(first_exact[target[r]], ids[r])
        pruned = first_exact[target] < ids
        converged &= ~pruned
        done = converged | ~finite | pruned | (it == budget)
        for r in np.flatnonzero(done & np.isfinite(loss)).tolist():
            outcomes[ids[r]] = (float(loss[r]), raw[r].copy(), it, bool(converged[r]))
        if done.any():
            keep = ~done
            ids, raw, target, values, loss, lam, jtj, jtr = (
                v[keep] for v in (ids, raw, target, values, loss, lam, jtj, jtr))
            if not ids.size:
                break
        diag = np.diagonal(jtj, axis1=1, axis2=2)
        damp = np.maximum(diag, _DIAG_FLOOR * np.max(diag, axis=1, keepdims=True))
        damped = jtj + (lam[:, None] * damp)[:, :, None] * eye
        with np.errstate(invalid="ignore", over="ignore"):
            trial = raw - np.linalg.solve(damped, jtr[:, :, None])[:, :, 0]
    if unit is not None:
        for u, outcome in zip(unit.tolist(), outcomes):
            if outcome is not None:
                outcome[1][3:] *= u
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
    A fit whose every descent is non-finite still yields a row, with
    infinite errors.
    """
    targets = [FitTarget.from_kind(kind, lo, hi, n_points) for kind, _ in CLASSIC_TARGETS]
    inits = [core.preset(*preset_args) for _, preset_args in CLASSIC_TARGETS]
    results = _fit_targets(targets[0].grid, np.array([t.values for t in targets]), inits,
                           [seed + i for i in range(len(targets))], budget, restarts=3)
    return [(kind, result) for (kind, _), result in zip(CLASSIC_TARGETS, results)]


#: The fit table's header row, by which ``arcgate plot`` knows the table.
FIT_COLUMNS = ("target", "kind", "a", "c", "p", "alpha", "beta", "gamma", "delta",
               "l_inf", "l2", "iterations", "converged")


def write_fit_csv(rows, path, window: tuple[float, float], budget: int, seed: int) -> None:
    """Emit the fit table; one row per target (ActivationKind or plain label).

    A leading ``# range=LO,HI budget=B seed=S`` comment records the fit
    window, which ``arcgate plot`` redraws the gates on.
    """
    path = Path(path)
    with open(path, "w", newline="") as f:
        lo, hi = (float(bound) for bound in window)
        f.write(f"# range={lo!r},{hi!r} budget={budget} seed={seed}\n")
        writer = csv.writer(f)
        writer.writerow(FIT_COLUMNS)
        for kind, res in rows:
            tag = kind.tag if isinstance(kind, ActivationKind) else str(kind)
            label = kind.label() if isinstance(kind, ActivationKind) else str(kind)
            a, c, p, alpha, beta, gamma, delta = res.params.effective()
            writer.writerow([tag, label,
                             repr(a), repr(c), repr(p), repr(alpha), repr(beta),
                             repr(gamma), repr(delta),
                             repr(res.l_inf_error), repr(res.l2_error),
                             res.iterations, res.converged])
