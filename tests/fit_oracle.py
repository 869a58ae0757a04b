"""Reference for the fitter: the sequential restart/descent loop it replaced.

One Adam descent per restart, one kernel call per iteration, run one after
another.  The batched fitter must return exactly the same ``FitResult``.
``sequential_fit`` also returns its attempt log, ``(restart, attempt,
iterations or None on blow-up)``, so tests can show which paths a case takes.
"""

import math
import numpy as np
from arcgate import core
from arcgate.core import ArcGateParams
from arcgate.fitter import FitResult

_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8
_GRAD_TOL = 1e-8
_STALL_TOL = 1e-12
_STALL_WINDOW = 100


def _errors(raw, target):
    eff = ArcGateParams.from_raw_vector(raw).effective()
    resid = core.batch_eval(target.grid, eff).f - target.values
    mse = float(np.mean(resid * resid))
    return mse, float(np.max(np.abs(resid))), float(math.sqrt(np.sum(resid * resid)))


def _loss_and_grad(raw, target):
    eff = ArcGateParams.from_raw_vector(raw).effective()
    tape = core.batch_eval(target.grid, eff)
    resid = tape.f - target.values
    n = target.grid.size
    _, d_eff = core.batch_vjp(tape, 2.0 * resid / n)
    d_raw = d_eff.copy()
    d_raw[0] *= core.positive_map_grad(float(raw[0]))
    d_raw[2] *= core.positive_map_grad(float(raw[2]))
    return float(np.mean(resid * resid)), d_raw


def _random_raw(rng):
    lo = core.raw_from_effective(0.5)
    hi = core.raw_from_effective(8.0)
    a_raw, p_raw = rng.uniform(lo, hi, size=2)
    c, beta, gamma, delta = rng.uniform(-0.5, 0.5, size=4)
    alpha = rng.uniform(0.5, 1.5)
    return np.array([a_raw, c, p_raw, alpha, beta, gamma, delta])


def sequential_fit(target, init, budget=5000, seed=0, lr=0.02, restarts=3,
                   effective_cap=None):
    rng = np.random.default_rng(seed)
    raw_cap = None if effective_cap is None else core.raw_from_effective(effective_cap)
    log = []

    def clamp(raw):
        if raw_cap is not None:
            raw[0] = min(raw[0], raw_cap)
            raw[2] = min(raw[2], raw_cap)
        return raw

    init_raw = clamp(init.raw_vector())
    init_loss, _, _ = _errors(init_raw, target)
    best_loss = init_loss if math.isfinite(init_loss) else math.inf
    best_raw = init_raw.copy()
    best_converged = False
    total_iters = 0
    any_finite = math.isfinite(init_loss)
    for restart in range(restarts):
        start = init_raw.copy() if restart == 0 else clamp(_random_raw(rng))
        attempt_lr = lr
        for attempt in range(6):
            outcome = _descend(start.copy(), target, budget, attempt_lr, clamp)
            if outcome is None:
                log.append((restart, attempt, None))
                attempt_lr *= 0.5
                continue
            loss, raw, iters, converged = outcome
            log.append((restart, attempt, iters))
            total_iters += iters
            any_finite = True
            if loss < best_loss or (restart == 0 and loss == best_loss):
                best_loss, best_raw, best_converged = loss, raw, converged
            break
    if not any_finite:
        return FitResult(params=init, l_inf_error=math.inf, l2_error=math.inf,
                         iterations=total_iters, converged=False), log
    _, l_inf, l2 = _errors(best_raw, target)
    return FitResult(params=ArcGateParams.from_raw_vector(best_raw),
                     l_inf_error=l_inf, l2_error=l2,
                     iterations=total_iters, converged=best_converged), log


def _descend(raw, target, budget, lr, clamp):
    m = np.zeros(7)
    v = np.zeros(7)
    b1, b2 = _ADAM_BETAS
    best_loss = math.inf
    best_raw = raw.copy()
    stall_anchor = math.inf
    stalled = False
    converged = False
    it = 0
    while it < budget:
        it += 1
        loss, g = _loss_and_grad(raw, target)
        if not (math.isfinite(loss) and np.all(np.isfinite(g))):
            return None
        if loss < best_loss:
            best_loss = loss
            best_raw = raw.copy()
        gnorm = float(np.linalg.norm(g))
        if gnorm < _GRAD_TOL:
            converged = True
            break
        if it % _STALL_WINDOW == 0:
            stalled = math.isfinite(stall_anchor) and \
                stall_anchor - best_loss <= _STALL_TOL * max(abs(stall_anchor), 1e-300)
            stall_anchor = best_loss
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** it)
        vhat = v / (1 - b2 ** it)
        raw = clamp(raw - lr * mhat / (np.sqrt(vhat) + _ADAM_EPS))
    return best_loss, best_raw, it, converged or stalled
