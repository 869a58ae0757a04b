"""Arctangent-gated adaptive activation: evaluation, gradients, presets.

The activation is built in three stages.  A monotone transition

    u(x) = 1/2 + arctan(a * (x - c)) / pi

squashes the input into (0, 1).  An odds transform with a sharpness
exponent re-stretches the transition,

    v(x) = (2 / pi) * arctan((u / (1 - u)) ** p),

and an affine combination produces the final output,

    F(x) = (alpha * x + beta) * v(x) + (gamma * x + delta).

``a`` and ``p`` must stay strictly positive; they are stored as
unconstrained raw values and passed through :func:`positive_map`.

All evaluation funnels through one vectorized numpy kernel, so the batch
entry point is bit-identical to the scalar one by construction.  The
kernel never forms ``1 - u`` by subtraction and never exponentiates the
raw odds ratio: the complement side of the transition is computed as
``arctan2(1, |z|)`` and the odds power as ``exp(-|p * log_odds|)``, which
keeps every intermediate finite far beyond the ranges where a naive
transcription overflows.  The kernel's one record is :class:`GateTape`:
:func:`batch_eval` returns the forward intermediates in a fresh tape, and
:func:`batch_vjp` reads them and returns fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GATE_EPS",
    "ArcGateParams",
    "GateEval",
    "GateGrad",
    "GateTape",
    "batch_eval",
    "batch_value",
    "batch_vjp",
    "eval_F",
    "eval_F_batch",
    "eval_u",
    "eval_v",
    "gate_gradcheck",
    "grad",
    "positive_map",
    "positive_map_grad",
    "preset",
    "random_raw",
    "raw_from_effective",
]

# Gate values are confined to [GATE_EPS, 1 - GATE_EPS].  GATE_EPS is the gap
# between 1.0 and the largest double below it, so the clamp only acts where
# IEEE rounding would otherwise close the open interval (0, 1).
GATE_EPS = 2.0 ** -53

_HALF_PI = math.pi / 2.0
_POS_FLOOR = 1e-6     # additive floor of the positivity map
_Z_CAP = 1e150        # |a * (x - c)| cap; keeps z*z inside double range


# ---------------------------------------------------------------------------
# positivity map for a and p
# ---------------------------------------------------------------------------

def _softplus(r: float) -> float:
    if r > 0.0:
        return r + math.log1p(math.exp(-r))
    return math.log1p(math.exp(r))


def _softplus_inv(y: float) -> float:
    # y > 0 assumed
    if y > 30.0:
        return y + math.log1p(-math.exp(-y))
    return math.log(math.expm1(y))


def positive_map(raw: float) -> float:
    """Map an unconstrained raw parameter to its strictly positive effective value.

    Softplus plus a 1e-6 floor: the result is positive for every finite raw
    value and the gradient (see :func:`positive_map_grad`) never vanishes,
    so optimizers can always move a saturated gate.
    """
    return _POS_FLOOR + _softplus(float(raw))


def positive_map_grad(raw: float) -> float:
    """d(effective)/d(raw) of :func:`positive_map`; callers compose it explicitly."""
    r = float(raw)
    if r >= 0.0:
        e = math.exp(-r)
        return 1.0 / (1.0 + e)
    e = math.exp(r)
    return e / (1.0 + e)


def raw_from_effective(value: float) -> float:
    """Invert :func:`positive_map`.

    The analytic inverse is polished by an ulp walk so that round-tripping a
    representable effective value reproduces it bit-exactly whenever a
    preimage exists.
    """
    value = float(value)
    if not math.isfinite(value) or value <= _POS_FLOOR:
        raise ValueError(f"effective value must be finite and > {_POS_FLOOR}, got {value!r}")
    r = _softplus_inv(value - _POS_FLOOR)
    got = positive_map(r)
    if got == value:
        return r
    best, best_err = r, abs(got - value)
    for target in (math.inf, -math.inf):
        cand = r
        for _ in range(64):
            cand = math.nextafter(cand, target)
            got = positive_map(cand)
            if got == value:
                return cand
            err = abs(got - value)
            if err < best_err:
                best, best_err = cand, err
            if (got > value) == (target == math.inf):
                break
    return best


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcGateParams:
    """The seven-parameter vector (a, c, p, alpha, beta, gamma, delta).

    ``a_raw`` and ``p_raw`` store the unconstrained optimizer variables;
    the effective steepness and sharpness are their positive-mapped images.
    """

    a_raw: float
    c: float
    p_raw: float
    alpha: float
    beta: float
    gamma: float
    delta: float

    @property
    def a(self) -> float:
        return positive_map(self.a_raw)

    @property
    def p(self) -> float:
        return positive_map(self.p_raw)

    @classmethod
    def from_effective(cls, a: float, c: float, p: float, alpha: float,
                       beta: float, gamma: float, delta: float) -> "ArcGateParams":
        return cls(raw_from_effective(a), float(c), raw_from_effective(p),
                   float(alpha), float(beta), float(gamma), float(delta))

    @classmethod
    def from_raw_vector(cls, vec: Sequence[float]) -> "ArcGateParams":
        a_raw, c, p_raw, alpha, beta, gamma, delta = (float(t) for t in vec)
        return cls(a_raw, c, p_raw, alpha, beta, gamma, delta)

    def raw_vector(self) -> np.ndarray:
        """Raw values in declared order (a_raw, c, p_raw, alpha, beta, gamma, delta)."""
        return np.array([self.a_raw, self.c, self.p_raw,
                         self.alpha, self.beta, self.gamma, self.delta])

    def effective(self) -> tuple[float, float, float, float, float, float, float]:
        """Effective values (a, c, p, alpha, beta, gamma, delta)."""
        return (self.a, self.c, self.p, self.alpha, self.beta, self.gamma, self.delta)


@dataclass(frozen=True)
class GateEval:
    """Value of the gate stages at one point."""

    u: float
    v: float
    f: float
    log_odds: float


@dataclass(frozen=True)
class GateGrad:
    """F and its partials w.r.t. the input and the seven effective parameters."""

    f: float
    d_x: float
    d_a: float
    d_c: float
    d_p: float
    d_alpha: float
    d_beta: float
    d_gamma: float
    d_delta: float


# ---------------------------------------------------------------------------
# vectorized kernel
# ---------------------------------------------------------------------------

class GateTape:
    """The arrays :func:`batch_eval` returns, with the ``x`` and ``eff`` of its call.

    ``eff`` is the 7-tuple of floats, or the ``(k, 7)`` matrix of parameter
    rows (see :func:`batch_eval`); then every array is ``(k, n)``.
    The backward pass reads ``x``, ``v`` and ``z = a * (x - c)`` clipped to
    +-_Z_CAP, ``theta = arctan(|z|)``, ``psmall = arctan2(1, |z|) =
    pi * min(u, 1 - u)``, ``log_odds = log(u / (1 - u))`` and
    ``e = exp(-|p * log_odds|)``; ``f`` is the output.  No gradient reads
    ``u`` or ``t = p * log_odds``, so neither is kept: :func:`eval_u` and
    :func:`eval_F` derive ``u`` from ``z``, ``theta`` and ``psmall``.

    Every array but ``x`` is the tape's own: no later call writes into it.  A
    training step keeps one tape per gate layer until that layer's backward pass.
    """

    __slots__ = ("x", "eff", "z", "theta", "psmall", "log_odds", "e", "v", "f")

    def __init__(self, x, eff, *arrays):
        self.x, self.eff = x, eff
        self.z, self.theta, self.psmall, self.log_odds, self.e, self.v, self.f = arrays


def _columns(eff) -> tuple:
    """The seven parameters: floats, or ``(k, 1)`` columns of a ``(k, 7)`` matrix."""
    return tuple(eff.T[:, :, None]) if isinstance(eff, np.ndarray) else eff


def _operands(x, eff) -> tuple[np.ndarray, tuple | np.ndarray, tuple[int, ...]]:
    """``x`` as float64, ``eff`` as floats or a float64 ``(k, 7)`` matrix, and the tape shape."""
    x = np.asarray(x, dtype=np.float64)
    if isinstance(eff, np.ndarray) and eff.ndim == 2:
        k = eff.shape[0]
        if eff.shape[1] != 7 or not (x.ndim == 1 or x.ndim == 2 and x.shape[0] == k):
            raise ValueError(f"a (k, 7) parameter matrix needs a 1-D grid or k rows of x, "
                             f"got {eff.shape} over {x.shape}")
        return x, eff.astype(np.float64), (k, x.shape[-1])
    return x, tuple(map(float, eff)), x.shape


def batch_eval(x: np.ndarray, eff) -> GateTape:
    """Evaluate the gate elementwise over ``x`` for effective parameters ``eff``.

    ``eff`` is (a, c, p, alpha, beta, gamma, delta) with a, p already
    positive-mapped, or a ``(k, 7)`` array of such rows, each evaluated over
    all of a 1-D ``x`` or its own row of a ``(k, n)`` ``x``: ``(k, n)`` arrays.
    Returns a fresh tape, for :func:`_partials`; one work array holds the temporaries.
    """
    x, eff, shape = _operands(x, eff)
    a, c, p, alpha, beta, gamma, delta = _columns(eff)
    z, theta, psmall, log_odds, e, v, f, work = (np.empty(shape) for _ in range(8))
    with np.errstate(over="ignore", under="ignore"):
        np.subtract(x, c, out=z)
        z *= a
        np.clip(z, -_Z_CAP, _Z_CAP, out=z)
        az = np.abs(z, out=work)
        np.arctan(az, out=theta)
        np.arctan2(1.0, az, out=psmall)
        # Branches are selected arithmetically, exactly: a sign factor for
        # log_odds and a distance of finite, non-negative terms for v.
        # np.where and masked ufuncs cost ten simple passes when signs are mixed.
        np.multiply(2.0, theta, out=log_odds)
        log_odds /= psmall
        np.log1p(log_odds, out=log_odds)
        log_odds *= np.sign(z, out=work)                      # odd in z; 0 at 0
        t = np.multiply(p, log_odds, out=work)
        np.abs(t, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        # heaviside(t, 1) as a comparison; a NaN t steps to 0, but side keeps v NaN
        np.greater_equal(t, 0.0, out=v)
        side = np.arctan(e, out=work)
        side /= _HALF_PI
        v -= side
        np.abs(v, out=v)
        np.clip(v, GATE_EPS, 1.0 - GATE_EPS, out=v)
        np.multiply(alpha, x, out=f)
        f += beta
        f *= v
        linear = np.multiply(gamma, x, out=work)
        linear += delta
        f += linear
    return GateTape(x, eff, z, theta, psmall, log_odds, e, v, f)


def batch_value(x: np.ndarray, eff) -> np.ndarray:
    """``batch_eval(x, eff).f``: the gate's value alone, its tape dropped."""
    return batch_eval(x, eff).f


def _partials(tape: GateTape) -> tuple[np.ndarray, ...]:
    """Partials of F w.r.t. (x, a, c, p), as four fresh arrays; the affine four are closed-form."""
    a, c, p, alpha, beta, gamma, _delta = _columns(tape.eff)
    s0, s1, s2, s3 = (np.empty(tape.z.shape) for _ in range(4))
    with np.errstate(over="ignore", under="ignore"):
        dvdt = np.multiply(tape.e, tape.e, out=s0)
        dvdt += 1.0
        np.divide(tape.e, dvdt, out=dvdt)             # w / (1 + w^2), even in t
        dvdt /= _HALF_PI
        dvdz = np.add(_HALF_PI, tape.theta, out=s1)   # pi * max(u, 1 - u)
        np.divide(1.0, dvdz, out=dvdz)
        dvdz += np.divide(1.0, tape.psmall, out=s2)
        zz = np.multiply(tape.z, tape.z, out=s2)
        zz += 1.0
        dvdz /= zz                                    # dlog_odds/dz
        dvdz *= p
        dvdz *= dvdt
        lever = np.multiply(alpha, tape.x, out=s2)
        lever += beta
        d_p = np.multiply(lever, dvdt, out=s3)
        d_p *= tape.log_odds
        ld = np.multiply(lever, dvdz, out=s2)
        d_a = np.subtract(tape.x, c, out=s1)
        d_a *= ld
        d_c = np.multiply(ld, a, out=s2)              # negated once d_x has used it
        d_x = np.multiply(alpha, tape.v, out=s0)
        d_x += d_c
        d_x += gamma
        np.negative(d_c, out=d_c)
    return d_x, d_a, d_c, d_p


def batch_vjp(tape: GateTape, cotangent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward through one gate application of a 7-vector ``eff``.

    Returns ``(d_x, d_eff)`` where ``d_x`` matches the shape of the tape and
    ``d_eff`` is the 7-vector of cotangent-weighted sums over all elements,
    ordered (a, c, p, alpha, beta, gamma, delta).
    Effective-parameter gradients; the positive-map chain factor is the
    caller's job.  ``d_x`` is a fresh array, and the tape is only read.
    """
    g = np.asarray(cotangent, dtype=np.float64)
    d_eff = np.empty(7)
    d_x, d_a, d_c, d_p = _partials(tape)
    for j, partial in ((0, d_a), (1, d_c), (2, d_p)):
        d_eff[j] = np.multiply(g, partial, out=partial).sum()
    gx = np.multiply(g, tape.x, out=d_a)
    d_eff[5] = gx.sum()
    d_eff[3] = np.multiply(gx, tape.v, out=gx).sum()
    d_eff[4] = np.multiply(g, tape.v, out=d_c).sum()
    d_eff[6] = g.sum()
    return np.multiply(g, d_x, out=d_x), d_eff


# ---------------------------------------------------------------------------
# scalar API
# ---------------------------------------------------------------------------

def _check_params(eff) -> None:
    """Reject a non-finite c or affine coefficient, then a or p not finite and > 0."""
    a, c, p, *affine = eff
    for name, value in zip(("c", "alpha", "beta", "gamma", "delta"), (c, *affine)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    for name, value in (("steepness a", a), ("sharpness p", p)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _scalar_tape(x: float, eff) -> GateTape:
    """The one-element tape at ``x``, once ``x`` and then ``eff`` have passed their checks."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    _check_params(eff)
    return batch_eval(np.array([x]), eff)


def eval_u(x: float, a: float, c: float) -> float:
    """Monotone transition value in (0, 1); takes the effective steepness."""
    return _u_at(_scalar_tape(x, (float(a), float(c), 1.0, 0.0, 0.0, 0.0, 0.0)))


def _u_at(tape: GateTape) -> float:
    """``u`` of a one-element tape: ``theta/pi + 1/2`` where ``z >= 0``, else ``psmall/pi``."""
    if tape.z[0] >= 0.0:
        u = float(tape.theta[0]) / math.pi + 0.5
    else:
        u = float(tape.psmall[0]) / math.pi
    return min(max(u, GATE_EPS), 1.0 - GATE_EPS)


def eval_v(x: float, params: ArcGateParams) -> float:
    """Gated value in (0, 1) for the full parameter vector."""
    return float(_scalar_tape(x, (params.a, params.c, params.p, 0.0, 0.0, 0.0, 0.0)).v[0])


def eval_F(x: float, params: ArcGateParams) -> GateEval:
    """Full activation value with the internal stage values."""
    tape = _scalar_tape(x, params.effective())
    return GateEval(u=_u_at(tape), v=float(tape.v[0]), f=float(tape.f[0]),
                    log_odds=float(tape.log_odds[0]))


def eval_F_batch(xs: Sequence[float], params: ArcGateParams) -> np.ndarray:
    """Elementwise activation values; bit-identical to the scalar path."""
    eff = params.effective()
    _check_params(eff)
    x = np.asarray(xs, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"non-finite input at index {int(bad[0])}: {float(x.flat[bad[0]])!r}")
    return batch_value(x, eff)


def grad(x: float, params: ArcGateParams) -> GateGrad:
    """F and all eight partials w.r.t. the input and the effective parameters."""
    tape = _scalar_tape(x, params.effective())
    d_x, d_a, d_c, d_p = _partials(tape)
    xv = float(tape.x[0]) * float(tape.v[0])
    return GateGrad(
        f=float(tape.f[0]),
        d_x=float(d_x[0]),
        d_a=float(d_a[0]),
        d_c=float(d_c[0]),
        d_p=float(d_p[0]),
        d_alpha=xv,
        d_beta=float(tape.v[0]),
        d_gamma=float(tape.x[0]),
        d_delta=1.0,
    )


# ---------------------------------------------------------------------------
# gradient self-check
# ---------------------------------------------------------------------------

_GRADCHECK_BLOCK = 128    # draws per kernel call, so memory is flat in ``samples``


def gate_gradcheck(samples: int, seed: int) -> float:
    """Worst relative error of the kernel's partials against finite differences of F.

    Each of ``samples`` seeded draws picks effective parameters and an input
    and checks all eight partials against ``(4 D(h/2) - D(h)) / 3``, where
    ``D(s) = (F(v + s) - F(v - s)) / 2s`` and ``h = 1e-5 * max(1, |v|)``.
    The Richardson extrapolation cancels the h^2 truncation term, which on
    steep draws (large a, x near c) exceeds 1e-5 by itself.  Errors within
    the absolute floor 1e-8 are not counted.  Draws go through the kernel
    as ``(k, 7)`` parameter rows, 128 at a time: one evaluation gives the
    partials of :func:`grad`, two value calls the 32 shifted values per
    draw.  A drawn or shifted a or p reaches F through its raw preimage, as
    through ``ArcGateParams.from_effective``.  ``samples`` must be at least
    1: no draws would report a pass that checked nothing.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    # a draw is one row of uniforms: a, p, c, x - c and the affine four
    lo, hi = np.array([[0.1, 0.2, -3.0, -10.0, -2.0, -2.0, -2.0, -2.0],
                       [50.0, 5.0, 3.0, 10.0, 2.0, 2.0, 2.0, 2.0]])
    through_raw = np.vectorize(lambda v: positive_map(raw_from_effective(v)), otypes=[float])
    worst = 0.0
    for start in range(0, samples, _GRADCHECK_BLOCK):
        k = min(_GRADCHECK_BLOCK, samples - start)
        a, p, c, dx, alpha, beta, gamma, delta = (lo + (hi - lo) * rng.random((k, 8))).T
        vals = np.stack([c + dx, a, c, p, alpha, beta, gamma, delta], axis=1)
        h = 1e-5 * np.maximum(1.0, np.abs(vals))
        # each value, then shifted by h/2, -h/2, h and -h
        points = vals[..., None] + h[..., None] * np.array([0.0, 0.5, -0.5, 1.0, -1.0])
        points[:, [1, 3]] = through_raw(points[:, [1, 3]])
        x, eff = points[:, :1, 0], points[:, 1:, 0]
        tape = batch_eval(x, eff)
        analytic = np.concatenate([*_partials(tape), x * tape.v, tape.v, x, np.ones_like(x)],
                                  axis=1)
        rows = np.tile(eff[:, None, None], (1, 7, 4, 1))   # 4 shifts of each parameter
        for j in range(7):
            rows[:, j, :, j] = points[:, j + 1, 1:]
        f = np.concatenate([batch_value(points[:, 0, 1:], eff)[:, None],
                            batch_value(np.repeat(x, 28, axis=0), rows.reshape(-1, 7))
                            .reshape(k, 7, 4)], axis=1)
        fd = (4.0 * ((f[..., 0] - f[..., 1]) / h) - (f[..., 2] - f[..., 3]) / (2 * h)) / 3.0
        worst = max(worst, _worst_error(fd, analytic, 1e-8))
    return worst


def _worst_error(estimate, analytic, floor: float) -> float:
    """The largest ``err / max(|analytic|, 1e-300)`` among ``err = |estimate - analytic|`` above
    ``floor``, NaN ratios skipped; 0 if there is none."""
    ana = np.asarray(analytic, dtype=np.float64)
    with np.errstate(all="ignore"):
        err = np.abs(np.asarray(estimate, dtype=np.float64) - ana)
        ratio = err / np.maximum(np.abs(ana), 1e-300)
        return float(np.max(ratio, where=(err > floor) & (ratio >= 0.0), initial=0.0))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# preset kind -> its effective (a, c, p, alpha, beta, gamma, delta), in the order
# PRESET_KINDS lists them; None for a kind that builds its tuple from its argument
_PRESETS: dict[str, tuple[float, ...] | None] = {
    # the default training start: a soft rectifier (gating mode with a moderate
    # transition) whose output is x * v(x)
    "soft_relu_init": (5.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0),
    "identity": (5.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0),
    "relu_like": None,
    # a = 2 minimizes the sup-distance to the logistic sigmoid on [-6, 6]
    # among small integer steepness values
    "sigmoid_like": (2.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0),
    "tanh_like": (2.0, 0.0, 1.0, 0.0, 2.0, 0.0, -1.0),
    "leaky": None,
}
PRESET_KINDS = tuple(_PRESETS)


def preset(kind: str, arg: float | None = None) -> ArcGateParams:
    """Named parameter vectors for the classical special cases.

    ``relu_like`` takes a scale >= 1 (larger is closer to a hard rectifier);
    ``leaky`` takes a negative-side slope in (0, 1).  The other kinds take no
    argument.
    """
    if kind not in PRESET_KINDS:
        raise ValueError(f"unknown preset kind {kind!r}; expected one of {PRESET_KINDS}")
    if _PRESETS[kind] is not None:
        if arg is not None:
            raise ValueError(f"preset {kind!r} takes no argument")
        return ArcGateParams.from_effective(*_PRESETS[kind])
    if arg is None:
        raise ValueError(f"preset {kind!r} requires a numeric argument")
    try:
        value = float(arg)
    except (TypeError, ValueError):
        raise ValueError(f"preset {kind!r} argument must be a number, got {arg!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"preset {kind!r} argument must be finite, got {arg!r}")
    if kind == "relu_like":
        if value < 1.0:
            raise ValueError(f"relu_like scale must be >= 1, got {value!r}")
        return ArcGateParams.from_effective(value, 0.0, value, 1.0, 0.0, 0.0, 0.0)
    if not 0.0 < value < 1.0:
        raise ValueError(f"leaky slope must be in (0, 1), got {value!r}")
    return ArcGateParams.from_effective(1e4, 0.0, 1e4, 1.0, 0.0, value, 0.0)


def random_raw(rng: np.random.Generator) -> np.ndarray:
    """A seeded random raw vector: the random gate init and the fitter's restarts.

    Steepness and sharpness are uniform in raw space between the preimages
    of 0.5 and 8; c and the affine offsets are uniform in [-0.5, 0.5] and
    alpha in [0.5, 1.5].
    """
    lo = raw_from_effective(0.5)
    hi = raw_from_effective(8.0)
    a_raw, p_raw = rng.uniform(lo, hi, size=2)
    c, beta, gamma, delta = rng.uniform(-0.5, 0.5, size=4)
    alpha = rng.uniform(0.5, 1.5)
    return np.array([a_raw, c, p_raw, alpha, beta, gamma, delta])

