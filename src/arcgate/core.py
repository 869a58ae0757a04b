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
transcription overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GATE_EPS",
    "ArcGateParams",
    "GateBuffers",
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

@dataclass
class GateTape:
    """Forward intermediates kept for the backward pass.

    ``eff`` is the 7-tuple of floats the tape was evaluated with, or the
    ``(k, 7)`` matrix whose rows were broadcast over a 1-D ``x``; in that case
    every other array is ``(k, x.size)``.  The transition value ``u`` is not
    kept: no gradient reads it, and :func:`eval_u` and :func:`eval_F` derive
    it from ``z``, ``theta`` and ``psmall`` (``theta/pi + 1/2`` where
    ``z >= 0``, else ``psmall/pi``).  No gradient reads ``t`` either: with
    :class:`GateBuffers` that share scratch, ``t`` lives in ``scratch[1]``
    and the next :func:`batch_vjp` or :func:`batch_eval` on that scratch
    overwrites it.
    """

    x: np.ndarray
    z: np.ndarray            # a * (x - c), clipped to +-_Z_CAP
    theta: np.ndarray        # arctan(|z|)
    psmall: np.ndarray       # arctan2(1, |z|) = pi * min(u, 1 - u)
    log_odds: np.ndarray     # log(u / (1 - u))
    t: np.ndarray            # p * log_odds
    e: np.ndarray            # exp(-|t|)
    v: np.ndarray
    f: np.ndarray
    eff: tuple[float, float, float, float, float, float, float] | np.ndarray


class GateBuffers:
    """Caller-owned arrays that :func:`batch_eval` and :func:`batch_vjp` write into.

    Without buffers every call allocates its outputs, so a caller may keep
    any number of tapes alive.  A caller that holds one tape at a time can
    pass the same buffers to every call and allocate nothing per call: each
    ``batch_eval`` overwrites the previous tape and each ``batch_vjp`` the
    previous results.

    ``scratch``, when given, is four arrays of ``shape`` used in place of
    fresh ones; other buffers may share them, as the gate layers of one
    training step do, since each call uses scratch only while it runs.
    Such buffers keep ``t`` in ``scratch[1]`` (see the liveness note of
    :func:`batch_eval`), so a tape's ``t`` is overwritten by the next
    ``batch_vjp`` or ``batch_eval`` on that scratch, and nothing reads it
    after its own ``batch_eval``.
    """

    _ARRAYS = ("z", "theta", "psmall", "log_odds", "t", "e", "v", "f")
    __slots__ = ("shape", "scratch", *_ARRAYS)

    def __init__(self, shape: tuple[int, ...], scratch: Sequence[np.ndarray] | None = None):
        self.shape = tuple(shape)
        shared = scratch is not None
        if shared and (len(scratch) != 4 or any(s.shape != self.shape for s in scratch)):
            raise ValueError(f"scratch must be four arrays of shape {self.shape}")
        self.scratch = tuple(scratch) if shared else tuple(np.empty(self.shape) for _ in range(4))
        for name in self._ARRAYS:
            setattr(self, name, self.scratch[1] if shared and name == "t"
                    else np.empty(self.shape))

    @classmethod
    def value_only(cls, shape: tuple[int, ...]) -> "GateBuffers":
        """Four arrays shared among the slots: enough for ``f`` alone.

        A slot shares its array only with slots that :func:`batch_eval` first
        writes after that slot's last read (see the liveness note there), so
        ``f`` comes out exactly as with separate arrays and every other tape
        array is overwritten.  These buffers must not reach :func:`batch_vjp`:
        ``_partials`` unpacks four scratch arrays and these hold two.
        """
        buffers = object.__new__(cls)
        buffers.shape = tuple(shape)
        a, b, c, d = (np.empty(buffers.shape) for _ in range(4))
        buffers.z, buffers.t, buffers.f = a, a, a
        buffers.log_odds, buffers.scratch = b, (b, c)
        buffers.theta, buffers.v = c, c
        buffers.psmall, buffers.e = d, d
        return buffers

    def rows(self, k: int) -> "GateBuffers":
        """Views of the first ``k`` rows, for a ``(k, n)`` batch that has shrunk."""
        view = object.__new__(GateBuffers)
        view.shape = (k, *self.shape[1:])
        for name in self._ARRAYS:
            setattr(view, name, getattr(self, name)[:k])
        view.scratch = tuple(s[:k] for s in self.scratch)
        return view


def _clip(a: np.ndarray, lo: float, hi: float) -> None:
    # np.clip's elementwise rule, NaN included, without its per-call wrapper cost
    np.minimum(np.maximum(a, lo, out=a), hi, out=a)


def _columns(eff) -> tuple:
    """The seven parameters: floats, or ``(k, 1)`` columns of a ``(k, 7)`` matrix."""
    return tuple(eff.T[:, :, None]) if isinstance(eff, np.ndarray) else eff


def _operands(x, eff) -> tuple[np.ndarray, tuple | np.ndarray, tuple[int, ...]]:
    """``x`` as float64, ``eff`` as floats or a float64 ``(k, 7)`` matrix, and the tape shape."""
    x = np.asarray(x, dtype=np.float64)
    if isinstance(eff, np.ndarray) and eff.ndim == 2:
        if eff.shape[1] != 7 or x.ndim != 1:
            raise ValueError(f"a (k, 7) parameter matrix needs a 1-D grid, got "
                             f"{eff.shape} over {x.shape}")
        return x, eff.astype(np.float64), (eff.shape[0], x.size)
    return x, tuple(map(float, eff)), x.shape


def batch_eval(x: np.ndarray, eff, buffers: GateBuffers | None = None) -> GateTape:
    """Evaluate the gate elementwise over ``x`` for effective parameters ``eff``.

    ``eff`` is (a, c, p, alpha, beta, gamma, delta) with a, p already
    positive-mapped, or a ``(k, 7)`` array of such rows: each row is
    evaluated over the whole 1-D ``x``, giving ``(k, x.size)`` tape arrays.
    ``buffers`` of that shape receive the tape instead of fresh arrays.
    Returns the tape consumed by :func:`batch_vjp`.
    """
    x, eff, shape = _operands(x, eff)
    a, c, p, alpha, beta, gamma, delta = _columns(eff)
    if buffers is None:
        buffers = GateBuffers(shape)
    elif buffers.shape != shape:
        raise ValueError(f"buffers of shape {buffers.shape} cannot hold a {shape} tape")
    b = buffers
    # Liveness, which GateBuffers.value_only relies on.  Last reads, in order:
    # scratch[0] (|z|) at psmall; theta at log_odds = 2 theta; psmall at
    # log_odds /= psmall; z and scratch[1] at the sign step; log_odds at t;
    # e at side (scratch[0] again); t at v; side at v -= side; v at f *= v.
    # A slot may share an array only with slots first written after these
    # points; x is read to the end and shares with none.  So t may live in
    # scratch[1] (GateBuffers with shared scratch): it is first written
    # after the sign step's last read of scratch[1], its own last read is
    # the v step, and batch_vjp, which next writes scratch, never reads it.
    with np.errstate(over="ignore", under="ignore"):
        z = np.subtract(x, c, out=b.z)
        z *= a
        _clip(z, -_Z_CAP, _Z_CAP)
        az = np.abs(z, out=b.scratch[0])
        theta = np.arctan(az, out=b.theta)
        psmall = np.arctan2(1.0, az, out=b.psmall)
        # Branches are selected arithmetically, exactly: a sign factor for
        # log_odds and a distance of finite, non-negative terms for v.
        # np.where and masked ufuncs cost ten simple passes when signs are mixed.
        log_odds = np.multiply(2.0, theta, out=b.log_odds)
        log_odds /= psmall
        np.log1p(log_odds, out=log_odds)
        log_odds *= np.sign(z, out=b.scratch[1])              # odd in z; 0 at 0
        t = np.multiply(p, log_odds, out=b.t)
        e = np.abs(t, out=b.e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        side = np.arctan(e, out=b.scratch[0])
        side /= _HALF_PI
        # heaviside(t, 1) as a comparison; a NaN t steps to 0, but side keeps v NaN
        v = np.greater_equal(t, 0.0, out=b.v)
        v -= side
        np.abs(v, out=v)
        _clip(v, GATE_EPS, 1.0 - GATE_EPS)
        f = np.multiply(alpha, x, out=b.f)
        f += beta
        f *= v
        linear = np.multiply(gamma, x, out=b.scratch[0])
        linear += delta
        f += linear
    return GateTape(x=x, z=z, theta=theta, psmall=psmall,
                    log_odds=log_odds, t=t, e=e, v=v, f=f, eff=eff)


def batch_value(x: np.ndarray, eff) -> np.ndarray:
    """``batch_eval(x, eff).f`` bit for bit, from four arrays of its shape instead of twelve."""
    x, eff, shape = _operands(x, eff)
    return batch_eval(x, eff, GateBuffers.value_only(shape)).f


def _partials(tape: GateTape, scratch: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Elementwise partials of F w.r.t. (x, a, c, p), written into the four ``scratch`` arrays.

    The affine four are closed-form.
    """
    a, c, p, alpha, beta, gamma, _delta = _columns(tape.eff)
    s0, s1, s2, s3 = scratch
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


def batch_vjp(tape: GateTape, cotangent: np.ndarray,
              buffers: GateBuffers | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Backward through one gate application.

    Returns ``(d_x, d_eff)`` where ``d_x`` matches the shape of the tape and
    ``d_eff`` holds the cotangent-weighted sums ordered (a, c, p, alpha,
    beta, gamma, delta): one 7-vector summed over all elements, or for a
    ``(k, 7)`` tape a ``(k, 7)`` matrix summed along each row.
    Effective-parameter gradients; the positive-map chain factor is the
    caller's job.  ``buffers`` receive ``d_x`` and the temporaries instead
    of fresh arrays.
    """
    g = np.asarray(cotangent, dtype=np.float64)
    if buffers is None:
        scratch = tuple(np.empty(tape.f.shape) for _ in range(4))
    else:
        scratch = buffers.scratch
    rows = isinstance(tape.eff, np.ndarray)
    d_eff = np.empty(tape.eff.shape if rows else 7)
    axis = -1 if rows else None
    d_x, d_a, d_c, d_p = _partials(tape, scratch)
    for j, partial in ((0, d_a), (1, d_c), (2, d_p)):
        np.add.reduce(np.multiply(g, partial, out=partial), axis=axis, out=d_eff[..., j])
    gx = np.multiply(g, tape.x, out=d_a)
    np.add.reduce(gx, axis=axis, out=d_eff[..., 5])
    np.add.reduce(np.multiply(gx, tape.v, out=gx), axis=axis, out=d_eff[..., 3])
    np.add.reduce(np.multiply(g, tape.v, out=d_c), axis=axis, out=d_eff[..., 4])
    np.add.reduce(g, axis=axis, out=d_eff[..., 6])
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
    d_x, d_a, d_c, d_p = _partials(tape, tuple(np.empty(1) for _ in range(4)))
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

def gate_gradcheck(samples: int, seed: int) -> float:
    """Worst relative error of :func:`grad` against finite differences of F.

    Each of ``samples`` seeded draws picks effective parameters and an input
    and checks all eight partials against ``(4 D(h/2) - D(h)) / 3``, where
    ``D(s) = (F(v + s) - F(v - s)) / 2s`` and ``h = 1e-5 * max(1, |v|)``.
    The Richardson extrapolation cancels the h^2 truncation term, which on
    steep draws (large a, x near c) exceeds 1e-5 by itself.  Errors within
    the absolute floor 1e-8 are not counted.  Per draw, the four shifted
    inputs are one kernel call and the 28 shifted parameter rows another; a
    shifted a or p reaches F through its raw preimage, exactly as through
    ``ArcGateParams.from_effective``.  ``samples`` must be at least 1, since
    no draws would report a pass that checked nothing.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        a = rng.uniform(0.1, 50.0)
        p = rng.uniform(0.2, 5.0)
        c = rng.uniform(-3.0, 3.0)
        x = c + rng.uniform(-10.0, 10.0)
        alpha, beta, gamma, delta = rng.uniform(-2.0, 2.0, 4)
        params = ArcGateParams.from_effective(a, c, p, alpha, beta, gamma, delta)
        g = grad(x, params)
        vals = np.array([x, a, c, p, alpha, beta, gamma, delta])
        h = 1e-5 * np.maximum(1.0, np.abs(vals))
        half = h / 2
        shifted = np.stack([vals + half, vals - half, vals + h, vals - h], axis=1)
        eff = params.effective()
        rows = np.empty((7, 4, 7))       # 4 shifts of each parameter, the rest at eff
        rows[...] = eff
        for j, col in enumerate(shifted[1:]):
            if j in (0, 2):
                col = [positive_map(raw_from_effective(v)) for v in col]
            rows[j, :, j] = col
        f = np.concatenate([batch_value(shifted[0], eff),
                            batch_value(np.array([x]), rows.reshape(28, 7)).ravel()])
        f = f.reshape(8, 4)
        fd = (4.0 * ((f[:, 0] - f[:, 1]) / (2 * half))
              - (f[:, 2] - f[:, 3]) / (2 * h)) / 3.0
        partials = (g.d_x, g.d_a, g.d_c, g.d_p, g.d_alpha, g.d_beta, g.d_gamma, g.d_delta)
        for est, ana in zip(fd.tolist(), partials):
            err = abs(est - ana)
            if err > 1e-8:
                worst = max(worst, err / max(abs(ana), 1e-300))
    return worst


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

#: Default starting shape for training: a soft rectifier (gating mode with a
#: moderate transition) whose output is x * v(x).
SOFT_RELU_INIT = (5.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0)

PRESET_KINDS = ("soft_relu_init", "identity", "relu_like", "sigmoid_like",
                "tanh_like", "leaky")


def preset(kind: str, arg: float | None = None) -> ArcGateParams:
    """Named parameter vectors for the classical special cases.

    ``relu_like`` takes a scale >= 1 (larger is closer to a hard rectifier);
    ``leaky`` takes a negative-side slope in (0, 1).  The other kinds take no
    argument.
    """
    if kind == "soft_relu_init":
        _reject_arg(kind, arg)
        return ArcGateParams.from_effective(*SOFT_RELU_INIT)
    if kind == "identity":
        _reject_arg(kind, arg)
        return ArcGateParams.from_effective(5.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0)
    if kind == "relu_like":
        scale = _require_arg(kind, arg)
        if scale < 1.0:
            raise ValueError(f"relu_like scale must be >= 1, got {scale!r}")
        return ArcGateParams.from_effective(scale, 0.0, scale, 1.0, 0.0, 0.0, 0.0)
    if kind == "sigmoid_like":
        _reject_arg(kind, arg)
        # a = 2 minimizes the sup-distance to the logistic sigmoid on [-6, 6]
        # among small integer steepness values
        return ArcGateParams.from_effective(2.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0)
    if kind == "tanh_like":
        _reject_arg(kind, arg)
        return ArcGateParams.from_effective(2.0, 0.0, 1.0, 0.0, 2.0, 0.0, -1.0)
    if kind == "leaky":
        slope = _require_arg(kind, arg)
        if not 0.0 < slope < 1.0:
            raise ValueError(f"leaky slope must be in (0, 1), got {slope!r}")
        return ArcGateParams.from_effective(1e4, 0.0, 1e4, 1.0, 0.0, slope, 0.0)
    raise ValueError(f"unknown preset kind {kind!r}; expected one of {PRESET_KINDS}")


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


def _require_arg(kind: str, arg: float | None) -> float:
    if arg is None:
        raise ValueError(f"preset {kind!r} requires a numeric argument")
    value = float(arg)
    if not math.isfinite(value):
        raise ValueError(f"preset {kind!r} argument must be finite, got {arg!r}")
    return value


def _reject_arg(kind: str, arg: float | None) -> None:
    if arg is not None:
        raise ValueError(f"preset {kind!r} takes no argument")
