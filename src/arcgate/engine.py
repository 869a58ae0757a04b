"""Deterministic feed-forward engine: dense, gate and fixed layers, AdamW, training.

Everything is float64 numpy.  Given the same seed, initialization, batch
order, and every update are reproducible bit-for-bit, which the experiment
runners rely on for byte-identical reports.

A model keeps all trainable values in one :class:`Arena`: dense weights
first (the only values weight decay touches), then biases and learnable gate
vectors, with each layer's arrays as views into it.  ``backward`` writes a
gradient vector with the same layout, and ``adamw_step`` updates the arena in
chunks that stay in cache.  Each training step allocates its own
activations and gate tapes and drops them before the next step's forward
pass; only the gradient vector is kept for a whole epoch.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import core, idx, zoo
from .core import ArcGateParams, GateTape
from .zoo import ActivationKind

__all__ = [
    "GRANULARITIES", "INIT_STRATEGIES",
    "Arena", "DenseLayer", "FixedActivation", "GateLayer", "MLPModel",
    "ModelSpec", "ModelFormatError", "NonFiniteGradientError", "Slot",
    "TrainingDivergedError",
    "TraceRow", "TrainConfig",
    "adamw_step", "backward", "build_model", "evaluate", "forward",
    "load_model", "net_gradcheck", "predict", "save_model", "softmax_cross_entropy",
    "train",
]

GRANULARITIES = ("fixed", "global_shared", "layer_wise")
# init strategy -> (the gates' starting preset, or None for a seeded random
# draw per gate; the fixed activation that takes every gate's place, or None)
_INITS = {
    "soft_relu": ("soft_relu_init", None),
    "identity": ("identity", None),
    "random": (None, None),
    "relu_baseline": (None, ActivationKind("relu")),
}
INIT_STRATEGIES = tuple(_INITS)

_BASELINE_CODES = {None: 0, "relu": 1, "leaky_relu": 2, "sigmoid": 3,
                   "tanh": 4, "silu": 5, "gelu": 6, "identity": 7}
_BASELINE_TAGS = {v: k for k, v in _BASELINE_CODES.items()}
# The gate vector in an AGM1 fixed-activation record, which never reads it
_FIXED_RAW = core.preset("soft_relu_init").raw_vector().astype("<f8").tobytes()


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, step: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}, step {step}: loss={loss!r}")
        self.epoch = epoch
        self.step = step


class NonFiniteGradientError(RuntimeError):
    """An optimizer step received NaN/Inf gradients."""


class ModelFormatError(ValueError):
    """Model file is not a valid AGM1 container."""


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def _check_field(name: str, value, read=operator.index, kind: str = "an integer") -> None:
    """Refuse ``value`` unless ``read`` takes it; a field keeps it as given."""
    try:
        read(value)
    except TypeError:
        raise ValueError(f"{name} must be {kind}, got {value!r}") from None


@dataclass
class ModelSpec:
    """Architecture description: dense widths with a gate after each hidden layer."""

    in_dim: int = 784
    hidden: tuple[int, ...] = (256, 128, 64)
    n_classes: int = 10

    def __post_init__(self):
        for name in ("in_dim", "n_classes"):
            _check_field(name, getattr(self, name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        _check_field("hidden", self.hidden, iter, "a sequence of widths")
        for width in self.hidden:
            _check_field("each hidden width", width)
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 64
    learning_rate: float = 1e-4
    weight_decay: float = 1e-2
    seed: int = 0
    init_strategy: str = "soft_relu"
    granularity: str = "layer_wise"

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed"):
            _check_field(name, getattr(self, name))
        for name in ("learning_rate", "weight_decay"):
            _check_field(name, getattr(self, name), math.isfinite, "a real number")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be finite and >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.init_strategy not in INIT_STRATEGIES:
            raise ValueError(f"init_strategy must be one of {INIT_STRATEGIES}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")


# Rows of ``w`` per partial product in :meth:`DenseLayer.forward`.  OpenBLAS
# sums a long inner dimension in pieces whose bounds depend on its thread
# count, so the whole 784-row first-layer product gave other bits at 1 and 2
# threads.  Blocks of 384 and 256 gave the same bits at both for every row
# count from 1 to 1000; 392 did not, though 448 and 512 did, so no block
# above 384 is relied on (numpy 2.4.6, OpenBLAS 0.3.31; README).
_DENSE_BLOCK = 384


class DenseLayer:
    """``x @ w + b``; ``w`` is the only value that weight decay touches."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ValueError(f"inconsistent dense shapes {self.w.shape} / {self.b.shape}")

    def forward(self, x: np.ndarray):
        """``x @ w + b``, summed over blocks of ``_DENSE_BLOCK`` rows of ``w`` in
        order so its bits do not depend on BLAS threads; and ``x``."""
        w = self.w
        y = x[:, :_DENSE_BLOCK] @ w[:_DENSE_BLOCK]
        for k in range(_DENSE_BLOCK, w.shape[0], _DENSE_BLOCK):
            y += x[:, k:k + _DENSE_BLOCK] @ w[k:k + _DENSE_BLOCK]
        y += self.b
        return y, x

    def backward(self, x: np.ndarray, g: np.ndarray, grads: list,
                 d_input: bool = True) -> np.ndarray | None:
        """Writes ``w``'s and ``b``'s gradients; returns the input gradient if ``d_input``."""
        np.matmul(x.T, g, out=grads[0])
        np.add.reduce(g, axis=0, out=grads[1])
        return g @ self.w.T if d_input else None


class GateLayer:
    """Elementwise ArcGate over ``raw``: (a_raw, c, p_raw, alpha, beta, gamma, delta).

    In global_shared mode :class:`MLPModel` ties every such layer to one
    vector; in fixed mode the values never move.
    """

    def __init__(self, raw: np.ndarray, granularity: str = "layer_wise"):
        if granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        self.raw = np.asarray(raw, dtype=np.float64)
        if self.raw.shape != (7,):
            raise ValueError("gate layer needs a 7-vector of raw parameters")
        self.granularity = granularity

    def effective_params(self) -> tuple[float, ...]:
        return ArcGateParams.from_raw_vector(self.raw).effective()

    def forward(self, x: np.ndarray):
        tape = core.batch_eval(x, self.effective_params())
        return tape.f, tape

    def backward(self, tape: GateTape, g: np.ndarray, grads: list,
                 d_input: bool = True) -> np.ndarray:
        """Adds a learned raw vector's gradient (positive-map chain applied) into ``grads``."""
        if not isinstance(tape, GateTape):
            raise ValueError("cache does not match model (stale or from another model)")
        g, d_eff = core.batch_vjp(tape, g)
        if grads:                      # a learned vector; fixed granularity has none
            d_eff[0] *= core.positive_map_grad(self.raw[0])
            d_eff[2] *= core.positive_map_grad(self.raw[2])
            grads[0] += d_eff
        return g


@dataclass(frozen=True)
class FixedActivation:
    """A fixed :mod:`zoo` activation in a gate's place: no parameters."""

    kind: ActivationKind

    def forward(self, x: np.ndarray):
        return zoo.act_batch(self.kind, x), x

    def backward(self, x: np.ndarray, g: np.ndarray, grads: list,
                 d_input: bool = True) -> np.ndarray:
        return g * zoo.act_grad_batch(self.kind, x)


Layer = DenseLayer | GateLayer | FixedActivation


class MLPModel:
    """Dense layers with a gate layer or a fixed activation between them.

    The structure is checked when the model is built: at least one dense
    layer, chained widths, every gate or fixed activation directly after a
    dense layer, and a dense final layer.  All trainable values live in one
    :class:`Arena`; each layer's ``w``, ``b`` and learnable ``raw`` are
    views into it.  Every ``global_shared`` gate layer is tied to the first
    one's region, and a vector that differs from the first one is rejected.
    Each layer type has the same two steps: ``forward`` (its output and what
    its ``backward`` needs, for training and inference alike) and ``backward``.
    """

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)
        self._check_structure()
        slots: list[Slot] = []
        self._slot_of: list[tuple[int, ...]] = [()] * len(self.layers)   # layer -> slot indices
        shared: int | None = None        # the slot of the first global_shared gate
        for i, layer in enumerate(self.layers):
            if isinstance(layer, DenseLayer):
                self._slot_of[i] = (len(slots), len(slots) + 1)
                slots.append(Slot(layer.w, True, f"dense{i}.w"))
                slots.append(Slot(layer.b, False, f"dense{i}.b"))
            elif isinstance(layer, GateLayer) and layer.granularity != "fixed":
                k = len(slots)
                if layer.granularity == "global_shared":
                    k = shared = k if shared is None else shared
                if k == len(slots):
                    slots.append(Slot(layer.raw, False, f"act{i}.raw"))
                elif layer.raw.tobytes() != slots[k].array.tobytes():
                    raise ValueError(f"layer {i} stores a global_shared gate vector "
                                     f"that differs from the first one")
                self._slot_of[i] = (k,)
        self.arena = Arena(slots)
        views = [s.array for s in self.arena.slots]
        for layer, ks in zip(self.layers, self._slot_of):
            if isinstance(layer, DenseLayer):
                layer.w, layer.b = (views[k] for k in ks)
            elif ks:
                layer.raw, = (views[k] for k in ks)

    def _check_structure(self):
        if not any(isinstance(l, DenseLayer) for l in self.layers):
            raise ValueError("model has no dense layer")
        if not isinstance(self.layers[-1], DenseLayer):
            raise ValueError("the final layer must be dense")
        width = None
        for i, layer in enumerate(self.layers):
            if isinstance(layer, DenseLayer):
                if width is not None and layer.w.shape[0] != width:
                    raise ValueError(f"dense input width {layer.w.shape[0]} does not "
                                     f"match previous output width {width}")
                width = layer.w.shape[1]
            elif i == 0 or not isinstance(self.layers[i - 1], DenseLayer):
                what = "gate" if isinstance(layer, GateLayer) else "fixed activation"
                raise ValueError(f"{what} layer {i} does not follow a dense layer")

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def n_classes(self) -> int:
        return self.layers[-1].w.shape[1]

    def activation_layers(self) -> list[GateLayer]:
        """The gate layers, by depth; a fixed activation is not one."""
        return [l for l in self.layers if isinstance(l, GateLayer)]

    def learnable_activation_parameter_count(self) -> int:
        """Gate parameters that receive gradients: 7 per gate slot of the arena."""
        gate_slots = {k for layer, ks in zip(self.layers, self._slot_of)
                      if isinstance(layer, GateLayer) for k in ks}
        return sum(self.arena.slots[k].array.size for k in gate_slots)


@dataclass
class Slot:
    array: np.ndarray
    decay: bool
    label: str


class Arena:
    """Trainable values in one contiguous float64 vector; each slot is a view into it.

    Slots flagged for decay are laid out first, so decoupled weight decay
    acts on the prefix ``values[:n_decay]``.  ``slots`` keeps the order it
    was given (the order gradients are reported in); building the arena
    copies each given array into its region.
    """

    def __init__(self, slots: Sequence[Slot]):
        layout = [s for s in slots if s.decay] + [s for s in slots if not s.decay]
        offsets, size = {}, 0
        for s in layout:
            offsets[id(s)] = size
            size += s.array.size
        self.n_decay = sum(s.array.size for s in slots if s.decay)
        self._regions = [(offsets[id(s)], s.array.shape) for s in slots]
        self.values = np.empty(size)
        self.slots = [Slot(view, s.decay, s.label)
                      for s, view in zip(slots, self.views(self.values))]
        for old, new in zip(slots, self.slots):
            new.array[...] = old.array

    @property
    def size(self) -> int:
        return self.values.size

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Arrays shaped like the slots over ``flat``, a vector with this arena's layout."""
        return [flat[start:start + math.prod(shape)].reshape(shape)
                for start, shape in self._regions]


def build_model(spec: ModelSpec, config: TrainConfig,
                rng: np.random.Generator) -> MLPModel:
    """Seeded Kaiming-uniform dense stack, a gate or fixed activation after each hidden layer."""
    widths = [spec.in_dim, *spec.hidden, spec.n_classes]
    start, fixed = _INITS[config.init_strategy]

    def gate_raw() -> np.ndarray:
        return core.random_raw(rng) if start is None else core.preset(start).raw_vector()

    shared = gate_raw() if config.granularity == "global_shared" and fixed is None else None

    layers: list[Layer] = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        bound = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append(DenseLayer(w, np.zeros(fan_out)))
        if i < len(widths) - 2:
            layers.append(FixedActivation(fixed) if fixed is not None else
                          GateLayer(gate_raw() if shared is None else shared, config.granularity))
    return MLPModel(layers)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _split(x):
    """A whole split to read rows from, never converted as a whole when it is bytes.

    :class:`idx.PixelRows` stays as it is, and so do the batches and blocks
    selected from it, until :func:`_input_batch` scales them; anything else
    becomes one float64 array, and a uint8 array keeps its values 0-255.
    """
    return x if isinstance(x, idx.PixelRows) else np.asarray(x, dtype=np.float64)


def _check_width(model: MLPModel | ModelSpec, x, what: str = "batch"):
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError(f"{what} shape {x.shape} does not match input width {model.in_dim}")
    return x


def _labelled_split(model: MLPModel | ModelSpec, x, y, what: str = ""):
    """``x`` and ``y`` as :func:`evaluate` reads them, once they pass its split rule.

    A refusal is a ``ValueError`` that names the split by ``what``: "training ", "test " or "".
    """
    x, y = _check_width(model, _split(x), f"{what}input"), np.asarray(y)
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"{what}labels must have an integer dtype, got {y.dtype}")
    y = y.astype(np.int64, copy=False)
    if x.shape[0] == 0:
        raise ValueError(f"empty {what + 'set' if what else 'split'}: x has shape {x.shape}, "
                         f"y has shape {y.shape}")
    if y.shape != x.shape[:1]:
        raise ValueError(f"{what}labels of shape {y.shape} do not match inputs of shape "
                         f"{x.shape}: expected one label per row, shape {x.shape[:1]}")
    bad = np.flatnonzero((y < 0) | (y >= model.n_classes))
    if bad.size:
        raise ValueError(f"{what}label {y[bad[0]]} at row {bad[0]} is outside "
                         f"[0, {model.n_classes}) for {model.n_classes} classes")
    return x, y


def _input_batch(model: MLPModel, batch: np.ndarray) -> np.ndarray:
    """The float64 rows a model reads: where :class:`idx.PixelRows` become floats."""
    return _check_width(model, np.asarray(batch, dtype=np.float64))


def forward(model: MLPModel, batch: np.ndarray) -> tuple[np.ndarray, list]:
    """Logits plus the per-layer cache consumed by :func:`backward`."""
    x = _input_batch(model, batch)
    cache: list = []
    for layer in model.layers:
        x, saved = layer.forward(x)
        cache.append(saved)
    return x, cache


def backward(model: MLPModel, cache: list, grad_logits: np.ndarray,
             out: np.ndarray | None = None) -> list[np.ndarray]:
    """Gradients aligned with ``model.arena.slots``: views into one gradient arena.

    Gate-parameter gradients are w.r.t. the raw vectors (positive-map chain
    applied); a shared vector sums every layer's contribution, the last
    layer's first.  The gradient w.r.t. the input batch is never formed.
    The arena is ``out``, a vector laid out like ``model.arena``, when it
    is given, else a fresh one.
    """
    if len(cache) != len(model.layers):
        raise ValueError("cache does not match model (stale or from another model)")
    g = np.asarray(grad_logits, dtype=np.float64)
    flat = np.empty(model.arena.size) if out is None else out
    grads = model.arena.views(flat)
    flat[model.arena.n_decay:] = 0.0      # gate layers add into it; dense layers write
    for i in range(len(model.layers) - 1, -1, -1):
        g = model.layers[i].backward(cache[i], g, [grads[k] for k in model._slot_of[i]], i > 0)
    return grads


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    denom = expz.sum(axis=1, keepdims=True)
    logp = z - np.log(denom)
    n = logits.shape[0]
    loss = -float(logp[np.arange(n), labels].mean())
    grad = expz / denom
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

# Elements per AdamW pass: five 256 KiB vectors (parameters, gradient, both
# moments, the step's scratch) stay in a core's L2 cache between the passes.
_ADAM_CHUNK = 1 << 15
# AdamW's published defaults (Loshchilov & Hutter, arXiv:1711.05101)
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def adamw_step(arena: Arena, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
               lr: float, weight_decay: float, step: int) -> None:
    """One decoupled-decay Adam update of the whole arena, in place.

    ``grad`` and AdamW's moments ``m`` and ``v`` are vectors with the
    arena's layout; the moments are updated in place.  Decay multiplies the
    parameter directly (never routed through the moments) and only touches
    slots flagged for decay: dense weights; biases and gate raw parameters
    are exempt.  Nothing is updated if any gradient is NaN/Inf.

    The moments are rescaled, ``m = m_t / (1 - b1)`` and ``v = v_t / (1 - b2)``,
    so each step adds the gradient and its square to them unscaled (a new
    training starts both at zero), and the published step
    ``lr * (m_t / bc1) / (sqrt(v_t / bc2) + eps)`` is
    ``lr * (1 - b1) * r / bc1 * m / (sqrt(v) + eps * r)`` with
    ``r = sqrt(bc2 / (1 - b2))``: the same in real arithmetic, in 11 passes
    over a chunk with one divide and one square root, in a scratch chunk of its own.
    """
    if step < 1:
        raise ValueError("step count starts at 1")
    # Any NaN/Inf makes the sum non-finite; an overflowing finite sum falls
    # through to the exact per-slot test, which then finds nothing.
    with np.errstate(over="ignore"):
        total = np.add.reduce(grad)
    if not math.isfinite(total):
        for slot, g in zip(arena.slots, arena.views(grad)):
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(
                    f"non-finite gradient for {slot.label} at step {step}: "
                    f"max|g|={float(np.max(np.abs(g)))!r}")
    bc1 = 1.0 - _BETA1 ** step
    bc2 = 1.0 - _BETA2 ** step
    r = math.sqrt(bc2 / (1.0 - _BETA2))
    eps = _ADAM_EPS * r
    step_size = lr * (1.0 - _BETA1) * r / bc1
    keep = 1.0 - lr * weight_decay
    n_decay = arena.n_decay
    scratch = np.empty(min(_ADAM_CHUNK, arena.size))
    for lo, hi, decay in ((0, n_decay, weight_decay > 0.0), (n_decay, arena.size, False)):
        for start in range(lo, hi, _ADAM_CHUNK):
            stop = min(start + _ADAM_CHUNK, hi)
            g = grad[start:stop]
            mc = m[start:stop]
            vc = v[start:stop]
            p = arena.values[start:stop]
            s = scratch[:stop - start]
            mc *= _BETA1
            mc += g
            np.square(g, out=s)
            vc *= _BETA2
            vc += s
            if decay:
                p *= keep
            np.sqrt(vc, out=s)
            s += eps
            np.divide(mc, s, out=s)
            s *= step_size
            p -= s


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceRow:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float


def train(model_spec: ModelSpec, dataset, config: TrainConfig) -> tuple[MLPModel, list[TraceRow]]:
    """Train on ``dataset`` (x_train, y_train, x_test, y_test); fully seeded.

    Both splits pass :func:`evaluate`'s split rule before the model is built.
    """
    x_train, y_train = _labelled_split(model_spec, dataset[0], dataset[1], "training ")
    x_test, y_test = _labelled_split(model_spec, dataset[2], dataset[3], "test ")

    init_ss, shuffle_ss = np.random.SeedSequence(config.seed).spawn(2)
    model = build_model(model_spec, config, np.random.default_rng(init_ss))
    shuffle_rng = np.random.default_rng(shuffle_ss)

    m, v = np.zeros(model.arena.size), np.zeros(model.arena.size)
    n = x_train.shape[0]
    step = 0
    trace: list[TraceRow] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum, correct, step = _epoch_steps(model, m, v, x_train, y_train, order,
                                               config, epoch, step)
        test_acc = evaluate(model, (x_test, y_test), 0.0, 0)
        trace.append(TraceRow(epoch, loss_sum / n, correct / n, test_acc))
    return model, trace


def _epoch_steps(model: MLPModel, m: np.ndarray, v: np.ndarray, x_train,
                 y_train: np.ndarray, order: np.ndarray, config: TrainConfig,
                 epoch: int, step: int) -> tuple[float, int, int]:
    """One epoch's steps over the rows in ``order``: loss sum, correct count, last step.

    One gradient vector serves every step and is gone before the epoch's
    evaluation.  A step's logits and cache are dropped before the next
    step's forward pass, so two steps' activations are never held at once.
    """
    grad = np.empty(model.arena.size)
    loss_sum = 0.0
    correct = 0
    for start in range(0, order.size, config.batch_size):
        rows = order[start:start + config.batch_size]
        xb, yb = x_train[rows], y_train[rows]
        logits, cache = forward(model, xb)
        loss, grad_logits = softmax_cross_entropy(logits, yb)
        if not math.isfinite(loss):
            raise TrainingDivergedError(epoch, step + 1, loss)
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        backward(model, cache, grad_logits, grad)
        del logits, cache
        step += 1
        adamw_step(model.arena, grad, m, v, config.learning_rate,
                   config.weight_decay, step)
        loss_sum += loss * len(rows)
    return loss_sum, correct, step


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

# Rows per inference block.  A multiple of the BLAS micro-tile heights, so
# a block's rows sit where they would in a whole-batch product (README
# lists where the bits still differ).  On the desk net a block's arrays peak
# at 2.3 MiB (a gate's input, tape and kernel work array), 3.1 MiB under noise.
_INFER_ROWS = 128


def _logits(model: MLPModel, batch: np.ndarray) -> np.ndarray:
    """The logits of :func:`forward`, bit for bit, without its cache.

    Each layer's ``forward`` runs in turn and only its output is kept, so a
    gate's tape is dropped as soon as its output exists.  Overflow and
    invalid operations give their IEEE results without a warning, as in the
    gate kernel: a model that :func:`load_model` accepts may hold any finite
    weights.
    """
    x = _input_batch(model, batch)
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in model.layers:
            x = layer.forward(x)[0]
    return x


def _row_blocks(n: int):
    """Slices of ``n`` rows in order, ``_INFER_ROWS`` at a time."""
    return (slice(start, start + _INFER_ROWS) for start in range(0, n, _INFER_ROWS))


def _noisy_labels(model: MLPModel, x, noise_sigma: float, seed: int) -> np.ndarray:
    """Class index of each row of a width-checked split ``x`` under Gaussian input noise.

    Rows go through in blocks of ``_INFER_ROWS``; of ``x``'s full length only
    the labels are made.  One generator ``default_rng(seed)`` draws each
    block's ``normal(0, noise_sigma, block.shape)`` in row order: the stream
    of the whole ``x``, so two models given one seed see the same noisy rows.
    """
    rng = np.random.default_rng(seed) if noise_sigma > 0 else None
    labels = np.empty(x.shape[0], dtype=np.intp)
    for rows in _row_blocks(x.shape[0]):
        block = x[rows]
        if rng is not None:
            noisy = rng.normal(0.0, noise_sigma, size=block.shape)
            noisy += np.asarray(block, dtype=np.float64)   # block + noise: IEEE addition commutes
            block = noisy
        np.argmax(_logits(model, block), axis=1, out=labels[rows])
    return labels


def predict(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Class index of each row: the argmax of the logits, ``_INFER_ROWS`` rows at a time."""
    return _noisy_labels(model, _check_width(model, _split(x)), 0.0, 0)


def evaluate(model: MLPModel, dataset, noise_sigma: float = 0.0, seed: int = 0) -> float:
    """Accuracy on (x, y), optionally under additive Gaussian input noise.

    The split rule, checked before any model runs: ``x`` is ``model.in_dim``
    wide and has rows, ``y`` has an integer dtype and one label per row, and
    each label lies in ``[0, n_classes)``.  Noise is added to the already
    [0,1]-scaled inputs and not re-clamped: ``x + default_rng(seed).normal(0,
    noise_sigma, x.shape)``, drawn per row block.  ``noise_sigma=0`` touches
    no generator, so clean evaluation is identical regardless of seed.
    """
    x, y = _labelled_split(model, dataset[0], dataset[1])
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    return int(np.count_nonzero(_noisy_labels(model, x, noise_sigma, seed) == y)) / len(y)


def net_gradcheck(seed: int) -> float:
    """Worst relative error of :func:`backward` against central differences of the loss.

    A seeded 4-8-6-3 network with gates after both hidden layers; every
    trainable value is perturbed by ``1e-6 * max(1, |value|)`` in turn.
    Errors within the absolute floor 1e-9 are not counted.
    """
    spec = ModelSpec(in_dim=4, hidden=(8, 6), n_classes=3)
    config = TrainConfig(seed=seed)
    model = build_model(spec, config, np.random.default_rng(np.random.SeedSequence(seed)))
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(0.0, 1.0, (12, 4))
    y = rng.integers(0, 3, 12)
    logits, cache = forward(model, x)
    _, grad_logits = softmax_cross_entropy(logits, y)
    grads = backward(model, cache, grad_logits)

    def loss_now() -> float:
        return softmax_cross_entropy(_logits(model, x), y)[0]

    estimates = []
    for slot in model.arena.slots:
        flat = slot.array.ravel()
        for k in range(flat.size):
            h = 1e-6 * max(1.0, abs(flat[k]))
            keep = flat[k]
            flat[k] = keep + h
            up = loss_now()
            flat[k] = keep - h
            down = loss_now()
            flat[k] = keep
            estimates.append((up - down) / (2 * h))
    return core._worst_error(estimates, np.concatenate([g.ravel() for g in grads]), 1e-9)


# ---------------------------------------------------------------------------
# persistence (AGM1)
# ---------------------------------------------------------------------------

_MAGIC = b"AGM1"
_GRAN_CODES = {g: i for i, g in enumerate(GRANULARITIES)}
# the slope stored for every fixed kind but leaky ReLU, which stores its own
_FIXED_SLOPE = ActivationKind("relu").slope
# the fields of an activation record that load_model names, in the order it checks them
_RECORD_FIELDS = (("granularity", slice(1, 2)), ("gate vector", slice(11, 67)),
                  ("slope", slice(3, 11)))


def _activation_record(layer: GateLayer | FixedActivation) -> bytes:
    """The 67-byte AGM1 record of a gate or a fixed activation, the one form
    :func:`load_model` accepts: tag 1, granularity and baseline codes, slope, gate vector."""
    if isinstance(layer, GateLayer):
        return struct.pack("<BBBd", 1, _GRAN_CODES[layer.granularity], 0, 0.0) \
            + layer.raw.astype("<f8").tobytes()
    kind = layer.kind
    return struct.pack("<BBBd", 1, _GRAN_CODES["fixed"], _BASELINE_CODES[kind.tag],
                       kind.slope if kind.tag == "leaky_relu" else _FIXED_SLOPE) + _FIXED_RAW


def save_model(model: MLPModel, path) -> None:
    """Write the versioned binary container (magic ``AGM1``)."""
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<I", len(model.layers))
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            blob += struct.pack("<B", 0)
            blob += struct.pack("<II", *layer.w.shape)
            blob += layer.w.astype("<f8").tobytes()
            blob += layer.b.astype("<f8").tobytes()
        else:
            blob += _activation_record(layer)
    Path(path).write_bytes(bytes(blob))


def load_model(path) -> MLPModel:
    """Read an ``AGM1`` container.

    Raises :class:`ModelFormatError` for a malformed container, non-finite
    weights or gate values, a bad leaky slope, a gate or fixed activation
    stored other than as :func:`save_model` writes it, global-shared layers
    whose stored vectors differ, or a layer structure :class:`MLPModel`
    rejects.
    """
    data = Path(path).read_bytes()
    view = memoryview(data)
    if bytes(view[:4]) != _MAGIC:
        raise ModelFormatError(f"{path}: bad magic {bytes(view[:4])!r}, expected {_MAGIC!r}")
    off = 4

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(data):
            raise ModelFormatError(f"{path}: truncated at offset {off}")
        chunk = view[off:off + n]
        off += n
        return chunk

    (n_layers,) = struct.unpack("<I", take(4))
    layers: list[Layer] = []
    for k in range(n_layers):
        (tag,) = struct.unpack("<B", take(1))
        if tag == 0:
            rows, cols = struct.unpack("<II", take(8))
            # views of the file's bytes: MLPModel copies them into its arena
            w = np.frombuffer(take(rows * cols * 8), dtype="<f8").reshape(rows, cols)
            b = np.frombuffer(take(cols * 8), dtype="<f8")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ModelFormatError(f"{path}: layer {k} has non-finite dense weights")
            layers.append(DenseLayer(w, b))
        elif tag == 1:
            record = b"\x01" + bytes(take(66))
            gran_code, base_code, slope = struct.unpack_from("<BBd", record, 1)
            raw = np.frombuffer(record, dtype="<f8", offset=11).copy()
            if gran_code >= len(GRANULARITIES):
                raise ModelFormatError(f"{path}: unknown granularity code {gran_code}")
            if base_code not in _BASELINE_TAGS:
                raise ModelFormatError(f"{path}: unknown baseline code {base_code}")
            if not np.isfinite(raw).all():
                raise ModelFormatError(f"{path}: layer {k} has non-finite gate values")
            base_tag = _BASELINE_TAGS[base_code]
            try:
                layer = GateLayer(raw, GRANULARITIES[gran_code]) if base_tag is None \
                    else FixedActivation(ActivationKind(base_tag, slope))
            except ValueError as exc:
                raise ModelFormatError(f"{path}: layer {k}: {exc}") from exc
            written = _activation_record(layer)
            if written != record:
                what = "a gate" if base_tag is None else f"a fixed {base_tag} activation"
                field = next(name for name, at in _RECORD_FIELDS if written[at] != record[at])
                raise ModelFormatError(f"{path}: layer {k} stores {what} whose {field} "
                                       f"is not the one save_model writes")
            layers.append(layer)
        else:
            raise ModelFormatError(f"{path}: unknown layer tag {tag}")
    if off != len(data):
        raise ModelFormatError(f"{path}: {len(data) - off} trailing bytes")
    try:
        return MLPModel(layers)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
