"""Deterministic feed-forward engine: dense + adaptive-gate layers, AdamW, training.

Everything is float64 numpy.  Given the same seed, initialization, batch
order, and every update are reproducible bit-for-bit, which the experiment
runners rely on for byte-identical reports.

A model keeps all trainable values in one :class:`Arena`: dense weights
first (the only values weight decay touches), then biases and learnable gate
vectors, with each layer's arrays as views into it.  ``backward`` writes a
gradient vector with the same layout, and ``adamw_step`` updates the arena in
chunks that stay in cache.  ``train`` allocates one set of
:class:`StepBuffers` per epoch, reuses it on every step of that epoch, and
drops it before the epoch's test evaluation.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import core, idx, zoo
from .core import ArcGateParams, GateTape
from .zoo import ActivationKind

__all__ = [
    "GRANULARITIES", "INIT_STRATEGIES",
    "AdamState", "ActivationLayer", "Arena", "DenseLayer", "MLPModel", "ModelSpec",
    "ModelFormatError", "NonFiniteGradientError", "Slot", "StepBuffers",
    "TrainingDivergedError",
    "TraceRow", "TrainConfig",
    "adamw_step", "add_noise", "backward", "build_model", "evaluate", "forward",
    "load_model", "net_gradcheck", "predict", "save_model", "softmax_cross_entropy",
    "train",
]

GRANULARITIES = ("fixed", "global_shared", "layer_wise")
# init strategy -> (the gates' starting preset, or None for a seeded random
# draw per gate; the fixed activation that replaces every gate, or None)
_INITS = {
    "soft_relu": ("soft_relu_init", None),
    "identity": ("identity", None),
    "random": (None, None),
    "relu_baseline": ("soft_relu_init", ActivationKind("relu")),
}
INIT_STRATEGIES = tuple(_INITS)

_BASELINE_CODES = {None: 0, "relu": 1, "leaky_relu": 2, "sigmoid": 3,
                   "tanh": 4, "silu": 5, "gelu": 6, "identity": 7}
_BASELINE_TAGS = {v: k for k, v in _BASELINE_CODES.items()}


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

@dataclass
class ModelSpec:
    """Architecture description: dense widths with a gate after each hidden layer."""

    in_dim: int = 784
    hidden: tuple[int, ...] = (256, 128, 64)
    n_classes: int = 10


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


class DenseLayer:
    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ValueError(f"inconsistent dense shapes {self.w.shape} / {self.b.shape}")


class ActivationLayer:
    """Elementwise gate layer.

    ``raw`` holds (a_raw, c, p_raw, alpha, beta, gamma, delta).  In
    global_shared mode every layer aliases one array; in fixed mode the values
    never move.  ``baseline`` bypasses the gate entirely.
    """

    def __init__(self, raw: np.ndarray, granularity: str = "layer_wise",
                 baseline: ActivationKind | None = None):
        if granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        self.raw = np.asarray(raw, dtype=np.float64)
        if self.raw.shape != (7,):
            raise ValueError("activation layer needs a 7-vector of raw parameters")
        self.granularity = granularity
        self.baseline = baseline

    @property
    def params(self) -> ArcGateParams:
        return ArcGateParams.from_raw_vector(self.raw)

    def effective_params(self) -> tuple[float, ...]:
        return self.params.effective()


class MLPModel:
    """Dense layers with optional gate layers between them.

    The structure is checked when the model is built: at least one dense
    layer, chained widths, every gate directly after a dense layer, and a
    dense final layer.  All trainable values live in one :class:`Arena`;
    each layer's ``w``, ``b`` and learnable ``raw`` are views into it, and
    layers that shared one raw vector share one region.
    """

    def __init__(self, layers: Sequence[DenseLayer | ActivationLayer]):
        self.layers = list(layers)
        self._check_structure()
        slots: list[Slot] = []
        self._slot_of: list = [None] * len(self.layers)   # layer index -> slot index(es)
        gate_slot: dict[int, int] = {}
        for i, layer in enumerate(self.layers):
            if isinstance(layer, DenseLayer):
                self._slot_of[i] = (len(slots), len(slots) + 1)
                slots.append(Slot(layer.w, True, f"dense{i}.w"))
                slots.append(Slot(layer.b, False, f"dense{i}.b"))
            elif layer.baseline is None and layer.granularity != "fixed":
                if id(layer.raw) not in gate_slot:
                    gate_slot[id(layer.raw)] = len(slots)
                    slots.append(Slot(layer.raw, False, f"act{i}.raw"))
                self._slot_of[i] = gate_slot[id(layer.raw)]
        self.arena = Arena(slots)
        views = [s.array for s in self.arena.slots]
        for i, layer in enumerate(self.layers):
            if isinstance(layer, DenseLayer):
                layer.w, layer.b = (views[k] for k in self._slot_of[i])
            elif self._slot_of[i] is not None:
                layer.raw = views[self._slot_of[i]]

    def _check_structure(self):
        if not any(isinstance(l, DenseLayer) for l in self.layers):
            raise ValueError("model has no dense layer")
        if not isinstance(self.layers[-1], DenseLayer):
            raise ValueError("the final layer must be dense")
        width = None
        previous = None
        for i, layer in enumerate(self.layers):
            if isinstance(layer, DenseLayer):
                if width is not None and layer.w.shape[0] != width:
                    raise ValueError(f"dense input width {layer.w.shape[0]} does not "
                                     f"match previous output width {width}")
                width = layer.w.shape[1]
            elif not isinstance(previous, DenseLayer):
                raise ValueError(f"gate layer {i} does not follow a dense layer")
            previous = layer

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[0]

    def activation_layers(self) -> list[ActivationLayer]:
        return [l for l in self.layers if isinstance(l, ActivationLayer)]

    def learnable_activation_parameter_count(self) -> int:
        """Traversal count of gate parameters that receive gradients."""
        gate_slots = {k for layer, k in zip(self.layers, self._slot_of)
                      if isinstance(layer, ActivationLayer) and k is not None}
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
    """Dense stack with a gate after each hidden layer, seeded Kaiming-uniform init."""
    widths = [spec.in_dim, *spec.hidden, spec.n_classes]
    start, baseline = _INITS[config.init_strategy]
    granularity = "fixed" if baseline is not None else config.granularity

    def gate_raw() -> np.ndarray:
        return core.random_raw(rng) if start is None else core.preset(start).raw_vector()

    shared = gate_raw() if granularity == "global_shared" else None

    layers: list[DenseLayer | ActivationLayer] = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        bound = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append(DenseLayer(w, np.zeros(fan_out)))
        if i < len(widths) - 2:
            raw = shared if shared is not None else gate_raw()
            layers.append(ActivationLayer(raw, granularity, baseline))
    return MLPModel(layers)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

class StepBuffers:
    """Arrays one training step writes into, for batches of ``n_rows`` rows.

    ``x`` receives the float input batch when it comes as
    :class:`idx.PixelRows`.  Per layer index: ``gates[i]`` is gate layer
    i's tape, ``out[i]`` dense layer i's output and ``d_in[i]`` its input
    gradient (never formed for layer 0).  The gate tapes share one set of
    four scratch vectors, sized for the widest of them, since each gate
    call uses scratch only while it runs (see :class:`core.GateTape`).
    ``grad`` is the gradient arena, laid out like ``model.arena``.  Entries
    that do not apply to a layer are None.  Each step overwrites the
    previous one's input, tapes, outputs and gradients.
    """

    def __init__(self, model: MLPModel, n_rows: int):
        self.n_rows = n_rows
        self.grad = np.empty(model.arena.size)
        self.x = np.empty((n_rows, model.in_dim))
        gated = {i for i, layer in enumerate(model.layers)
                 if isinstance(layer, ActivationLayer) and layer.baseline is None}
        widest = max((model.layers[i - 1].w.shape[1] for i in gated), default=0)
        scratch = [np.empty(n_rows * widest) for _ in range(4)]
        self.gates: list[GateTape | None] = []
        self.out: list[np.ndarray | None] = []
        self.d_in: list[np.ndarray | None] = []
        width = model.in_dim
        for i, layer in enumerate(model.layers):
            dense = isinstance(layer, DenseLayer)
            shape = (n_rows, width)
            views = [s[:n_rows * width].reshape(shape) for s in scratch] if i in gated else None
            self.gates.append(None if views is None else GateTape(shape, views))
            self.d_in.append(np.empty((n_rows, width)) if dense and i > 0 else None)
            if dense:
                width = layer.w.shape[1]
            self.out.append(np.empty((n_rows, width)) if dense else None)

    def rows(self, k: int) -> "StepBuffers":
        """Views of the first ``k`` rows (sharing ``grad``), for a short last batch."""
        view = copy.copy(self)
        view.n_rows = k
        view.x = self.x[:k]
        view.gates = [None if b is None else b.rows(k) for b in self.gates]
        view.out = [None if a is None else a[:k] for a in self.out]
        view.d_in = [None if a is None else a[:k] for a in self.d_in]
        return view


def _split(x):
    """A whole split to read rows from, never converted as a whole when it is bytes.

    :class:`idx.PixelRows` stays as it is, and so do the batches and blocks
    selected from it, until :func:`_input_batch` scales them; anything else
    becomes one float64 array, and a uint8 array keeps its values 0-255.
    """
    return x if isinstance(x, idx.PixelRows) else np.asarray(x, dtype=np.float64)


def _labels(y) -> np.ndarray:
    """Labels as int64; a non-integer dtype is rejected rather than truncated."""
    y = np.asarray(y)
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"labels must have an integer dtype, got {y.dtype}")
    return y.astype(np.int64, copy=False)


def _check_width(model: MLPModel, x):
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError(f"batch shape {x.shape} does not match input width {model.in_dim}")
    return x


def _input_batch(model: MLPModel, batch: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The float64 rows a model reads: where :class:`idx.PixelRows` become floats.

    Pixel rows are scaled into ``out`` when it is given, instead of a fresh array.
    """
    if out is not None and isinstance(batch, idx.PixelRows):
        return _check_width(model, batch).scale_into(out)
    return _check_width(model, np.asarray(batch, dtype=np.float64))


# Rows of ``w`` per partial product in :func:`_dense`.  OpenBLAS sums a long
# inner dimension in pieces whose bounds depend on its thread count, so the
# whole 784-row first-layer product gave other bits at 1 and 2 threads.
# Blocks of 384 and 256 gave the same bits at both for every row count from
# 1 to 1000; 392 did not, though 448 and 512 did, so no block above 384 is
# relied on (numpy 2.4.6, OpenBLAS 0.3.31; README).
_DENSE_BLOCK = 384


def _dense(layer: DenseLayer, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ w + b``, written into ``out`` when given: the dense step of every walk.

    The product is summed over blocks of ``_DENSE_BLOCK`` rows of ``w`` in
    order, so its bits do not depend on the BLAS thread count.
    """
    w = layer.w
    y = np.matmul(x[:, :_DENSE_BLOCK], w[:_DENSE_BLOCK], out=out)
    for k in range(_DENSE_BLOCK, w.shape[0], _DENSE_BLOCK):
        y += x[:, k:k + _DENSE_BLOCK] @ w[k:k + _DENSE_BLOCK]
    y += layer.b
    return y


def forward(model: MLPModel, batch: np.ndarray,
            buffers: StepBuffers | None = None) -> tuple[np.ndarray, list]:
    """Logits plus the per-layer cache consumed by :func:`backward`.

    With ``buffers`` every layer, and the scaling of a :class:`idx.PixelRows`
    batch, writes into them instead of fresh arrays, so the logits and the
    cache live only until the next buffered call.
    """
    x = _input_batch(model, batch, None if buffers is None else buffers.x)
    none = [None] * len(model.layers)
    out, gates = (none, none) if buffers is None else (buffers.out, buffers.gates)
    cache: list = []
    for i, layer in enumerate(model.layers):
        if isinstance(layer, DenseLayer):
            cache.append(x)
            x = _dense(layer, x, out[i])
        elif layer.baseline is not None:
            cache.append(x)
            x = zoo.act_batch(layer.baseline, x)
        else:
            tape = core.batch_eval(x, layer.effective_params(), gates[i])
            cache.append(tape)
            x = tape.f
    return x, cache


def backward(model: MLPModel, cache: list, grad_logits: np.ndarray,
             buffers: StepBuffers | None = None) -> list[np.ndarray]:
    """Gradients aligned with ``model.arena.slots``: views into one gradient arena.

    Gate-parameter gradients are w.r.t. the raw vectors (positive-map chain
    applied); a shared vector is assigned by the last layer using it and
    accumulates the earlier layers' contributions.  The gradient w.r.t. the
    input batch is never formed.  With ``buffers`` the arena is
    ``buffers.grad`` and the temporaries are written into the buffers too.
    """
    if len(cache) != len(model.layers):
        raise ValueError("cache does not match model (stale or from another model)")
    if buffers is None:
        grad, d_in = np.empty(model.arena.size), [None] * len(model.layers)
    else:
        grad, d_in = buffers.grad, buffers.d_in
    grads = model.arena.views(grad)
    g = np.asarray(grad_logits, dtype=np.float64)
    written: set[int] = set()
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        entry = cache[i]
        slot = model._slot_of[i]
        if isinstance(layer, DenseLayer):
            np.matmul(entry.T, g, out=grads[slot[0]])
            np.add.reduce(g, axis=0, out=grads[slot[1]])
            if i > 0:
                g = np.matmul(g, layer.w.T, out=d_in[i])
        elif layer.baseline is not None:
            g = g * zoo.act_grad_batch(layer.baseline, entry)
        else:
            if not isinstance(entry, GateTape):
                raise ValueError("cache does not match model (stale or from another model)")
            g, d_eff = core.batch_vjp(entry, g)
            if slot is not None:
                d_eff[0] *= core.positive_map_grad(layer.raw[0])
                d_eff[2] *= core.positive_map_grad(layer.raw[2])
                if slot in written:
                    grads[slot] += d_eff
                else:
                    grads[slot][...] = d_eff
                    written.add(slot)
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
# moments, one scratch) stay in a core's L2 cache between the passes.
_ADAM_CHUNK = 1 << 15
# AdamW's published defaults (Loshchilov & Hutter, arXiv:1711.05101)
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """AdamW's rescaled moments laid out like the arena, plus one chunk-sized scratch vector.

    ``m`` holds the first moment divided by ``1 - beta1`` and ``v`` the second
    divided by ``1 - beta2``, so each step adds the gradient and its square
    to them unscaled (see :func:`adamw_step`).
    """

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty(min(_ADAM_CHUNK, self.m.size))

    @classmethod
    def init_like(cls, arena: Arena) -> "AdamState":
        return cls(m=np.zeros(arena.size), v=np.zeros(arena.size))


def adamw_step(arena: Arena, grad: np.ndarray, state: AdamState,
               lr: float, weight_decay: float, step: int) -> AdamState:
    """One decoupled-decay Adam update of the whole arena, in place.

    ``grad`` is a vector with the arena's layout.  Decay multiplies the
    parameter directly (never routed through the moments) and only touches
    slots flagged for decay: dense weights; biases and gate raw parameters
    are exempt.  Nothing is updated if any gradient is NaN/Inf.

    With the rescaled moments ``m = m_t / (1 - b1)`` and ``v = v_t / (1 - b2)``
    of :class:`AdamState`, the published step
    ``lr * (m_t / bc1) / (sqrt(v_t / bc2) + eps)`` is
    ``lr * (1 - b1) * r / bc1 * m / (sqrt(v) + eps * r)`` with
    ``r = sqrt(bc2 / (1 - b2))``: the same in real arithmetic, in 11 passes
    over a chunk with one divide and one square root.
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
                    f"max|g|={np.max(np.abs(g))!r}")
    bc1 = 1.0 - _BETA1 ** step
    bc2 = 1.0 - _BETA2 ** step
    r = math.sqrt(bc2 / (1.0 - _BETA2))
    eps = _ADAM_EPS * r
    step_size = lr * (1.0 - _BETA1) * r / bc1
    keep = 1.0 - lr * weight_decay
    n_decay = arena.n_decay
    for lo, hi, decay in ((0, n_decay, weight_decay > 0.0), (n_decay, arena.size, False)):
        for start in range(lo, hi, _ADAM_CHUNK):
            stop = min(start + _ADAM_CHUNK, hi)
            g = grad[start:stop]
            m = state.m[start:stop]
            v = state.v[start:stop]
            p = arena.values[start:stop]
            s = state.scratch[:stop - start]
            m *= _BETA1
            m += g
            np.multiply(g, g, out=s)
            v *= _BETA2
            v += s
            if decay:
                p *= keep
            np.sqrt(v, out=s)
            s += eps
            np.divide(m, s, out=s)
            s *= step_size
            p -= s
    return state


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

    Labels must have an integer dtype and lie in ``[0, n_classes)``.
    """
    x_train, x_test = _split(dataset[0]), _split(dataset[2])
    y_train, y_test = _labels(dataset[1]), _labels(dataset[3])
    if x_train.shape[0] == 0:
        raise ValueError("empty training set")
    if x_test.shape[0] == 0:
        raise ValueError("empty test set")
    for split, y in (("training", y_train), ("test", y_test)):
        bad = np.flatnonzero((y < 0) | (y >= model_spec.n_classes))
        if bad.size:
            raise ValueError(f"{split} label {y[bad[0]]} at row {bad[0]} is outside "
                             f"[0, {model_spec.n_classes}) for {model_spec.n_classes} classes")

    init_ss, shuffle_ss = np.random.SeedSequence(config.seed).spawn(2)
    model = build_model(model_spec, config, np.random.default_rng(init_ss))
    shuffle_rng = np.random.default_rng(shuffle_ss)

    state = AdamState.init_like(model.arena)
    n = x_train.shape[0]
    step = 0
    trace: list[TraceRow] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum, correct, step = _epoch_steps(model, state, x_train, y_train, order,
                                               config, epoch, step)
        test_acc = evaluate(model, (x_test, y_test), 0.0, 0)
        trace.append(TraceRow(epoch, loss_sum / n, correct / n, test_acc))
    return model, trace


def _epoch_steps(model: MLPModel, state: AdamState, x_train, y_train: np.ndarray,
                 order: np.ndarray, config: TrainConfig, epoch: int,
                 step: int) -> tuple[float, int, int]:
    """One epoch's steps over the rows in ``order``: loss sum, correct count, last step.

    The step buffers, and the logits, cache and gradients held in them,
    live only while this runs, so they are gone before the epoch's
    evaluation allocates its row blocks.
    """
    n = order.size
    full = StepBuffers(model, min(config.batch_size, n))
    tail = full.rows(n % config.batch_size or full.n_rows)
    loss_sum = 0.0
    correct = 0
    for start in range(0, n, config.batch_size):
        rows = order[start:start + config.batch_size]
        xb, yb = x_train[rows], y_train[rows]
        buffers = full if len(rows) == full.n_rows else tail
        logits, cache = forward(model, xb, buffers)
        loss, grad_logits = softmax_cross_entropy(logits, yb)
        if not math.isfinite(loss):
            raise TrainingDivergedError(epoch, step + 1, loss)
        backward(model, cache, grad_logits, buffers)
        step += 1
        adamw_step(model.arena, buffers.grad, state, config.learning_rate,
                   config.weight_decay, step)
        loss_sum += loss * len(rows)
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
    return loss_sum, correct, step


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

# Rows per inference block.  A multiple of the BLAS micro-tile heights, so
# a block's rows sit where they would in a whole-batch product (README
# lists where the bits still differ).  On the desk net a block's arrays peak
# at about 1.3 MB; 64 rows saved 0.5 MB of RSS but slowed 1000-row
# inference by about a quarter, 256 rows cost 1.7 MB more.
_INFER_ROWS = 128


def _logits(model: MLPModel, batch: np.ndarray) -> np.ndarray:
    """The logits of :func:`forward`, bit for bit, without its cache.

    Each layer's output replaces its input as soon as it exists, and gate
    layers compute only their values (:func:`core.batch_value`), so at most
    a gate's input and its four arrays, or a dense layer's input and output,
    are alive at once.  Overflow and invalid operations give their IEEE
    results without a warning, as in the gate kernel: a model that
    :func:`load_model` accepts may hold any finite weights.
    """
    x = _input_batch(model, batch)
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in model.layers:
            if isinstance(layer, DenseLayer):
                x = _dense(layer, x)
            elif layer.baseline is not None:
                x = zoo.act_batch(layer.baseline, x)
            else:
                x = core.batch_value(x, layer.effective_params())
    return x


def _row_blocks(n: int):
    """Slices of ``n`` rows in order, ``_INFER_ROWS`` at a time."""
    return (slice(start, start + _INFER_ROWS) for start in range(0, n, _INFER_ROWS))


def predict(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Class index of each row: the argmax of the logits, ``_INFER_ROWS`` rows at a time."""
    x = _check_width(model, _split(x))
    labels = np.empty(x.shape[0], dtype=np.intp)
    for rows in _row_blocks(x.shape[0]):
        np.argmax(_logits(model, x[rows]), axis=1, out=labels[rows])
    return labels


def evaluate(model: MLPModel, dataset, noise_sigma: float = 0.0, seed: int = 0) -> float:
    """Accuracy on (x, y), optionally under additive Gaussian input noise.

    Noise is added to the already [0,1]-scaled inputs and not re-clamped; it
    is :func:`add_noise`'s draw, taken one row block at a time.
    ``noise_sigma=0`` touches no generator, so clean evaluation is identical
    regardless of seed.
    """
    x, y = dataset[0], dataset[1]
    return _correct_counts([model], x, y, noise_sigma, seed)[0] / len(y)


def _correct_counts(models: Sequence[MLPModel], x, y, noise_sigma: float,
                    seed: int) -> list[int]:
    """How many rows of ``x`` each model labels ``y`` under the noise of ``add_noise``.

    Rows go through in blocks of ``_INFER_ROWS``, so no array of ``x``'s
    full size is made.  One generator draws each block's noise in row
    order; the concatenated draws are ``add_noise(x, noise_sigma, seed)``'s,
    and every model sees the same noisy block.
    """
    x = _split(x)
    for model in models:
        _check_width(model, x)
    y = _labels(y)
    if x.shape[0] == 0:
        raise ValueError(f"cannot evaluate on an empty split: x has shape {x.shape}, "
                         f"y has shape {y.shape}")
    if y.shape != x.shape[:1]:
        raise ValueError(f"labels of shape {y.shape} do not match inputs of shape {x.shape}: "
                         f"expected one label per row, shape {x.shape[:1]}")
    _check_sigma(noise_sigma)
    rng = np.random.default_rng(seed) if noise_sigma > 0 else None
    counts = [0] * len(models)
    for rows in _row_blocks(x.shape[0]):
        block = np.asarray(x[rows], dtype=np.float64)     # once, for every model
        if rng is not None:
            noisy = rng.normal(0.0, noise_sigma, size=block.shape)
            noisy += block       # add_noise's bits: IEEE addition commutes
            block = noisy
        for k, model in enumerate(models):
            counts[k] += int(np.count_nonzero(np.argmax(_logits(model, block), axis=1)
                                              == y[rows]))
    return counts


def _check_sigma(noise_sigma: float) -> None:
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")


def add_noise(x: np.ndarray, noise_sigma: float, seed: int) -> np.ndarray:
    """``x`` plus Gaussian noise of deviation ``noise_sigma`` drawn from ``seed``.

    ``noise_sigma=0`` returns ``x`` itself and touches no generator.
    """
    _check_sigma(noise_sigma)
    if noise_sigma == 0:
        return x
    noisy = np.random.default_rng(seed).normal(0.0, noise_sigma, size=x.shape)
    noisy += x       # the bits of x + noise: IEEE addition commutes
    return noisy


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

    worst = 0.0
    for slot, g in zip(model.arena.slots, grads):
        flat, gflat = slot.array.ravel(), g.ravel()
        for k in range(flat.size):
            h = 1e-6 * max(1.0, abs(flat[k]))
            keep = flat[k]
            flat[k] = keep + h
            up = loss_now()
            flat[k] = keep - h
            down = loss_now()
            flat[k] = keep
            fd = (up - down) / (2 * h)
            err = abs(fd - gflat[k])
            if err > 1e-9:
                worst = max(worst, err / max(abs(gflat[k]), 1e-300))
    return worst


# ---------------------------------------------------------------------------
# persistence (AGM1)
# ---------------------------------------------------------------------------

_MAGIC = b"AGM1"
_GRAN_CODES = {g: i for i, g in enumerate(GRANULARITIES)}


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
            blob += struct.pack("<B", 1)
            blob += struct.pack("<B", _GRAN_CODES[layer.granularity])
            tag = None if layer.baseline is None else layer.baseline.tag
            blob += struct.pack("<B", _BASELINE_CODES[tag])
            slope = layer.baseline.slope if layer.baseline is not None else 0.0
            blob += struct.pack("<d", slope)
            blob += layer.raw.astype("<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_model(path) -> MLPModel:
    """Read an ``AGM1`` container; global-shared gate vectors are re-tied.

    Raises :class:`ModelFormatError` for a malformed container, non-finite
    weights or gate values, global-shared layers whose stored vectors
    differ, a bad baseline slope, or a layer structure :class:`MLPModel`
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
    layers: list[DenseLayer | ActivationLayer] = []
    shared: np.ndarray | None = None
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
            (gran_code,) = struct.unpack("<B", take(1))
            (base_code,) = struct.unpack("<B", take(1))
            (slope,) = struct.unpack("<d", take(8))
            raw = np.frombuffer(take(7 * 8), dtype="<f8").copy()
            if gran_code >= len(GRANULARITIES):
                raise ModelFormatError(f"{path}: unknown granularity code {gran_code}")
            if base_code not in _BASELINE_TAGS:
                raise ModelFormatError(f"{path}: unknown baseline code {base_code}")
            if not np.isfinite(raw).all():
                raise ModelFormatError(f"{path}: layer {k} has non-finite gate values")
            granularity = GRANULARITIES[gran_code]
            base_tag = _BASELINE_TAGS[base_code]
            try:
                baseline = None if base_tag is None else ActivationKind(
                    base_tag, slope if base_tag == "leaky_relu" else 0.01)
            except ValueError as exc:
                raise ModelFormatError(f"{path}: layer {k}: {exc}") from exc
            if granularity == "global_shared":
                if shared is None:
                    shared = raw
                elif raw.tobytes() != shared.tobytes():
                    raise ModelFormatError(f"{path}: layer {k} stores a global_shared gate "
                                           f"vector that differs from the first one")
                raw = shared
            layers.append(ActivationLayer(raw, granularity, baseline))
        else:
            raise ModelFormatError(f"{path}: unknown layer tag {tag}")
    if off != len(data):
        raise ModelFormatError(f"{path}: {len(data) - off} trailing bytes")
    try:
        return MLPModel(layers)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
