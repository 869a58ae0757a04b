"""Deterministic feed-forward engine: dense + adaptive-gate layers, AdamW, training.

Everything is float64 numpy.  Given the same seed, initialization, batch
order, and every update are reproducible bit-for-bit, which the experiment
runners rely on for byte-identical reports.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import core, zoo
from .core import ArcGateParams, GateTape
from .zoo import ActivationKind

__all__ = [
    "GRANULARITIES", "INIT_STRATEGIES",
    "AdamState", "ActivationLayer", "DenseLayer", "MLPModel", "ModelSpec",
    "ModelFormatError", "NonFiniteGradientError", "Slot", "TrainingDivergedError",
    "TraceRow", "TrainConfig",
    "adamw_step", "backward", "build_model", "evaluate", "forward",
    "load_model", "predict", "save_model", "softmax_cross_entropy", "train",
]

GRANULARITIES = ("fixed", "global_shared", "layer_wise")
INIT_STRATEGIES = ("soft_relu", "identity", "random", "relu_baseline")

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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
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
    def __init__(self, layers: Sequence[DenseLayer | ActivationLayer]):
        self.layers = list(layers)
        self._check_shapes()

    def _check_shapes(self):
        width = None
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                if width is not None and layer.w.shape[0] != width:
                    raise ValueError(f"dense input width {layer.w.shape[0]} does not "
                                     f"match previous output width {width}")
                width = layer.w.shape[1]

    @property
    def in_dim(self) -> int:
        return next(l.w.shape[0] for l in self.layers if isinstance(l, DenseLayer))

    def activation_layers(self) -> list[ActivationLayer]:
        return [l for l in self.layers if isinstance(l, ActivationLayer)]

    def trainables(self) -> list["Slot"]:
        """Optimizer slots in deterministic order; a shared gate vector appears once."""
        slots: list[Slot] = []
        seen: set[int] = set()
        for i, layer in enumerate(self.layers):
            if isinstance(layer, DenseLayer):
                slots.append(Slot(layer.w, True, f"dense{i}.w"))
                slots.append(Slot(layer.b, False, f"dense{i}.b"))
            elif layer.baseline is None and layer.granularity != "fixed":
                if id(layer.raw) not in seen:
                    seen.add(id(layer.raw))
                    slots.append(Slot(layer.raw, False, f"act{i}.raw"))
        return slots

    def learnable_activation_parameter_count(self) -> int:
        """Traversal count of gate parameters that receive gradients."""
        seen: set[int] = set()
        count = 0
        for layer in self.activation_layers():
            if layer.baseline is None and layer.granularity != "fixed" \
                    and id(layer.raw) not in seen:
                seen.add(id(layer.raw))
                count += layer.raw.size
        return count


@dataclass
class Slot:
    array: np.ndarray
    decay: bool
    label: str


def _strategy_raw(strategy: str, rng: np.random.Generator) -> np.ndarray:
    if strategy in ("soft_relu", "relu_baseline"):
        return core.preset("soft_relu_init").raw_vector()
    if strategy == "identity":
        return core.preset("identity").raw_vector()
    if strategy == "random":
        return core.random_raw(rng)
    raise ValueError(f"unknown init strategy {strategy!r}")


def build_model(spec: ModelSpec, config: TrainConfig,
                rng: np.random.Generator) -> MLPModel:
    """Dense stack with a gate after each hidden layer, seeded Kaiming-uniform init."""
    widths = [spec.in_dim, *spec.hidden, spec.n_classes]
    baseline = ActivationKind("relu") if config.init_strategy == "relu_baseline" else None
    granularity = "fixed" if baseline is not None else config.granularity

    shared: np.ndarray | None = None
    if granularity == "global_shared":
        shared = _strategy_raw(config.init_strategy, rng)

    layers: list[DenseLayer | ActivationLayer] = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        bound = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append(DenseLayer(w, np.zeros(fan_out)))
        if i < len(widths) - 2:
            raw = shared if shared is not None else _strategy_raw(config.init_strategy, rng)
            layers.append(ActivationLayer(raw, granularity, baseline))
    return MLPModel(layers)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def forward(model: MLPModel, batch: np.ndarray) -> tuple[np.ndarray, list]:
    """Logits plus the per-layer cache consumed by :func:`backward`."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError(f"batch shape {x.shape} does not match input width {model.in_dim}")
    cache: list = []
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            cache.append(x)
            x = x @ layer.w + layer.b
        elif layer.baseline is not None:
            cache.append(x)
            x = zoo.act_batch(layer.baseline, x)
        else:
            tape = core.batch_eval(x, layer.effective_params())
            cache.append(tape)
            x = tape.f
    return x, cache


def backward(model: MLPModel, cache: list, grad_logits: np.ndarray) -> list[np.ndarray]:
    """Gradients aligned with ``model.trainables()``.

    Gate-parameter gradients are w.r.t. the raw vectors (positive-map chain
    applied); shared vectors accumulate contributions across layers.
    """
    if len(cache) != len(model.layers):
        raise ValueError("cache does not match model (stale or from another model)")
    g = np.asarray(grad_logits, dtype=np.float64)
    by_id: dict[int, np.ndarray] = {}
    dense_grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        entry = cache[i]
        if isinstance(layer, DenseLayer):
            x_in = entry
            dense_grads[i] = (x_in.T @ g, g.sum(axis=0))
            g = g @ layer.w.T
        elif layer.baseline is not None:
            g = g * zoo.act_grad_batch(layer.baseline, entry)
        else:
            if not isinstance(entry, GateTape):
                raise ValueError("cache does not match model (stale or from another model)")
            g, d_eff = core.batch_vjp(entry, g)
            if layer.granularity != "fixed":
                d_raw = _chain_raw(layer.raw, d_eff)
                key = id(layer.raw)
                if key in by_id:
                    by_id[key] += d_raw
                else:
                    by_id[key] = d_raw

    grads: list[np.ndarray] = []
    for i, layer in enumerate(model.layers):
        if isinstance(layer, DenseLayer):
            grads.extend(dense_grads[i])
        elif layer.baseline is None and layer.granularity != "fixed":
            if id(layer.raw) in by_id:
                grads.append(by_id.pop(id(layer.raw)))
    return grads


def _chain_raw(raw: np.ndarray, d_eff: np.ndarray) -> np.ndarray:
    d_raw = d_eff.copy()
    d_raw[0] *= core.positive_map_grad(raw[0])
    d_raw[2] *= core.positive_map_grad(raw[2])
    return d_raw


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

@dataclass
class AdamState:
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def init_like(cls, slots: Sequence[Slot]) -> "AdamState":
        return cls(m=[np.zeros_like(s.array) for s in slots],
                   v=[np.zeros_like(s.array) for s in slots])


def adamw_step(slots: Sequence[Slot], grads: Sequence[np.ndarray], state: AdamState,
               lr: float, weight_decay: float, step: int,
               betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8) -> AdamState:
    """One decoupled-decay Adam update, in place.

    Decay multiplies the parameter directly (never routed through the
    moments) and only touches slots flagged for decay — dense weights; biases
    and gate raw parameters are exempt.
    """
    if step < 1:
        raise ValueError("step count starts at 1")
    b1, b2 = betas
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    for i, (slot, g) in enumerate(zip(slots, grads)):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(
                f"non-finite gradient for {slot.label} at step {step}: "
                f"max|g|={np.max(np.abs(g))!r}")
        m, v = state.m[i], state.v[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        if slot.decay and weight_decay > 0.0:
            slot.array *= 1.0 - lr * weight_decay
        slot.array -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
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
    """Train on ``dataset`` (x_train, y_train, x_test, y_test); fully seeded."""
    x_train = np.asarray(dataset[0], dtype=np.float64)
    y_train = np.asarray(dataset[1], dtype=np.int64)
    x_test = np.asarray(dataset[2], dtype=np.float64)
    y_test = np.asarray(dataset[3], dtype=np.int64)
    if x_train.shape[0] == 0:
        raise ValueError("empty training set")

    init_ss, shuffle_ss = np.random.SeedSequence(config.seed).spawn(2)
    model = build_model(model_spec, config, np.random.default_rng(init_ss))
    shuffle_rng = np.random.default_rng(shuffle_ss)

    slots = model.trainables()
    state = AdamState.init_like(slots)
    step = 0
    trace: list[TraceRow] = []
    n = x_train.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            logits, cache = forward(model, xb)
            loss, grad_logits = softmax_cross_entropy(logits, yb)
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, step + 1, loss)
            grads = backward(model, cache, grad_logits)
            step += 1
            adamw_step(slots, grads, state, config.learning_rate,
                       config.weight_decay, step)
            loss_sum += loss * len(idx)
            correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        test_acc = evaluate(model, (x_test, y_test), 0.0, 0)
        trace.append(TraceRow(epoch, loss_sum / n, correct / n, test_acc))
    return model, trace


def predict(model: MLPModel, x: np.ndarray) -> np.ndarray:
    logits, _ = forward(model, x)
    return np.argmax(logits, axis=1)


def evaluate(model: MLPModel, dataset, noise_sigma: float = 0.0, seed: int = 0) -> float:
    """Accuracy on (x, y), optionally under additive Gaussian input noise.

    Noise is added to the already [0,1]-scaled inputs and not re-clamped.
    ``noise_sigma=0`` touches no generator, so clean evaluation is identical
    regardless of seed.
    """
    x = np.asarray(dataset[0], dtype=np.float64)
    y = np.asarray(dataset[1], dtype=np.int64)
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, noise_sigma, size=x.shape)
    return float(np.mean(predict(model, x) == y))


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
    """Read an ``AGM1`` container; global-shared gate vectors are re-tied."""
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
    for _ in range(n_layers):
        (tag,) = struct.unpack("<B", take(1))
        if tag == 0:
            rows, cols = struct.unpack("<II", take(8))
            w = np.frombuffer(take(rows * cols * 8), dtype="<f8").reshape(rows, cols).copy()
            b = np.frombuffer(take(cols * 8), dtype="<f8").copy()
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
            granularity = GRANULARITIES[gran_code]
            base_tag = _BASELINE_TAGS[base_code]
            baseline = None if base_tag is None else ActivationKind(
                base_tag, slope if base_tag == "leaky_relu" else 0.01)
            if granularity == "global_shared":
                if shared is None:
                    shared = raw
                raw = shared
            layers.append(ActivationLayer(raw, granularity, baseline))
        else:
            raise ModelFormatError(f"{path}: unknown layer tag {tag}")
    if off != len(data):
        raise ModelFormatError(f"{path}: {len(data) - off} trailing bytes")
    return MLPModel(layers)
