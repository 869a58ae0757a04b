import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agm1_files import BAD_MODELS
from arcgate import core, engine, experiments, idx, zoo
from arcgate.engine import (Arena, DenseLayer, FixedActivation, GateLayer,
                            MLPModel, ModelSpec, Slot, TrainConfig, adamw_step,
                            backward, build_model, evaluate, forward, load_model,
                            save_model, softmax_cross_entropy, train)
from train_oracle import per_slot_adamw_step, per_slot_rescaled_adamw_step

DESK_SPEC = ModelSpec(784, (256, 128, 64), 10)


def tiny_model(seed=11, granularity="layer_wise", strategy="soft_relu",
               spec=ModelSpec(3, (8, 5), 3)):
    cfg = TrainConfig(seed=seed, granularity=granularity, init_strategy=strategy)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return build_model(spec, cfg, rng)


class TestForward:
    def test_identity_network_passes_batch_through(self):
        layers = [DenseLayer(np.eye(4), np.zeros(4)),
                  GateLayer(core.preset("identity").raw_vector()),
                  DenseLayer(np.eye(4), np.zeros(4))]
        model = MLPModel(layers)
        batch = np.random.default_rng(0).normal(0, 1, (6, 4))
        logits, _ = forward(model, batch)
        assert np.array_equal(logits, batch)

    def test_zero_weights_pass_gated_biases_through(self):
        bias = np.array([0.0, 1.0, -2.0])
        layers = [DenseLayer(np.zeros((2, 3)), bias),
                  GateLayer(core.preset("soft_relu_init").raw_vector()),
                  DenseLayer(np.eye(3), np.zeros(3))]
        model = MLPModel(layers)
        logits, _ = forward(model, np.ones((4, 2)))
        expected = core.eval_F_batch(bias, core.preset("soft_relu_init"))
        assert np.array_equal(logits, np.tile(expected, (4, 1)))
        assert logits[0, 0] == 0.0  # zero bias stays exactly zero

    def test_deterministic_across_calls(self):
        model = tiny_model(seed=42)
        batch = np.random.default_rng(1).normal(0, 1, (5, 3))
        a, _ = forward(model, batch)
        b, _ = forward(tiny_model(seed=42), batch)
        assert np.array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            forward(model, np.zeros((4, 7)))

    def test_bit_identical_across_processes(self):
        snippet = (
            "import hashlib, numpy as np\n"
            "from arcgate import engine\n"
            "from arcgate.engine import ModelSpec, TrainConfig\n"
            "model = engine.build_model(ModelSpec(3, (8, 5), 3), TrainConfig(seed=42),\n"
            "                           np.random.default_rng(42))\n"
            "batch = np.random.default_rng(7).normal(0, 1, (6, 3))\n"
            "logits, _ = engine.forward(model, batch)\n"
            "print(hashlib.sha256(logits.tobytes()).hexdigest())\n"
        )
        digests = {subprocess.run([sys.executable, "-c", snippet], check=True,
                                  capture_output=True, text=True).stdout.strip()
                   for _ in range(2)}
        assert len(digests) == 1


class TestModelSpec:
    @pytest.mark.parametrize("fields, message", [
        ((0, (4,), 2), "in_dim must be >= 1, got 0"),
        ((4, (3, 0), 2), r"hidden widths must be >= 1, got \(3, 0\)"),
        ((4, (-1,), 2), r"hidden widths must be >= 1, got \(-1,\)"),
        ((4, (3,), 0), "n_classes must be >= 1, got 0")])
    def test_a_width_below_1_is_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ModelSpec(*fields)

    @pytest.mark.parametrize("fields, message", [
        ((784.0, (8,), 10), "in_dim must be an integer, got 784.0"),
        ((784, (8.0,), 10), "each hidden width must be an integer, got 8.0"),
        ((784, (8, "4"), 10), "each hidden width must be an integer, got '4'"),
        ((784, (8,), 10.0), "n_classes must be an integer, got 10.0")])
    def test_a_non_integer_width_is_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelSpec(*fields)

    @pytest.mark.parametrize("hidden", [8, None])
    def test_hidden_that_is_not_a_sequence_is_rejected(self, hidden):
        with pytest.raises(ValueError,
                           match=f"^hidden must be a sequence of widths, got {hidden!r}$"):
            ModelSpec(hidden=hidden)


class TestModelStructure:
    @pytest.mark.parametrize("layers, message", [
        ([], "no dense layer"),
        ([GateLayer(core.preset("identity").raw_vector())], "no dense layer"),
        ([DenseLayer(np.eye(2), np.zeros(2)),
          GateLayer(core.preset("identity").raw_vector())], "final layer must be dense"),
        ([GateLayer(core.preset("identity").raw_vector()),
          DenseLayer(np.eye(2), np.zeros(2))], "gate layer 0 does not follow"),
        ([DenseLayer(np.eye(2), np.zeros(2)),
          GateLayer(core.preset("identity").raw_vector()),
          GateLayer(core.preset("identity").raw_vector()),
          DenseLayer(np.eye(2), np.zeros(2))], "gate layer 2 does not follow"),
        ([DenseLayer(np.eye(2), np.zeros(2)), DenseLayer(np.eye(3), np.zeros(3))],
         "does not match previous output width"),
        ([FixedActivation(zoo.ActivationKind("relu")), DenseLayer(np.eye(2), np.zeros(2))],
         "fixed activation layer 0 does not follow"),
    ])
    def test_rejected_when_built(self, layers, message):
        with pytest.raises(ValueError, match=message):
            MLPModel(layers)

    @pytest.mark.parametrize("granularity", engine.GRANULARITIES)
    def test_trainables_are_views_into_one_arena(self, granularity):
        model = tiny_model(granularity=granularity)
        arena = model.arena
        for slot in model.arena.slots:
            assert np.shares_memory(slot.array, arena.values)
        dense = [l for l in model.layers if isinstance(l, DenseLayer)]
        assert arena.n_decay == sum(l.w.size for l in dense)
        assert all(np.shares_memory(l.w, arena.values[:arena.n_decay]) for l in dense)
        assert not any(np.shares_memory(l.b, arena.values[:arena.n_decay]) for l in dense)
        acts = model.activation_layers()
        if granularity == "fixed":
            assert not any(np.shares_memory(a.raw, arena.values) for a in acts)
        else:
            assert all(np.shares_memory(a.raw, arena.values) for a in acts)
        assert arena.size == sum(s.array.size for s in model.arena.slots)


def shared_gate_model(second_raw=None) -> MLPModel:
    """Two global_shared gates built directly over separate arrays, equal unless
    ``second_raw`` is given."""
    rng = np.random.default_rng(4)
    raw = core.random_raw(rng)
    second = raw.copy() if second_raw is None else second_raw
    return MLPModel([DenseLayer(rng.normal(size=(3, 5)), rng.normal(size=5)),
                     GateLayer(raw, "global_shared"),
                     DenseLayer(rng.normal(size=(5, 4)), rng.normal(size=4)),
                     GateLayer(second, "global_shared"),
                     DenseLayer(rng.normal(size=(4, 2)), rng.normal(size=2))])


def backward_into(model: MLPModel, cache: list, grad_logits: np.ndarray,
                  out: np.ndarray) -> list[np.ndarray]:
    """``backward(..., out)``, checked to be views of ``out`` and a fresh backward's bits."""
    want = backward(model, cache, grad_logits)
    got = backward(model, cache, grad_logits, out)
    assert all(np.shares_memory(g, out) for g in got)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    return got


def adamw_steps(model: MLPModel, steps: int = 5) -> MLPModel:
    """``steps`` seeded AdamW steps on 16-row random batches, in place, with one gradient
    vector as training keeps it."""
    rng = np.random.default_rng(8)
    m, v = np.zeros(model.arena.size), np.zeros(model.arena.size)
    grad = np.empty(model.arena.size)
    for step in range(1, steps + 1):
        logits, cache = forward(model, rng.normal(size=(16, model.in_dim)))
        _, grad_logits = softmax_cross_entropy(logits, rng.integers(0, 2, 16))
        backward_into(model, cache, grad_logits, grad)
        adamw_step(model.arena, grad, m, v, 0.01, 0.01, step)
    return model


class TestRefusals:
    """Refusals of the engine's constructors and steps, each with its full message."""

    @pytest.mark.parametrize("field, value, message", [
        ("batch_size", 0, "batch_size must be >= 1"),
        ("init_strategy", "bogus", f"init_strategy must be one of {engine.INIT_STRATEGIES}"),
        ("granularity", "bogus", f"granularity must be one of {engine.GRANULARITIES}")])
    def test_train_config_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("layer, args, message", [
        (GateLayer, (np.zeros(7), "bogus"), f"granularity must be one of {engine.GRANULARITIES}"),
        (GateLayer, (np.zeros(6),), "gate layer needs a 7-vector of raw parameters"),
        (DenseLayer, (np.eye(3), np.zeros(2)), "inconsistent dense shapes (3, 3) / (2,)")],
        ids=["gate_granularity", "gate_raw_length", "dense_bias_length"])
    def test_layer(self, layer, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            layer(*args)

    def test_adamw_step_zero(self):
        arena = Arena([Slot(np.array([1.0]), True, "w")])
        with pytest.raises(ValueError, match="^step count starts at 1$"):
            adamw_step(arena, np.zeros(1), np.zeros(1), np.zeros(1),
                       lr=0.1, weight_decay=0.0, step=0)
        assert arena.slots[0].array[0] == 1.0

    def test_backward_with_a_gate_entry_that_is_no_tape(self):
        model = tiny_model()
        _, cache = forward(model, np.zeros((2, 3)))
        assert isinstance(model.layers[3], GateLayer)
        cache[3] = cache[2]     # the dense layer's input, not a GateTape
        with pytest.raises(ValueError, match="^cache does not match model"):
            backward(model, cache, np.zeros((2, 3)))


class TestGlobalSharedTie:
    """The model ties every global_shared gate to the first one, however it was built."""

    def test_equal_separate_vectors_share_one_slot(self):
        model = shared_gate_model()
        assert [s.label for s in model.arena.slots if "act" in s.label] == ["act1.raw"]
        assert model.learnable_activation_parameter_count() == 7
        first, second = model.activation_layers()
        assert first.raw is second.raw
        assert np.shares_memory(first.raw, model.arena.values)

    def test_vectors_stay_identical_under_adamw(self):
        model = shared_gate_model()
        before = model.activation_layers()[0].raw.copy()
        first, second = adamw_steps(model).activation_layers()
        assert first.raw.tobytes() == second.raw.tobytes()
        assert first.raw.tobytes() != before.tobytes()

    def test_agm1_round_trip_keeps_bytes(self, tmp_path):
        path, again = tmp_path / "m.agm", tmp_path / "again.agm"
        save_model(adamw_steps(shared_gate_model()), path)
        back = load_model(path)
        assert back.learnable_activation_parameter_count() == 7
        save_model(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_unequal_vectors_rejected_when_built(self):
        with pytest.raises(ValueError, match="^layer 3 stores a global_shared gate vector "
                                             "that differs from the first one$"):
            shared_gate_model(core.preset("identity").raw_vector())


class TestBackward:
    def test_single_dense_outer_product(self):
        # squared error on one sample: dL/dW = x^T (y_hat - y), classic form
        w = np.array([[0.5, -0.2], [0.1, 0.3], [-0.4, 0.2]])
        model = MLPModel([DenseLayer(w.copy(), np.zeros(2))])
        x = np.array([[1.0, 2.0, -1.0]])
        target = np.array([[0.3, -0.1]])
        logits, cache = forward(model, x)
        grad_logits = 2.0 * (logits - target)
        grads = backward(model, cache, grad_logits)
        expected_dw = x.T @ grad_logits
        assert np.allclose(grads[0], expected_dw, rtol=1e-12)
        assert np.allclose(grads[1], grad_logits.sum(axis=0), rtol=1e-12)

    def test_full_finite_difference_check(self):
        model = tiny_model(seed=11)
        for i, act in enumerate(model.activation_layers()):
            act.raw += np.array([0.3, -0.2, 0.1, 0.05, -0.1, 0.2, 0.15]) * (i + 1)
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (10, 3))
        y = rng.integers(0, 3, 10)
        logits, cache = forward(model, x)
        _, grad_logits = softmax_cross_entropy(logits, y)
        grads = backward(model, cache, grad_logits)

        def loss_now():
            lg, _ = forward(model, x)
            return softmax_cross_entropy(lg, y)[0]

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
                assert abs(fd - gflat[k]) <= max(1e-4 * abs(gflat[k]), 1e-9), slot.label

    def test_fixed_granularity_yields_no_activation_gradients(self):
        model = tiny_model(granularity="fixed")
        assert all("act" not in s.label for s in model.arena.slots)
        x = np.random.default_rng(2).normal(0, 1, (4, 3))
        logits, cache = forward(model, x)
        _, gl = softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
        grads = backward(model, cache, gl)
        assert len(grads) == len(model.arena.slots)  # dense w/b only

    def test_global_shared_accumulates_across_layers(self):
        model = tiny_model(granularity="global_shared")
        acts = model.activation_layers()
        assert len({id(a.raw) for a in acts}) == 1
        slots = model.arena.slots
        assert sum("act" in s.label for s in slots) == 1
        x = np.random.default_rng(2).normal(0, 1, (4, 3))
        logits, cache = forward(model, x)
        _, gl = softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
        grads = backward(model, cache, gl)
        shared_grad = grads[[i for i, s in enumerate(slots) if "act" in s.label][0]]
        # must equal the sum of per-layer contributions from a layer_wise twin
        twin = tiny_model(granularity="layer_wise")
        for a, b in zip(twin.activation_layers(), acts):
            a.raw[:] = b.raw
        for dl_a, dl_b in zip(twin.layers, model.layers):
            if isinstance(dl_a, DenseLayer):
                dl_a.w[:] = dl_b.w
                dl_a.b[:] = dl_b.b
        lg, cache2 = forward(twin, x)
        _, gl2 = softmax_cross_entropy(lg, np.array([0, 1, 2, 0]))
        grads2 = backward(twin, cache2, gl2)
        slots2 = twin.arena.slots
        acc = sum(grads2[i] for i, s in enumerate(slots2) if "act" in s.label)
        assert np.allclose(shared_grad, acc, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("granularity, strategy", [
        ("layer_wise", "soft_relu"), ("global_shared", "random"),
        ("fixed", "identity"), ("layer_wise", "relu_baseline")])
    def test_buffered_step_matches_allocating(self, granularity, strategy):
        # one gradient vector for every batch, a short one between full ones, as in an
        # epoch; it starts as NaN, so a value backward fails to write shows
        model = tiny_model(granularity=granularity, strategy=strategy)
        grad = np.full(model.arena.size, np.nan)
        rng = np.random.default_rng(3)
        for n_rows in (6, 4, 6):
            x = rng.normal(0, 1, (n_rows, 3))
            logits, cache = forward(model, x)
            _, gl = softmax_cross_entropy(logits, rng.integers(0, 3, n_rows))
            backward_into(model, cache, gl, grad)

    def test_stale_cache_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            backward(model, [None] * 3, np.zeros((2, 3)))


class TestAdamW:
    def test_zero_grad_zero_decay_is_noop(self):
        arena = Arena([Slot(np.array([2.5]), True, "w")])
        adamw_step(arena, np.array([0.0]), np.zeros(1), np.zeros(1),
                   lr=0.1, weight_decay=0.0, step=1)
        assert arena.slots[0].array[0] == 2.5

    def test_first_step_magnitude(self):
        arena = Arena([Slot(np.array([0.0]), False, "w")])
        adamw_step(arena, np.array([1.0]), np.zeros(1), np.zeros(1),
                   lr=0.1, weight_decay=0.0, step=1)
        assert arena.slots[0].array[0] == pytest.approx(-0.1, rel=1e-7)

    def test_decoupled_decay(self):
        arena = Arena([Slot(np.array([1.0]), True, "w")])
        adamw_step(arena, np.array([0.0]), np.zeros(1), np.zeros(1),
                   lr=0.1, weight_decay=0.01, step=1)
        assert arena.slots[0].array[0] == pytest.approx(0.999, rel=1e-14)

    def test_decay_skips_exempt_slots(self):
        arena = Arena([Slot(np.array([1.0]), False, "b")])
        adamw_step(arena, np.array([0.0]), np.zeros(1), np.zeros(1),
                   lr=0.1, weight_decay=0.01, step=1)
        assert arena.slots[0].array[0] == 1.0

    def test_non_finite_gradient_aborts(self):
        arena = Arena([Slot(np.array([1.0]), True, "w")])
        with pytest.raises(engine.NonFiniteGradientError):
            adamw_step(arena, np.array([math.nan]), np.zeros(1), np.zeros(1),
                       lr=0.1, weight_decay=0.0, step=1)


def _gradient_bank(size, seed):
    """Three gradient vectors whose entries span many magnitudes and both signs."""
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, 1.0, size) * 10.0 ** rng.uniform(-9.0, 2.0, size)
            for _ in range(3)]


class TestArenaAdamW:
    """The arena AdamW against the per-slot loop over rescaled moments, bit for bit,
    and against the published per-slot AdamW to rounding."""

    STEPS = 200
    # Largest difference from the published form after STEPS steps, relative
    # to the slot's largest magnitude: values that cross zero make an
    # elementwise ratio meaningless (measured: 6.0e-15 for the parameters,
    # 4.7e-15 for the moments).
    PUBLISHED_RTOL = 1e-12

    @staticmethod
    def fresh_oracle(arena):
        """Copies of the arena's slots with zero moments, for a per-slot oracle."""
        slots = [Slot(s.array.copy(), s.decay, s.label) for s in arena.slots]
        return slots, [np.zeros_like(s.array) for s in slots], [np.zeros_like(s.array) for s in slots]

    def run_both(self, model, weight_decay, lr=1e-3):
        arena = model.arena
        oracles = {oracle_step: self.fresh_oracle(arena)
                   for oracle_step in (per_slot_rescaled_adamw_step, per_slot_adamw_step)}
        m, v = np.zeros(arena.size), np.zeros(arena.size)
        bank = _gradient_bank(arena.size, seed=arena.size)
        for step in range(1, self.STEPS + 1):
            grad = bank[step % 3]
            adamw_step(arena, grad, m, v, lr, weight_decay, step)
            for oracle_step, (slots, m_ref, v_ref) in oracles.items():
                oracle_step(slots, arena.views(grad), m_ref, v_ref, lr, weight_decay, step)
        got = list(zip(arena.slots, arena.views(m), arena.views(v)))
        slots, m_ref, v_ref = oracles[per_slot_rescaled_adamw_step]
        for (slot, got_m, got_v), ref, m, v in zip(got, slots, m_ref, v_ref):
            assert slot.array.tobytes() == ref.array.tobytes(), slot.label
            assert got_m.tobytes() == m.tobytes() and got_v.tobytes() == v.tobytes()
        slots, m_ref, v_ref = oracles[per_slot_adamw_step]
        for (slot, got_m, got_v), ref, m, v in zip(got, slots, m_ref, v_ref):
            for value, published in ((slot.array, ref.array),
                                     (got_m * (1.0 - engine._BETA1), m),
                                     (got_v * (1.0 - engine._BETA2), v)):
                scale = np.max(np.abs(published))
                assert np.max(np.abs(value - published)) <= self.PUBLISHED_RTOL * scale, slot.label

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("granularity, strategy", [
        ("layer_wise", "soft_relu"), ("global_shared", "random"),
        ("fixed", "soft_relu"), ("layer_wise", "relu_baseline")])
    def test_tiny_model(self, granularity, strategy, weight_decay):
        self.run_both(tiny_model(granularity=granularity, strategy=strategy), weight_decay)

    @pytest.mark.parametrize("granularity, strategy, weight_decay", [
        ("layer_wise", "soft_relu", 1e-2), ("global_shared", "random", 0.0),
        ("fixed", "soft_relu", 1e-2), ("layer_wise", "relu_baseline", 0.0)])
    def test_desk_model_spanning_several_chunks(self, granularity, strategy, weight_decay):
        model = tiny_model(granularity=granularity, strategy=strategy, spec=DESK_SPEC)
        assert model.arena.n_decay > 2 * engine._ADAM_CHUNK
        self.run_both(model, weight_decay)

    @pytest.mark.parametrize("granularity", ["layer_wise", "global_shared"])
    def test_non_finite_gradient_names_its_slot(self, granularity):
        model = tiny_model(granularity=granularity)
        before = model.arena.values.copy()
        m, v = np.zeros(model.arena.size), np.zeros(model.arena.size)
        for k, slot in enumerate(model.arena.slots):
            for bad in (math.nan, math.inf, -math.inf):
                grad = np.ones(model.arena.size)
                model.arena.views(grad)[k].flat[-1] = bad
                peak = "nan" if math.isnan(bad) else "inf"
                with pytest.raises(engine.NonFiniteGradientError,
                                   match=rf"^non-finite gradient for {re.escape(slot.label)} "
                                         rf"at step 3: max\|g\|={peak}$"):
                    adamw_step(model.arena, grad, m, v, 0.1, 0.01, 3)
        assert model.arena.values.tobytes() == before.tobytes()
        assert not m.any() and not v.any()


    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
    def test_overflowing_finite_gradient_is_not_rejected(self):
        model = tiny_model()
        oracle, m_ref, v_ref = self.fresh_oracle(model.arena)
        grad = np.full(model.arena.size, 1e308)
        adamw_step(model.arena, grad, np.zeros(model.arena.size),
                   np.zeros(model.arena.size), 1e-3, 1e-2, 1)
        per_slot_rescaled_adamw_step(oracle, model.arena.views(grad), m_ref, v_ref,
                                     1e-3, 1e-2, 1)
        for slot, ref in zip(model.arena.slots, oracle):
            assert slot.array.tobytes() == ref.array.tobytes()


# SHA-256 of the AGM1 file and the per-epoch train losses of each training
# below, recorded with AdamW over rescaled moments and the inner-blocked
# dense product, identical under 1 and 2 BLAS threads (numpy 2.4.6, OpenBLAS
# 0.3.31).  Training must keep reproducing them exactly.
SAVED_ONE_EPOCH = {
    ("soft_relu", "fixed"): ("1fec3c6f62861aef0c88e072a5783389d18a2661c58b8207c115b653ee56daab",
                             (2.395516626381712,)),
    ("soft_relu", "global_shared"): ("665c68dab27084dd5eefbc94f9cbcdce18fe1965e5b1045c6ac6eef168debe46",
                                     (2.3948194367606623,)),
    ("soft_relu", "layer_wise"): ("3974d804c93bfc48d848bf6e90af266818cdeee5204b460c64e0a3daa9a7d7e4",
                                  (2.3948151428658253,)),
    ("identity", "fixed"): ("d0ff0069ed2d1669d8feb4aa954861735b65f4d406015f8cb9df65332f79ac5e",
                            (2.677546286470112,)),
    ("identity", "global_shared"): ("676e2d1eb43a635f48ca2d235b5b9ec11e3a240f5ed983658a097d04e35b45fb",
                                    (2.6768658323823447,)),
    ("identity", "layer_wise"): ("d85d973064259f4edd3dae484e967f006595520f32e7e8316f2ae28cd2df571a",
                                 (2.6769105698508247,)),
    ("random", "fixed"): ("ffbf2377c4093a08174c52a327c6fc3e052b36491a151c19a9b1617c22e94d70",
                          (2.5187876965871814,)),
    ("random", "global_shared"): ("33a4c7e5b2578dcc130c97e90b255687a05422d35ae1fb258b250facd84a503d",
                                  (2.2844846972859263,)),
    ("random", "layer_wise"): ("3b410fa7fc3a96ba849856d5dff976e53da502d195d089beec0af3bef6d5826c",
                               (2.518478912119206,)),
    ("relu_baseline", "fixed"): ("9bb655874dab1373da71ff3bf418f26fc99b226f406589eb55519a2e978da01a",
                                 (2.4304991557264453,)),
    ("relu_baseline", "global_shared"): ("9bb655874dab1373da71ff3bf418f26fc99b226f406589eb55519a2e978da01a",
                                         (2.4304991557264453,)),
    ("relu_baseline", "layer_wise"): ("9bb655874dab1373da71ff3bf418f26fc99b226f406589eb55519a2e978da01a",
                                      (2.4304991557264453,)),
}

# 600 rows with batch 64 end on a short batch of 24 rows.
SAVED_TWO_EPOCHS_SHORT_BATCH = {
    ("soft_relu", "layer_wise"): ("1dc9a5b7e4fec5cd53ea498d3887fe8ebd5d4161ba97aa436fb42f103093e2fa",
                                  (2.3876397539645304, 2.2739782650258036)),
    ("random", "global_shared"): ("f866b01356b4791164683e4479d302677c79eab5324503d6e39bbfacce8838b3",
                                  (2.368863904839775, 2.2842963880522817)),
    ("identity", "fixed"): ("97f379623fb8be7fad4ab6db1238f6a64890027283a95e4220d66cb69c75c4ce",
                            (2.927531350106106, 2.54793658367505)),
    ("relu_baseline", "layer_wise"): ("4cd26b8cfd600c1ea34fa594a93d9840a5a23bc45d8ba23abbe1709584275d98",
                                      (2.408092887931601, 2.2813016920535767)),
}


class TestSavedBytes:
    @staticmethod
    def train_digest(dataset, rows, epochs, seed, init, granularity, tmp_path):
        data = (dataset.x_train[:rows], dataset.y_train[:rows],
                dataset.x_test[:rows], dataset.y_test[:rows])
        config = TrainConfig(epochs=epochs, batch_size=64, seed=seed,
                             init_strategy=init, granularity=granularity)
        model, trace = train(DESK_SPEC, data, config)
        path = tmp_path / "model.agm1"
        save_model(model, path)
        return (hashlib.sha256(path.read_bytes()).hexdigest(),
                tuple(row.train_loss for row in trace))

    @pytest.mark.parametrize("init, granularity", sorted(SAVED_ONE_EPOCH))
    def test_one_epoch_desk_training(self, desk_dataset, tmp_path, init, granularity):
        got = self.train_digest(desk_dataset, 640, 1, 3, init, granularity, tmp_path)
        assert got == SAVED_ONE_EPOCH[init, granularity]

    @pytest.mark.parametrize("init, granularity", sorted(SAVED_TWO_EPOCHS_SHORT_BATCH))
    def test_two_epochs_with_a_short_batch(self, desk_dataset, tmp_path, init, granularity):
        got = self.train_digest(desk_dataset, 600, 2, 5, init, granularity, tmp_path)
        assert got == SAVED_TWO_EPOCHS_SHORT_BATCH[init, granularity]

    def test_trained_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # A whole 784-row first-layer product gave different bytes here at 1
        # and 2 threads; the blocked product must not.
        snippet = (
            "import sys\n"
            "from arcgate import engine, idx\n"
            "data = idx.synthesize_arrays(n_train=640, n_test=64, seed=3)\n"
            "model, _ = engine.train(engine.ModelSpec(), data,\n"
            "                        engine.TrainConfig(epochs=1, seed=3))\n"
            "engine.save_model(model, sys.argv[1])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        files = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                               os.environ.get("PYTHONPATH")]))}
            files.append(tmp_path / f"threads{threads}.agm1")
            subprocess.run([sys.executable, "-c", snippet, str(files[-1])], env=env,
                           check=True, capture_output=True, timeout=300)
        assert files[0].read_bytes() == files[1].read_bytes()


def perceptron_separable(x, y, iters=2000):
    """Perceptron oracle: returns True iff it finds a separating hyperplane."""
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    signs = np.where(y == 0, -1.0, 1.0)
    w = np.zeros(aug.shape[1])
    for _ in range(iters):
        wrong = signs * (aug @ w) <= 0
        if not wrong.any():
            return True
        k = int(np.flatnonzero(wrong)[0])
        w += signs[k] * aug[k]
    return False


class TestTrain:
    def test_separable_blobs_reach_perfect_accuracy(self, blob_dataset):
        assert perceptron_separable(
            np.vstack([blob_dataset.x_train, blob_dataset.x_test]),
            np.concatenate([blob_dataset.y_train, blob_dataset.y_test]))
        config = TrainConfig(epochs=20, batch_size=16, learning_rate=0.01,
                             weight_decay=0.0, seed=7)
        _, trace = train(ModelSpec(2, (8,), 2), blob_dataset, config)
        assert trace[-1].test_acc == 1.0

    def test_same_seed_identical_traces(self, blob_dataset):
        config = TrainConfig(epochs=5, batch_size=16, learning_rate=0.01,
                             weight_decay=0.0, seed=7)
        _, t1 = train(ModelSpec(2, (8,), 2), blob_dataset, config)
        _, t2 = train(ModelSpec(2, (8,), 2), blob_dataset, config)
        assert t1 == t2

    @pytest.mark.parametrize("strategy", engine.INIT_STRATEGIES)
    def test_loss_decreases_for_every_strategy(self, blob_dataset, strategy):
        config = TrainConfig(epochs=20, batch_size=16, learning_rate=0.01,
                             weight_decay=0.0, seed=3, init_strategy=strategy)
        _, trace = train(ModelSpec(2, (8,), 2), blob_dataset, config)
        assert trace[-1].train_loss < trace[0].train_loss

    def test_relu_baseline_freezes_activation_parameters(self, blob_dataset):
        config = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01,
                             weight_decay=0.0, seed=5, init_strategy="relu_baseline")
        model, trace = train(ModelSpec(2, (8,), 2), blob_dataset, config)
        assert len(trace) == 3
        assert [type(layer) for layer in model.layers] == [DenseLayer, FixedActivation,
                                                           DenseLayer]
        assert model.layers[1].kind == zoo.ActivationKind("relu")
        assert model.activation_layers() == []
        assert all("act" not in slot.label for slot in model.arena.slots)

    def test_fixed_mode_parameters_bit_frozen(self, blob_dataset):
        config = TrainConfig(epochs=5, batch_size=16, learning_rate=0.01,
                             weight_decay=0.0, seed=5, granularity="fixed")
        model, _ = train(ModelSpec(2, (8,), 2), blob_dataset, config)
        init_raw = core.preset("soft_relu_init").raw_vector()
        for act in model.activation_layers():
            assert np.array_equal(act.raw, init_raw)

    def test_global_shared_stays_tied_after_training(self, blob_dataset):
        config = TrainConfig(epochs=5, batch_size=16, learning_rate=0.01,
                             weight_decay=0.0, seed=5, granularity="global_shared")
        model, _ = train(ModelSpec(2, (8, 6), 2), blob_dataset, config)
        acts = model.activation_layers()
        assert len({id(a.raw) for a in acts}) == 1
        assert not np.array_equal(acts[0].raw, core.preset("soft_relu_init").raw_vector())

    def test_layer_wise_vectors_can_diverge(self, blob_dataset):
        config = TrainConfig(epochs=10, batch_size=16, learning_rate=0.01,
                             weight_decay=0.0, seed=5, granularity="layer_wise")
        model, _ = train(ModelSpec(2, (8, 6), 2), blob_dataset, config)
        a, b = model.activation_layers()
        assert not np.array_equal(a.raw, b.raw)

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            TrainConfig(epochs=epochs)

    @pytest.mark.parametrize("field, value, message", [
        ("learning_rate", math.nan, "learning_rate must be finite and > 0"),
        ("learning_rate", math.inf, "learning_rate must be finite and > 0"),
        ("learning_rate", 0.0, "learning_rate must be finite and > 0"),
        ("weight_decay", math.nan, "weight_decay must be finite and >= 0"),
        ("weight_decay", math.inf, "weight_decay must be finite and >= 0"),
        ("weight_decay", -1e-3, "weight_decay must be finite and >= 0")])
    def test_a_non_finite_or_out_of_range_step_size_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_a_huge_finite_learning_rate_is_legal(self):
        assert TrainConfig(learning_rate=1e12, weight_decay=1e12).learning_rate == 1e12

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("epochs", 2.0), ("epochs", math.nan), ("batch_size", 32.0),
        ("seed", 1.5), ("seed", "1")])
    def test_a_non_integer_count_or_seed_rejected(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", "0.1"), ("learning_rate", None),
        ("weight_decay", "0.01"), ("weight_decay", 1j)])
    def test_a_non_real_step_size_rejected(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
            TrainConfig(**{field: value})

    def test_empty_dataset_rejected(self):
        empty = (np.zeros((0, 2)), np.zeros(0, dtype=int),
                 np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            train(ModelSpec(2, (4,), 2), empty, TrainConfig(epochs=1))

    def test_empty_test_split_rejected(self, blob_dataset, monkeypatch):
        data = (blob_dataset.x_train, blob_dataset.y_train,
                np.zeros((0, 2)), np.zeros(0, dtype=int))
        monkeypatch.setattr(engine, "forward", None)   # rejected before any step
        with pytest.raises(ValueError, match="empty test set"):
            train(ModelSpec(2, (4,), 2), data, TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch_and_step(self):
        # overflow-scale features push the logits to inf once the first Adam
        # step inflates the weights
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 1.0, (64, 2)) * 1e300
        y = rng.integers(0, 2, 64)
        config = TrainConfig(epochs=2, batch_size=16, learning_rate=1e12,
                             weight_decay=0.0, seed=5)
        with pytest.raises((engine.TrainingDivergedError, engine.NonFiniteGradientError)) as exc:
            train(ModelSpec(2, (8,), 2), (x, y, x, y), config)
        if isinstance(exc.value, engine.TrainingDivergedError):
            assert exc.value.epoch >= 1 and exc.value.step >= 1


class TestLabels:
    """Labels must be integers in [0, n_classes); nothing is truncated or wrapped."""

    SPEC = ModelSpec(2, (4,), 2)

    @pytest.mark.parametrize("cast", [lambda y: y + 0.7, lambda y: y.astype(np.float64),
                                      lambda y: y.astype(bool)], ids=["fraction", "float", "bool"])
    def test_training_rejects_non_integer_labels(self, blob_dataset, monkeypatch, cast):
        monkeypatch.setattr(engine, "forward", None)   # rejected before any step
        y = cast(blob_dataset.y_train)
        data = (blob_dataset.x_train, y, blob_dataset.x_test, blob_dataset.y_test)
        with pytest.raises(ValueError, match=f"integer dtype, got {y.dtype}"):
            train(self.SPEC, data, TrainConfig(epochs=1))

    def test_inference_rejects_non_integer_labels(self, trained, blob_dataset):
        x, y = blob_dataset.x_test, blob_dataset.y_test
        for call in (lambda labels: evaluate(trained, (x, labels)),
                     lambda labels: evaluate(trained, (x, labels), 0.3, 1)):
            with pytest.raises(ValueError, match="integer dtype, got float64"):
                call(y + 0.7)

    def test_int_lists_and_idx_labels_still_work(self, trained, blob_dataset):
        x, y = blob_dataset.x_test, blob_dataset.y_test
        want = evaluate(trained, (x, y))
        assert evaluate(trained, (x, [int(v) for v in y])) == want
        assert evaluate(trained, (x, y.astype(np.uint8))) == want

    @pytest.mark.parametrize("split, change", [
        (1, lambda a: np.append(a, 0)), (1, lambda a: a[:-1]),
        (3, lambda a: np.append(a, 0)), (3, lambda a: a[:-1]),
        (0, lambda a: a[:, :1]), (2, lambda a: np.hstack([a, a]))],
        ids=["more_training_labels", "fewer_training_labels", "more_test_labels",
             "fewer_test_labels", "narrow_training_rows", "wide_test_rows"])
    def test_training_rejects_mismatched_splits(self, blob_dataset, monkeypatch,
                                                split, change):
        monkeypatch.setattr(engine, "forward", None)   # rejected before any step
        data = list(blob_dataset)
        data[split] = change(data[split])
        x, y = data[split - split % 2:split - split % 2 + 2]
        with pytest.raises(ValueError) as exc:
            train(self.SPEC, data, TrainConfig(epochs=1))
        message = str(exc.value)
        assert message.startswith("training" if split < 2 else "test")
        assert str(x.shape) in message
        assert (str(y.shape) if split % 2 else "input width 2") in message

    @pytest.mark.parametrize("label", [5, 2, -1])
    @pytest.mark.parametrize("split", [1, 3])
    def test_training_rejects_labels_outside_the_classes(self, blob_dataset, monkeypatch,
                                                         label, split):
        monkeypatch.setattr(engine, "forward", None)   # rejected before any step
        data = list(blob_dataset)
        data[split] = data[split].copy()
        data[split][[4, 9]] = label, 7
        with pytest.raises(ValueError, match=rf"label {label} at row 4 .* for 2 classes"):
            train(self.SPEC, data, TrainConfig(epochs=1))

    @pytest.mark.parametrize("label", [2, -1])
    def test_inference_rejects_labels_outside_the_classes(self, trained, blob_dataset,
                                                          monkeypatch, label):
        monkeypatch.setattr(engine, "_logits", None)   # rejected before the model runs
        y = blob_dataset.y_test.copy()
        y[[4, 9]] = label, 7
        for sigma in (0.0, 0.3):
            with pytest.raises(ValueError,
                               match=rf"^label {label} at row 4 is outside \[0, 2\) for 2 classes$"):
                evaluate(trained, (blob_dataset.x_test, y), sigma, 1)


@pytest.fixture(scope="module")
def trained(blob_dataset):
    config = TrainConfig(epochs=20, batch_size=16, learning_rate=0.01,
                         weight_decay=0.0, seed=7)
    model, _ = train(ModelSpec(2, (8,), 2), blob_dataset, config)
    return model


class TestEvaluate:
    def test_zero_sigma_equals_clean_accuracy(self, trained, blob_dataset):
        test = (blob_dataset.x_test, blob_dataset.y_test)
        assert evaluate(trained, test, 0.0, 1) == evaluate(trained, test, 0.0, 999)

    def test_huge_noise_drops_to_chance(self, trained, blob_dataset):
        test = (blob_dataset.x_test, blob_dataset.y_test)
        n = len(test[1])
        acc = evaluate(trained, test, 1000.0, 4)
        # binomial around 1/2 for two balanced classes
        assert abs(acc - 0.5) <= 3.0 * math.sqrt(0.25 / n)

    def test_seeded_noise_reproducible(self, trained):
        # rows from one blob centre to the other, so noise moves those near the boundary
        x = np.outer(np.linspace(-1.0, 1.0, 40), [1.5, 1.0])
        labels = {seed: engine._noisy_labels(trained, x, 0.3, seed) for seed in (11, 12)}
        for seed, first in labels.items():
            assert np.array_equal(engine._noisy_labels(trained, x, 0.3, seed), first)
        assert not np.array_equal(labels[11], labels[12])

    def test_noise_seed_never_touches_model(self, blob_dataset):
        config = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01,
                             weight_decay=0.0, seed=7)
        m1, t1 = train(ModelSpec(2, (8,), 2), blob_dataset, config)
        evaluate(m1, (blob_dataset.x_test, blob_dataset.y_test), 0.5, 123)
        m2, t2 = train(ModelSpec(2, (8,), 2), blob_dataset, config)
        assert t1 == t2
        for l1, l2 in zip(m1.layers, m2.layers):
            if isinstance(l1, DenseLayer):
                assert np.array_equal(l1.w, l2.w)

    @pytest.mark.filterwarnings("error")
    def test_empty_split_rejected(self, trained):
        with pytest.raises(ValueError, match="empty split"):
            evaluate(trained, (np.zeros((0, 2)), np.zeros(0, dtype=int)))

    def test_negative_sigma_rejected(self, trained, blob_dataset):
        with pytest.raises(ValueError):
            evaluate(trained, (blob_dataset.x_test, blob_dataset.y_test), -0.1, 0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, trained, blob_dataset, sigma):
        x, y = blob_dataset.x_test, blob_dataset.y_test
        with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
            evaluate(trained, (x, y), sigma, 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows, y_shape", [(10, (1,)), (10, (10, 1)), (0, (1,)), (10, (3,))],
                             ids=["one_label", "column_labels", "empty_x_one_label",
                                  "too_few_labels"])
    def test_misaligned_labels_rejected_before_any_work(self, trained, monkeypatch,
                                                        rows, y_shape):
        def no_work(*args):
            raise AssertionError("the model ran before the labels were checked")

        monkeypatch.setattr(engine, "_logits", no_work)
        x = np.zeros((rows, 2))
        with pytest.raises(ValueError) as exc:
            evaluate(trained, (x, np.zeros(y_shape, dtype=int)), 0.5, 3)
        assert str(x.shape) in str(exc.value) and str(y_shape) in str(exc.value)


def _fill_free_lists() -> None:
    """Fill CPython's free lists of small tuples, floats, dicts and lists.

    Objects freed onto a free list stay live to tracemalloc.  Once the lists
    are full, what a traced call frees goes back to the allocator, so its
    peak counts only what the call holds at once.
    """
    parked = [tuple(range(k)) for k in range(1, 20) for _ in range(2000)]
    parked += [float(k) + 0.5 for k in range(1000)]
    parked += [{"k": k} for k in range(1000)] + [[k] for k in range(1000)]
    del parked


def noisy(x, sigma: float, seed: int) -> np.ndarray:
    """The evaluation-noise stream drawn for the whole array at once.

    ``evaluate`` and the noise sweep draw it one row block at a time; this
    oracle says what the concatenated blocks must be.
    """
    x = np.asarray(x, dtype=np.float64)
    if sigma == 0:
        return x
    return x + np.random.default_rng(seed).normal(0.0, sigma, size=x.shape)


class TestPredict:
    """predict and evaluate walk row blocks without a cache and give forward's answers."""

    @pytest.mark.parametrize("granularity, strategy", [
        ("layer_wise", "soft_relu"), ("global_shared", "random"),
        ("fixed", "identity"), ("layer_wise", "relu_baseline")])
    def test_matches_forward(self, small_dataset, desk_dataset, granularity, strategy):
        config = TrainConfig(epochs=1, seed=5, granularity=granularity,
                             init_strategy=strategy)
        spec = ModelSpec(784, (48, 24), 10)
        model, _ = train(spec, small_dataset, config)
        models = {"arcgate": model, "relu": tiny_model(spec=spec)}

        def reference(m, x, y, sigma, seed):
            logits, _ = forward(m, noisy(x, sigma, seed))
            return float(np.mean(np.argmax(logits, axis=1) == y))

        b = engine._INFER_ROWS
        for n in (1, b - 1, b, b + 1, 1000):
            x, y = desk_dataset.x_test[:n], desk_dataset.y_test[:n]
            for batch in (x, noisy(x, 0.4, 9)):
                logits, _ = forward(model, batch)
                assert engine._logits(model, batch).tobytes() == logits.tobytes()
                assert np.array_equal(engine.predict(model, batch), np.argmax(logits, axis=1))
            for sigma, seed in ((0.0, 0), (0.4, 9)):
                assert evaluate(model, (x, y), sigma, seed) == reference(model, x, y, sigma, seed)
            accuracies = {label: experiments._accuracies(m, (x, y), [0.0, 0.4], 3)
                          for label, m in models.items()}
            report = experiments._sweep_report(accuracies, [0.0, 0.4], 3, ("rows", n))
            assert [(r.model, r.sigma) for r in report.rows] == [
                (label, s) for s in (0.0, 0.4) for label in models]
            for row in report.rows:
                want = reference(models[row.model], x, y, row.sigma,
                                 report.noise_seeds[row.sigma])
                assert row.accuracy == want, (n, row)

    def test_overflowing_finite_weights_give_labels_without_a_warning(self):
        # finite weights that load_model accepts; the second dense product
        # overflows, to +inf in the third logit
        model = build_model(ModelSpec(4, (8,), 3), TrainConfig(seed=0),
                            np.random.default_rng(0))
        model.layers[0].b[...] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = engine.predict(model, np.zeros((3, 4)))
        assert labels.tolist() == [2, 2, 2]

    @pytest.mark.parametrize("n", [256, 1000])
    def test_row_blocks_match_the_whole_batch_on_the_desk_net(self, desk_dataset, n):
        model = tiny_model(spec=DESK_SPEC)
        x = desk_dataset.x_test[:n]
        blocks = [engine._logits(model, x[rows]) for rows in engine._row_blocks(n)]
        assert np.concatenate(blocks).tobytes() == engine._logits(model, x).tobytes()

    def test_peak_memory_does_not_grow_with_rows(self):
        model = tiny_model(spec=DESK_SPEC)
        rng = np.random.default_rng(1)

        def peaks(n: int) -> list[int]:
            x = rng.uniform(0.0, 1.0, (n, 784))
            y = rng.integers(0, 10, n)
            engine.predict(model, x[:1])                  # first-call allocations
            _fill_free_lists()
            found = []
            for call in (lambda: engine.predict(model, x),
                         lambda: evaluate(model, (x, y), 0.3, 5)):
                tracemalloc.start()
                try:
                    call()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                found.append(peak)
            return found

        small, large = peaks(500), peaks(4000)
        result_bytes = (4000 - 500) * np.dtype(np.intp).itemsize   # predict's n labels
        ints = 256      # a few live block offsets; Python caches only those up to 256
        for name, lo, hi in zip(("predict", "evaluate"), small, large):
            assert hi - lo <= result_bytes + ints, (name, lo, hi)


class TestStepMemory:
    """A training step holds one step's state, and only while an epoch's steps run."""

    def test_desk_training_peak_stays_under_six_and_a_half_arenas(self, desk_dataset):
        data = (desk_dataset.x_train[:640], desk_dataset.y_train[:640],
                desk_dataset.x_test[:200], desk_dataset.y_test[:200])
        config = TrainConfig(epochs=2, seed=3)
        train(DESK_SPEC, data, config)                 # first-call allocations
        _fill_free_lists()
        tracemalloc.start()
        try:
            model, _ = train(DESK_SPEC, data, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the model, AdamW's two moments, one epoch's gradient vector and one
        # step's arrays (5.53 arenas); 5.67 when AdamW's scratch vector lived
        # as long as its moments, 5.87 when each gate tape also held four
        # scratch arrays, 7.27 when preallocated step buffers outlived the
        # steps and every gate layer had a scratch set of its own
        assert peak < 6.5 * model.arena.values.nbytes, peak / model.arena.values.nbytes

    def test_a_wrong_width_is_rejected_before_the_input_is_written(self):
        model = tiny_model(spec=ModelSpec(6, (4,), 2))
        for wide in (idx.PixelRows(np.zeros((3, 7), dtype=np.uint8)), np.zeros((3, 7))):
            with pytest.raises(ValueError, match="does not match input width 6"):
                forward(model, wide)


class TestPixelRows:
    """idx.PixelRows train and infer as their float rows do; uint8 arrays are not rescaled."""

    def test_training_matches_float_rows(self, small_dataset, tmp_path):
        floats = idx.Dataset(*(np.asarray(a) for a in small_dataset))
        assert isinstance(small_dataset.x_train, idx.PixelRows)
        config = TrainConfig(epochs=2, seed=4)
        spec = ModelSpec(784, (32, 16), 10)
        saved = []
        for data in (small_dataset, floats):
            model, trace = train(spec, data, config)
            save_model(model, tmp_path / "m.agm1")
            saved.append(((tmp_path / "m.agm1").read_bytes(), trace,
                          engine.predict(model, data.x_test),
                          evaluate(model, (data.x_test, data.y_test), 0.3, 8)))
        assert saved[0][0] == saved[1][0]
        assert saved[0][1] == saved[1][1]
        assert np.array_equal(saved[0][2], saved[1][2])
        assert saved[0][3] == saved[1][3]

    @given(st.integers(0, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_uint8_arrays_are_the_numbers_0_to_255(self, n, seed):
        model = tiny_model(spec=ModelSpec(6, (8, 5), 3))
        u8 = np.random.default_rng(seed).integers(0, 256, (n, 6), dtype=np.uint8)
        floats = u8.astype(np.float64)
        assert engine._logits(model, u8).tobytes() == engine._logits(model, floats).tobytes()
        assert np.array_equal(engine.predict(model, u8), engine.predict(model, floats))
        assert np.array_equal(engine.predict(model, idx.PixelRows(u8)),
                              engine.predict(model, floats / 255.0))

    def test_desk_files_train_and_evaluate_below_one_float_split(self, tmp_path):
        paths = idx.synthesize_idx_files(tmp_path)
        _fill_free_lists()
        tracemalloc.start()
        try:
            x_train, y_train = idx.load_idx(paths["train_images"], paths["train_labels"])
            x_test, y_test = idx.load_idx(paths["test_images"], paths["test_labels"])
            model, _ = train(DESK_SPEC, (x_train, y_train, x_test, y_test),
                             TrainConfig(epochs=1, seed=2))
            evaluate(model, (x_test, y_test), 0.3, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        float_split = 5000 * 784 * np.dtype(np.float64).itemsize
        assert peak < float_split, peak / float_split


class TestPersistence:
    def test_round_trip_bitexact(self, tmp_path, blob_dataset):
        config = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01,
                             weight_decay=0.0, seed=9)
        model, _ = train(ModelSpec(2, (8, 6), 2), blob_dataset, config)
        path = tmp_path / "model.agm"
        save_model(model, path)
        back = load_model(path)
        x = blob_dataset.x_test
        a, _ = forward(model, x)
        b, _ = forward(back, x)
        assert np.array_equal(a, b)

    def test_global_shared_retied_on_load(self, tmp_path, blob_dataset):
        config = TrainConfig(epochs=2, batch_size=16, learning_rate=0.01,
                             weight_decay=0.0, seed=9, granularity="global_shared")
        model, _ = train(ModelSpec(2, (8, 6), 2), blob_dataset, config)
        path = tmp_path / "model.agm"
        save_model(model, path)
        back = load_model(path)
        acts = back.activation_layers()
        assert len({id(a.raw) for a in acts}) == 1

    def test_baseline_and_slope_survive(self, tmp_path):
        layers = [DenseLayer(np.eye(2), np.zeros(2)),
                  FixedActivation(zoo.ActivationKind("leaky_relu", 0.07)),
                  DenseLayer(np.eye(2), np.zeros(2))]
        path = tmp_path / "m.agm"
        save_model(MLPModel(layers), path)
        back = load_model(path)
        act = back.layers[1]
        assert act.kind.tag == "leaky_relu"
        assert act.kind.slope == 0.07

    def test_a_fixed_kind_other_than_leaky_stores_the_slope_0_01(self, tmp_path):
        # its slope means nothing, so the file holds the one slope the loader accepts
        layers = [DenseLayer(np.eye(2), np.zeros(2)),
                  FixedActivation(zoo.ActivationKind("relu", 0.5)),
                  DenseLayer(np.eye(2), np.zeros(2))]
        path, again = tmp_path / "m.agm", tmp_path / "again.agm"
        save_model(MLPModel(layers), path)
        back = load_model(path)
        assert back.layers[1].kind == zoo.ActivationKind("relu", 0.01)
        save_model(back, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("strategy, granularity", [
        ("soft_relu", "layer_wise"), ("identity", "fixed"), ("soft_relu", "global_shared"),
        ("relu_baseline", "layer_wise")])
    def test_load_holds_the_file_and_one_copy_of_the_weights(self, tmp_path, strategy,
                                                               granularity):
        path, again = tmp_path / "desk.agm", tmp_path / "again.agm"
        save_model(tiny_model(granularity=granularity, strategy=strategy, spec=DESK_SPEC), path)
        load_model(path)                                # first-call allocations
        _fill_free_lists()
        tracemalloc.start()
        try:
            back = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the file's bytes and the arena; 3.00 files when the dense weights were
        # copied out of the bytes before the arena copied them again
        size = path.stat().st_size
        assert peak < 2.2 * size, peak / size
        save_model(back, again)
        assert again.read_bytes() == path.read_bytes()
        for layer in back.layers:
            if isinstance(layer, DenseLayer):
                for array in (layer.w, layer.b):
                    assert array.flags.writeable
                    assert np.shares_memory(array, back.arena.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.agm"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(engine.ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("name", sorted(BAD_MODELS))
    def test_hand_made_bad_files_rejected(self, tmp_path, name):
        blob, message = BAD_MODELS[name]
        path = tmp_path / f"{name}.agm"
        path.write_bytes(blob)
        with pytest.raises(engine.ModelFormatError, match=re.escape(message)):
            load_model(path)

    def test_truncated_rejected(self, tmp_path, blob_dataset):
        config = TrainConfig(epochs=1, batch_size=16, learning_rate=0.01,
                             weight_decay=0.0, seed=9)
        model, _ = train(ModelSpec(2, (8,), 2), blob_dataset, config)
        path = tmp_path / "model.agm"
        save_model(model, path)
        whole = path.read_bytes()
        (tmp_path / "cut.agm").write_bytes(whole[:-9])
        with pytest.raises(engine.ModelFormatError):
            load_model(tmp_path / "cut.agm")
        (tmp_path / "pad.agm").write_bytes(whole + b"xx")
        with pytest.raises(engine.ModelFormatError):
            load_model(tmp_path / "pad.agm")


@st.composite
def agm1_models(draw) -> MLPModel:
    """A small model of random widths, one granularity, and per activation a gate or a
    random fixed activation."""
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    granularity = draw(st.sampled_from(engine.GRANULARITIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = core.random_raw(rng)
    layers: list = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        layers.append(DenseLayer(rng.normal(size=(fan_in, fan_out)), rng.normal(size=fan_out)))
        if i < len(widths) - 2:
            tag = draw(st.sampled_from((None, *zoo.KIND_TAGS)))
            if tag is None:
                raw = shared if granularity == "global_shared" else core.random_raw(rng)
                layers.append(GateLayer(raw, granularity))
            else:
                layers.append(FixedActivation(zoo.ActivationKind(
                    tag, draw(st.floats(0.001, 0.999)) if tag == "leaky_relu" else 0.01)))
    return MLPModel(layers)


class TestAGM1Properties:
    @given(agm1_models())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_keeps_bytes_and_predictions(self, model):
        x = np.random.default_rng(0).normal(0.0, 2.0, (16, model.layers[0].w.shape[0]))
        with tempfile.TemporaryDirectory() as td:
            first, second = Path(td, "first.agm"), Path(td, "second.agm")
            save_model(model, first)
            back = load_model(first)
            save_model(back, second)
            assert second.read_bytes() == first.read_bytes()
        assert np.array_equal(forward(back, x)[0], forward(model, x)[0])
        assert np.array_equal(engine.predict(back, x), engine.predict(model, x))

    @given(agm1_models())
    @settings(max_examples=15, deadline=None)
    def test_every_truncation_rejected(self, model):
        with tempfile.TemporaryDirectory() as td:
            path = Path(td, "model.agm")
            save_model(model, path)
            whole = path.read_bytes()
            for size in range(len(whole)):
                path.write_bytes(whole[:size])
                with pytest.raises(engine.ModelFormatError):
                    load_model(path)

    @given(agm1_models(), st.integers(0, 255))
    @settings(max_examples=25, deadline=None)
    def test_every_byte_mutation_loads_or_is_rejected(self, model, value):
        # a file that loads is in the one form save_model writes: it saves back to itself
        with tempfile.TemporaryDirectory() as td:
            path, again = Path(td, "model.agm"), Path(td, "again.agm")
            save_model(model, path)
            whole = path.read_bytes()
            for at in range(len(whole)):
                mutated = bytearray(whole)
                mutated[at] = value
                path.write_bytes(bytes(mutated))
                try:
                    back = load_model(path)
                except engine.ModelFormatError:
                    continue
                labels = engine.predict(back, np.zeros((3, back.in_dim)))
                assert labels.shape == (3,)
                save_model(back, again)
                assert again.read_bytes() == mutated


def test_parameter_count_traversal():
    spec = ModelSpec(3, (8, 5), 3)
    assert tiny_model(granularity="layer_wise", spec=spec) \
        .learnable_activation_parameter_count() == 14
    assert tiny_model(granularity="global_shared", spec=spec) \
        .learnable_activation_parameter_count() == 7
    assert tiny_model(granularity="fixed", spec=spec) \
        .learnable_activation_parameter_count() == 0
    assert tiny_model(strategy="relu_baseline", spec=spec) \
        .learnable_activation_parameter_count() == 0
