import hashlib
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agm1_files import BAD_MODELS
from arcgate import core, engine, experiments, idx, zoo
from arcgate.engine import (ActivationLayer, AdamState, Arena, DenseLayer, MLPModel,
                            ModelSpec, Slot, StepBuffers, TrainConfig, adamw_step,
                            backward, build_model, evaluate, forward, load_model,
                            save_model, softmax_cross_entropy, train)
from train_oracle import per_slot_adamw_step

DESK_SPEC = ModelSpec(784, (256, 128, 64), 10)


def tiny_model(seed=11, granularity="layer_wise", strategy="soft_relu",
               spec=ModelSpec(3, (8, 5), 3)):
    cfg = TrainConfig(seed=seed, granularity=granularity, init_strategy=strategy)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return build_model(spec, cfg, rng)


class TestForward:
    def test_identity_network_passes_batch_through(self):
        layers = [DenseLayer(np.eye(4), np.zeros(4)),
                  ActivationLayer(core.preset("identity").raw_vector()),
                  DenseLayer(np.eye(4), np.zeros(4))]
        model = MLPModel(layers)
        batch = np.random.default_rng(0).normal(0, 1, (6, 4))
        logits, _ = forward(model, batch)
        assert np.array_equal(logits, batch)

    def test_zero_weights_pass_gated_biases_through(self):
        bias = np.array([0.0, 1.0, -2.0])
        layers = [DenseLayer(np.zeros((2, 3)), bias),
                  ActivationLayer(core.preset("soft_relu_init").raw_vector()),
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
        import subprocess
        import sys
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


class TestModelStructure:
    @pytest.mark.parametrize("layers, message", [
        ([], "no dense layer"),
        ([ActivationLayer(core.preset("identity").raw_vector())], "no dense layer"),
        ([DenseLayer(np.eye(2), np.zeros(2)),
          ActivationLayer(core.preset("identity").raw_vector())], "final layer must be dense"),
        ([ActivationLayer(core.preset("identity").raw_vector()),
          DenseLayer(np.eye(2), np.zeros(2))], "gate layer 0 does not follow"),
        ([DenseLayer(np.eye(2), np.zeros(2)),
          ActivationLayer(core.preset("identity").raw_vector()),
          ActivationLayer(core.preset("identity").raw_vector()),
          DenseLayer(np.eye(2), np.zeros(2))], "gate layer 2 does not follow"),
        ([DenseLayer(np.eye(2), np.zeros(2)), DenseLayer(np.eye(3), np.zeros(3))],
         "does not match previous output width"),
    ])
    def test_rejected_when_built(self, layers, message):
        with pytest.raises(ValueError, match=message):
            MLPModel(layers)

    @pytest.mark.parametrize("granularity", engine.GRANULARITIES)
    def test_trainables_are_views_into_one_arena(self, granularity):
        model = tiny_model(granularity=granularity)
        arena = model.arena
        for slot in model.trainables():
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
        assert arena.size == sum(s.array.size for s in model.trainables())


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

        for slot, g in zip(model.trainables(), grads):
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
        assert all("act" not in s.label for s in model.trainables())
        x = np.random.default_rng(2).normal(0, 1, (4, 3))
        logits, cache = forward(model, x)
        _, gl = softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
        grads = backward(model, cache, gl)
        assert len(grads) == len(model.trainables())  # dense w/b only

    def test_global_shared_accumulates_across_layers(self):
        model = tiny_model(granularity="global_shared")
        acts = model.activation_layers()
        assert len({id(a.raw) for a in acts}) == 1
        slots = model.trainables()
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
        slots2 = twin.trainables()
        acc = sum(grads2[i] for i, s in enumerate(slots2) if "act" in s.label)
        assert np.allclose(shared_grad, acc, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("granularity, strategy", [
        ("layer_wise", "soft_relu"), ("global_shared", "random"),
        ("fixed", "identity"), ("layer_wise", "relu_baseline")])
    def test_buffered_step_matches_allocating(self, granularity, strategy):
        model = tiny_model(granularity=granularity, strategy=strategy)
        full = StepBuffers(model, 6)
        rng = np.random.default_rng(3)
        for buffers in (full, full.rows(4), full):
            x = rng.normal(0, 1, (buffers.n_rows, 3))
            y = rng.integers(0, 3, buffers.n_rows)
            logits, cache = forward(model, x)
            got_logits, got_cache = forward(model, x, buffers)
            assert np.array_equal(got_logits, logits)
            _, gl = softmax_cross_entropy(logits, y)
            grads = backward(model, cache, gl)
            got = backward(model, got_cache, gl, buffers)
            assert all(np.shares_memory(g, buffers.grad) for g in got)
            for a, b in zip(got, grads):
                assert np.array_equal(a, b)

    def test_stale_cache_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            backward(model, [None] * 3, np.zeros((2, 3)))


class TestAdamW:
    def test_zero_grad_zero_decay_is_noop(self):
        arena = Arena([Slot(np.array([2.5]), True, "w")])
        state = AdamState.init_like(arena)
        adamw_step(arena, np.array([0.0]), state, lr=0.1, weight_decay=0.0, step=1)
        assert arena.slots[0].array[0] == 2.5

    def test_first_step_magnitude(self):
        arena = Arena([Slot(np.array([0.0]), False, "w")])
        state = AdamState.init_like(arena)
        adamw_step(arena, np.array([1.0]), state, lr=0.1, weight_decay=0.0, step=1)
        assert arena.slots[0].array[0] == pytest.approx(-0.1, rel=1e-7)

    def test_decoupled_decay(self):
        arena = Arena([Slot(np.array([1.0]), True, "w")])
        state = AdamState.init_like(arena)
        adamw_step(arena, np.array([0.0]), state, lr=0.1, weight_decay=0.01, step=1)
        assert arena.slots[0].array[0] == pytest.approx(0.999, rel=1e-14)

    def test_decay_skips_exempt_slots(self):
        arena = Arena([Slot(np.array([1.0]), False, "b")])
        state = AdamState.init_like(arena)
        adamw_step(arena, np.array([0.0]), state, lr=0.1, weight_decay=0.01, step=1)
        assert arena.slots[0].array[0] == 1.0

    def test_non_finite_gradient_aborts(self):
        arena = Arena([Slot(np.array([1.0]), True, "w")])
        state = AdamState.init_like(arena)
        with pytest.raises(engine.NonFiniteGradientError):
            adamw_step(arena, np.array([math.nan]), state, lr=0.1,
                       weight_decay=0.0, step=1)


def _gradient_bank(size, seed):
    """Three gradient vectors whose entries span many magnitudes and both signs."""
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, 1.0, size) * 10.0 ** rng.uniform(-9.0, 2.0, size)
            for _ in range(3)]


class TestArenaAdamW:
    """The arena AdamW against the per-slot loop it replaced, bit for bit."""

    STEPS = 200

    def run_both(self, model, weight_decay, lr=1e-3):
        arena = model.arena
        oracle = [Slot(s.array.copy(), s.decay, s.label) for s in arena.slots]
        m_ref = [np.zeros_like(s.array) for s in oracle]
        v_ref = [np.zeros_like(s.array) for s in oracle]
        state = AdamState.init_like(arena)
        bank = _gradient_bank(arena.size, seed=arena.size)
        for step in range(1, self.STEPS + 1):
            grad = bank[step % 3]
            adamw_step(arena, grad, state, lr, weight_decay, step)
            per_slot_adamw_step(oracle, arena.views(grad), m_ref, v_ref, lr,
                                weight_decay, step)
        for slot, ref, m, v, got_m, got_v in zip(arena.slots, oracle, m_ref, v_ref,
                                                 arena.views(state.m), arena.views(state.v)):
            assert slot.array.tobytes() == ref.array.tobytes(), slot.label
            assert got_m.tobytes() == m.tobytes() and got_v.tobytes() == v.tobytes()

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
        state = AdamState.init_like(model.arena)
        for k, slot in enumerate(model.trainables()):
            for bad in (math.nan, math.inf, -math.inf):
                grad = np.ones(model.arena.size)
                model.arena.views(grad)[k].flat[-1] = bad
                with pytest.raises(engine.NonFiniteGradientError,
                                   match=rf"non-finite gradient for {slot.label} at step 3"):
                    adamw_step(model.arena, grad, state, 0.1, 0.01, 3)
        assert model.arena.values.tobytes() == before.tobytes()
        assert not state.m.any() and not state.v.any()


    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_overflowing_finite_gradient_is_not_rejected(self):
        model = tiny_model()
        oracle = [Slot(s.array.copy(), s.decay, s.label) for s in model.arena.slots]
        m_ref = [np.zeros_like(s.array) for s in oracle]
        v_ref = [np.zeros_like(s.array) for s in oracle]
        grad = np.full(model.arena.size, 1e308)
        state = AdamState.init_like(model.arena)
        adamw_step(model.arena, grad, state, 1e-3, 1e-2, 1)
        per_slot_adamw_step(oracle, model.arena.views(grad), m_ref, v_ref, 1e-3, 1e-2, 1)
        for slot, ref in zip(model.arena.slots, oracle):
            assert slot.array.tobytes() == ref.array.tobytes()


# SHA-256 of the AGM1 file and the per-epoch train losses of each training
# below, recorded with the per-slot optimizer and allocating kernel that the
# arena engine replaced.  Training must keep reproducing them exactly.
SAVED_ONE_EPOCH = {
    ("soft_relu", "fixed"): ("af8d4db3056280510ec7f325303046d79793ee4e4138be533b5cdb3d589b4af9",
                             (2.3955166263817125,)),
    ("soft_relu", "global_shared"): ("382ca00f9419d0ff88627fe763185ca6c7c88d0238a00186e074b668530fb998",
                                     (2.394819436760662,)),
    ("soft_relu", "layer_wise"): ("a5d343d45f96ad1e7b8c48a72ab05c3afe8a9bebe8583ddc9a229d69b239dd7e",
                                  (2.3948151428658253,)),
    ("identity", "fixed"): ("121276d8463c421216b247b2e45dd40ba3d6341ed50ea747c37dca4bbdd1334d",
                            (2.677546286470112,)),
    ("identity", "global_shared"): ("4596effdf31f45e54fad305993d66749eeed8954d47f66ab07794e32e6e96fd7",
                                    (2.6768658323823447,)),
    ("identity", "layer_wise"): ("57b3599cb966a186429c97a88c4f4e0f391cc71d5f1a821a415112c4daca874e",
                                 (2.6769105698508247,)),
    ("random", "fixed"): ("0196cd8e9fa452b7fef42ce132b87044c09a5db36cbfdbe4947aaa3e175cd9c7",
                          (2.5187876965871814,)),
    ("random", "global_shared"): ("848041166c304849cb59a0ac6061f4fd42ddb010560cb296f825ea4bce569739",
                                  (2.2844846972859263,)),
    ("random", "layer_wise"): ("2e9b9dfce2a282f81f2a1d666f9ce3bbf8d8035841f134971e6f51c55b1a6e14",
                               (2.518478912119206,)),
    ("relu_baseline", "fixed"): ("4c809e2e53a98994f7afa4a34739b1edbdd95af389c20f0ea3b69a5957f3df58",
                                 (2.4304991557264453,)),
    ("relu_baseline", "global_shared"): ("4c809e2e53a98994f7afa4a34739b1edbdd95af389c20f0ea3b69a5957f3df58",
                                         (2.4304991557264453,)),
    ("relu_baseline", "layer_wise"): ("4c809e2e53a98994f7afa4a34739b1edbdd95af389c20f0ea3b69a5957f3df58",
                                      (2.4304991557264453,)),
}

# 600 rows with batch 64 end on a short batch of 24 rows.
SAVED_TWO_EPOCHS_SHORT_BATCH = {
    ("soft_relu", "layer_wise"): ("9ad61c9930bdcf89ee08e89e9c4bc4ee5d118050825c9b0e21334858223d9678",
                                  (2.3876397539645304, 2.2739782650258036)),
    ("random", "global_shared"): ("21674ccac5b5ff138203e00938a4392d95486c2611512f6ec9c1ff03e3516238",
                                  (2.368863904839777, 2.284296388052243)),
    ("identity", "fixed"): ("63addadb3f5dd0984955b7b2b01e0a1b48266d744184c8e3eb73068aa9ccd532",
                            (2.9275313501061064, 2.5479365836750496)),
    ("relu_baseline", "layer_wise"): ("5285dc757be21ad5189af8a05e23d81f8754a5fb8eed35ea283af792537fd147",
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
        init_raw = core.preset("soft_relu_init").raw_vector()
        for act in model.activation_layers():
            assert act.baseline is not None and act.baseline.tag == "relu"
            assert np.array_equal(act.raw, init_raw)

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

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=seed)

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
                     lambda labels: engine._correct_counts([trained], x, labels, 0.3, 1)):
            with pytest.raises(ValueError, match="integer dtype, got float64"):
                call(y + 0.7)

    def test_int_lists_and_idx_labels_still_work(self, trained, blob_dataset):
        x, y = blob_dataset.x_test, blob_dataset.y_test
        want = evaluate(trained, (x, y))
        assert evaluate(trained, (x, [int(v) for v in y])) == want
        assert evaluate(trained, (x, y.astype(np.uint8))) == want

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

    def test_seeded_noise_reproducible(self, trained, blob_dataset):
        test = (blob_dataset.x_test, blob_dataset.y_test)
        assert evaluate(trained, test, 0.3, 11) == evaluate(trained, test, 0.3, 11)
        assert evaluate(trained, test, 0.3, 11) != evaluate(trained, test, 0.3, 12) \
            or True  # different seeds may coincide on accuracy; no assertion either way

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

    @pytest.mark.parametrize("sigma, seed", [(0.3, 11), (1e-9, 0), (5.0, 2024)])
    def test_noise_bits_are_x_plus_the_draw(self, small_dataset, sigma, seed):
        x = small_dataset.x_test
        want = x + np.random.default_rng(seed).normal(0.0, sigma, size=x.shape)
        got = engine.add_noise(x, sigma, seed)
        assert got.tobytes() == want.tobytes()
        assert got is not x and not np.shares_memory(got, x)


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
        models = {"arcgate": (model, None), "relu": (tiny_model(spec=spec), None)}

        def reference(m, x, y, sigma, seed):
            logits, _ = forward(m, engine.add_noise(x, sigma, seed))
            return float(np.mean(np.argmax(logits, axis=1) == y))

        b = engine._INFER_ROWS
        for n in (1, b - 1, b, b + 1, 1000):
            x, y = desk_dataset.x_test[:n], desk_dataset.y_test[:n]
            for batch in (x, engine.add_noise(x, 0.4, 9)):
                logits, _ = forward(model, batch)
                assert engine._logits(model, batch).tobytes() == logits.tobytes()
                assert np.array_equal(engine.predict(model, batch), np.argmax(logits, axis=1))
            for sigma, seed in ((0.0, 0), (0.4, 9)):
                assert evaluate(model, (x, y), sigma, seed) == reference(model, x, y, sigma, seed)
            report = experiments._sweep_report(models, x, y, [0.0, 0.4], 3, ("rows", n))
            assert [(r.model, r.sigma) for r in report.rows] == [
                (label, s) for s in (0.0, 0.4) for label in models]
            for row in report.rows:
                want = reference(models[row.model][0], x, y, row.sigma,
                                 report.noise_seeds[row.sigma])
                assert row.accuracy == want, (n, row)

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
        # the model, AdamW's two moments and one epoch's step buffers; 7.27
        # arenas when the buffers outlived the steps and every gate layer
        # had a scratch set of its own
        assert peak < 6.5 * model.arena.values.nbytes, peak / model.arena.values.nbytes

    @pytest.mark.parametrize("granularity, strategy", [
        ("layer_wise", "soft_relu"), ("global_shared", "random"), ("fixed", "identity")])
    def test_gate_layers_share_one_scratch_set(self, granularity, strategy):
        model = tiny_model(granularity=granularity, strategy=strategy,
                           spec=ModelSpec(5, (8, 16, 4), 3))
        full = StepBuffers(model, 6)
        for buffers in (full, full.rows(4)):
            gates = [b for b in buffers.gates if b is not None]
            assert [b.shape for b in gates] == [(buffers.n_rows, w) for w in (8, 16, 4)]
            for j in range(4):
                one = gates[0].scratch[j].base
                assert one is not None and one.size == 6 * 16     # the widest layer's rows
                assert all(b.scratch[j].base is one for b in gates)
                assert not any(np.shares_memory(one, gates[0].scratch[i]) for i in range(j))
            assert all(np.shares_memory(b.t, b.scratch[1]) for b in gates)

    def test_buffered_input_batch_is_the_float_rows(self, small_dataset):
        model = tiny_model(spec=ModelSpec(784, (8,), 10))
        full = StepBuffers(model, 64)
        for k in (64, 24, 1):
            batch = small_dataset.x_train[np.arange(k) * 7]
            assert isinstance(batch, idx.PixelRows)
            buffers = full if k == 64 else full.rows(k)
            logits, cache = forward(model, batch, buffers)
            assert cache[0] is not None and np.shares_memory(cache[0], full.x)
            assert cache[0].tobytes() == np.asarray(batch).tobytes()
            assert logits.tobytes() == forward(model, np.asarray(batch))[0].tobytes()

    def test_a_wrong_width_is_rejected_before_the_input_is_written(self):
        model = tiny_model(spec=ModelSpec(6, (4,), 2))
        buffers = StepBuffers(model, 3)
        buffers.x[...] = 0.5
        wide = idx.PixelRows(np.zeros((3, 7), dtype=np.uint8))
        with pytest.raises(ValueError, match="does not match input width 6"):
            forward(model, wide, buffers)
        assert np.all(buffers.x == 0.5)


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
                  ActivationLayer(core.preset("soft_relu_init").raw_vector(),
                                  "fixed", zoo.ActivationKind("leaky_relu", 0.07)),
                  DenseLayer(np.eye(2), np.zeros(2))]
        path = tmp_path / "m.agm"
        save_model(MLPModel(layers), path)
        back = load_model(path)
        act = back.activation_layers()[0]
        assert act.baseline.tag == "leaky_relu"
        assert act.baseline.slope == 0.07

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
    """A small model of random widths, one granularity and a random baseline per gate."""
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    granularity = draw(st.sampled_from(engine.GRANULARITIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = core.random_raw(rng)
    layers: list = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        layers.append(DenseLayer(rng.normal(size=(fan_in, fan_out)), rng.normal(size=fan_out)))
        if i < len(widths) - 2:
            tag = draw(st.sampled_from((None, *zoo.KIND_TAGS)))
            baseline = None if tag is None else zoo.ActivationKind(
                tag, draw(st.floats(0.001, 0.999)) if tag == "leaky_relu" else 0.01)
            raw = shared if granularity == "global_shared" else core.random_raw(rng)
            layers.append(ActivationLayer(raw, granularity, baseline))
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
        with tempfile.TemporaryDirectory() as td:
            path = Path(td, "model.agm")
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
