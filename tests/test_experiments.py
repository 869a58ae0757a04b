import csv
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from arcgate import core, engine, experiments, idx
from arcgate.engine import ModelSpec, TrainConfig
from arcgate.experiments import (granularity_ablation, init_ablation,
                                 layer_evolution_report, noise_sweep,
                                 sensitivity_curves, write_granularity_csv,
                                 write_init_csv, write_sweep_csv)

FAST = TrainConfig(epochs=2, learning_rate=1e-3, seed=0)
DATA = Path(__file__).with_name("data")


@pytest.fixture(scope="module")
def sweep_report(small_dataset):
    return noise_sweep(small_dataset, sigmas=(0.0, 0.2, 0.5), config=FAST, seed=4)


class TestNoiseSweep:
    def test_one_row_per_model_sigma_pair(self, sweep_report):
        keys = [(r.model, r.sigma) for r in sweep_report.rows]
        assert keys == [("arcgate", 0.0), ("relu", 0.0), ("arcgate", 0.2),
                        ("relu", 0.2), ("arcgate", 0.5), ("relu", 0.5)]
        assert all(0.0 <= r.accuracy <= 1.0 for r in sweep_report.rows)

    def test_gains_are_pairwise_differences(self, sweep_report):
        acc = {(r.model, r.sigma): r.accuracy for r in sweep_report.rows}
        for sigma, gain in sweep_report.gains:
            assert gain == acc[("arcgate", sigma)] - acc[("relu", sigma)]

    def test_sigma_zero_equals_clean_evaluate(self, small_dataset, sweep_report):
        # retrain the arcgate half exactly as the sweep does and compare
        from dataclasses import replace
        cfg = replace(FAST, seed=4, init_strategy="soft_relu", granularity="layer_wise")
        spec = experiments._spec_for(small_dataset)
        model, _ = engine.train(spec, small_dataset, cfg)
        clean = engine.evaluate(model, (small_dataset.x_test, small_dataset.y_test), 0.0, 0)
        arc0 = [r.accuracy for r in sweep_report.rows
                if r.model == "arcgate" and r.sigma == 0.0][0]
        assert arc0 == clean

    def test_unsorted_or_negative_sigmas_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            noise_sweep(small_dataset, sigmas=(0.5, 0.1), config=FAST, seed=1)
        with pytest.raises(ValueError):
            noise_sweep(small_dataset, sigmas=(-0.1, 0.5), config=FAST, seed=1)

    @pytest.mark.parametrize("sigmas", [(0.0, 0.1, math.nan), (0.0, math.inf)])
    def test_non_finite_sigmas_rejected(self, small_dataset, sigmas, monkeypatch):
        monkeypatch.setattr(experiments, "train", None)     # rejected before any training
        with pytest.raises(ValueError, match="finite and >= 0"):
            noise_sweep(small_dataset, sigmas=sigmas, config=FAST, seed=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_yields_partial_report(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 1.0, (64, 8)) * 1e300
        y = rng.integers(0, 2, 64)
        diverging = TrainConfig(epochs=1, batch_size=16, learning_rate=1e12, seed=0)
        report = noise_sweep((x, y, x, y), sigmas=(0.0,), config=diverging, seed=0)
        assert report.partial
        assert len(report.rows) < 2
        assert report.gains == []

    def test_csv_schema_and_byte_identity(self, sweep_report, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(sweep_report, p1)
        write_sweep_csv(sweep_report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1, newline="") as f:
            lines = f.read().splitlines()
        assert lines[0].startswith("# config_digest=")
        assert lines[1] == "model,sigma,accuracy,seed"
        assert len(lines) == 2 + len(sweep_report.rows)


@pytest.fixture(scope="module")
def init_rows(small_dataset):
    return init_ablation(small_dataset, FAST, seed=6)


class TestInitAblation:
    def test_exact_strategy_labels(self, init_rows):
        assert [r.strategy for r in init_rows] == ["relu_baseline", "identity",
                                                   "random", "soft_relu"]

    def test_accuracies_are_valid(self, init_rows):
        for row in init_rows:
            assert 0.0 <= row.test_accuracy <= 1.0

    def test_csv_schema(self, init_rows, tmp_path):
        path = tmp_path / "init.csv"
        write_init_csv(init_rows, path, FAST, seed=6)
        with open(path, newline="") as f:
            lines = f.read().splitlines()
        assert lines[1] == "strategy,test_accuracy,epochs,seed"
        assert len(lines) == 6


@pytest.fixture(scope="module")
def gran_rows(small_dataset):
    return granularity_ablation(small_dataset, FAST, seed=6)


class TestGranularityAblation:
    def test_counts_by_traversal(self, gran_rows):
        by = {r.granularity: r.learnable_activation_params for r in gran_rows}
        assert by == {"fixed": 0, "global_shared": 7, "layer_wise": 21}

    def test_csv_schema(self, gran_rows, tmp_path):
        path = tmp_path / "gran.csv"
        write_granularity_csv(gran_rows, path, FAST, seed=6)
        with open(path, newline="") as f:
            lines = f.read().splitlines()
        assert lines[1] == "granularity,learnable_activation_params,test_accuracy,seed"


# The saved files were written before the study runners shared trainings.
STUDY_SEED = 6
STUDIES = {
    "sweep": (lambda data: noise_sweep(data, sigmas=(0.0, 0.2, 0.5), config=FAST,
                                       seed=STUDY_SEED),
              write_sweep_csv),
    "init": (lambda data: init_ablation(data, FAST, seed=STUDY_SEED),
             lambda rows, path: write_init_csv(rows, path, FAST, STUDY_SEED)),
    "granularity": (lambda data: granularity_ablation(data, FAST, seed=STUDY_SEED),
                    lambda rows, path: write_granularity_csv(rows, path, FAST, STUDY_SEED)),
}


def saved_study(name):
    return (DATA / f"study_{name}_small_fast_seed{STUDY_SEED}.csv").read_bytes()


def written(name, result, tmp_path):
    path = tmp_path / f"{name}.csv"
    STUDIES[name][1](result, path)
    return path.read_bytes()


def count_trainings(monkeypatch):
    """Route the runners' ``train`` through a wrapper; returns the configs it saw."""
    configs = []

    def counting(spec, dataset, config):
        configs.append(config)
        return engine.train(spec, dataset, config)

    monkeypatch.setattr(experiments, "train", counting)
    return configs


@pytest.fixture(scope="module")
def fresh_trainings(small_dataset):
    """(init, granularity) -> (final test accuracy, parameter count), trained directly."""
    spec = experiments._spec_for(small_dataset)
    out = {}
    for init, granularity in [("relu_baseline", "layer_wise"), ("identity", "layer_wise"),
                              ("random", "layer_wise"), ("soft_relu", "layer_wise"),
                              ("soft_relu", "fixed"), ("soft_relu", "global_shared")]:
        cfg = replace(FAST, seed=STUDY_SEED, init_strategy=init, granularity=granularity)
        model, trace = engine.train(spec, small_dataset, cfg)
        out[init, granularity] = (trace[-1].test_acc,
                                  model.learnable_activation_parameter_count())
    return out


class TestSharedTrainings:
    # the sweep always trains its two models, because it evaluates them under
    # noise; an ablation trains only configurations no earlier runner trained
    @pytest.mark.parametrize("order, trainings", [(("sweep", "init", "granularity"), 6),
                                                  (("granularity", "init", "sweep"), 8),
                                                  (("sweep",), 2), (("init",), 4),
                                                  (("granularity",), 3)])
    def test_rows_match_a_fresh_training_and_saved_bytes(self, order, trainings,
                                                         small_dataset, fresh_trainings,
                                                         monkeypatch, tmp_path):
        experiments._summaries.clear()
        configs = count_trainings(monkeypatch)
        results = {name: STUDIES[name][0](small_dataset) for name in order}
        if "sweep" in results:
            clean = {r.model: r.accuracy for r in results["sweep"].rows if r.sigma == 0.0}
            assert clean == {"arcgate": fresh_trainings["soft_relu", "layer_wise"][0],
                             "relu": fresh_trainings["relu_baseline", "layer_wise"][0]}
        if "init" in results:
            for row in results["init"]:
                assert row.test_accuracy == fresh_trainings[row.strategy, "layer_wise"][0]
        if "granularity" in results:
            for row in results["granularity"]:
                acc, count = fresh_trainings["soft_relu", row.granularity]
                assert (row.test_accuracy, row.learnable_activation_params) == (acc, count)
        for name, result in results.items():
            assert written(name, result, tmp_path) == saved_study(name), name
        assert len(configs) == trainings

    def test_changed_pixel_forces_a_retrain(self, small_dataset, monkeypatch):
        pixels = small_dataset.x_train.pixels.copy()
        data = idx.Dataset(idx.PixelRows(pixels), *small_dataset[1:])
        experiments._summaries.clear()
        configs = count_trainings(monkeypatch)
        first = granularity_ablation(data, FAST, seed=STUDY_SEED)
        assert len(configs) == 3
        assert granularity_ablation(data, FAST, seed=STUDY_SEED) == first
        assert len(configs) == 3
        pixels[0, 0] = 255 - pixels[0, 0]
        granularity_ablation(data, FAST, seed=STUDY_SEED)
        assert len(configs) == 6

    def test_byte_and_float_splits_never_share_a_key(self, small_dataset, monkeypatch):
        def no_float_copy(*args, **kwargs):
            raise AssertionError("a whole split was converted to floats")

        _, y_train, x_test, y_test = small_dataset
        as_bytes = small_dataset.x_train.pixels
        variants = [small_dataset, (np.asarray(small_dataset.x_train), y_train, x_test, y_test),
                    (as_bytes, y_train, x_test, y_test)]
        keys = {experiments._dataset_digest(d) for d in variants}
        assert len(keys) == 3
        monkeypatch.setattr(idx.PixelRows, "__array__", no_float_copy)
        assert experiments._dataset_digest(small_dataset) in keys
        assert experiments._spec_for(small_dataset) == ModelSpec(784, n_classes=10)

    def test_a_byte_view_and_its_copy_share_a_key(self, small_dataset):
        view = small_dataset.x_train[5:400:3]
        assert np.shares_memory(view.pixels, small_dataset.x_train.pixels)
        copy = idx.PixelRows(np.ascontiguousarray(view.pixels))
        rest = small_dataset[1:]
        assert (experiments._dataset_digest((view, *rest))
                == experiments._dataset_digest((copy, *rest)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_configuration_still_gives_nan_rows(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 1.0, (64, 8)) * 1e300
        y = rng.integers(0, 2, 64)
        diverging = TrainConfig(epochs=1, batch_size=16, learning_rate=1e12, seed=0)
        experiments._summaries.clear()
        configs = count_trainings(monkeypatch)
        for _ in range(2):
            grans = granularity_ablation((x, y, x, y), diverging, seed=0)
            assert all(math.isnan(r.test_accuracy) and r.learnable_activation_params == -1
                       for r in grans)
            inits = init_ablation((x, y, x, y), diverging, seed=0)
            assert all(math.isnan(r.test_accuracy) for r in inits)
        # soft_relu/layer_wise is shared; the second round trains nothing
        assert len(configs) == 6

    def test_never_holds_more_than_its_cap(self, small_dataset, monkeypatch):
        model = engine.build_model(ModelSpec(2, (3,), 2), FAST, np.random.default_rng(0))
        configs = []

        def fake_train(spec, dataset, config):
            configs.append(config)
            return model, [engine.TraceRow(1, 0.0, 0.0, 0.5)]

        monkeypatch.setattr(experiments, "train", fake_train)
        experiments._summaries.clear()
        cap = experiments._SUMMARY_CAP
        last = cap // 4 + 2
        for seed in range(last + 1):
            init_ablation(small_dataset, FAST, seed=seed)
            assert len(experiments._summaries) <= cap
        assert len(experiments._summaries) == cap
        configs.clear()
        init_ablation(small_dataset, FAST, seed=last)      # newest: all recorded
        assert configs == []
        init_ablation(small_dataset, FAST, seed=0)         # oldest: evicted
        assert len(configs) == 4


@pytest.fixture(scope="module")
def study_round(small_dataset, tmp_path_factory):
    """One ``run_round`` at FAST on a clear record; returns it and the configs it trained."""
    experiments._summaries.clear()
    with pytest.MonkeyPatch.context() as mp:
        configs = count_trainings(mp)
        result = experiments.run_round(small_dataset, FAST, STUDY_SEED,
                                       tmp_path_factory.mktemp("round"))
    return result, configs


class TestRound:
    def test_one_training_per_configuration(self, study_round, fresh_trainings):
        result, configs = study_round
        assert len(configs) == 6
        assert {(c.init_strategy, c.granularity) for c in configs} == set(fresh_trainings)
        clean = {r.model: r.accuracy for r in result.sweep.rows if r.sigma == 0.0}
        assert clean == {"arcgate": fresh_trainings["soft_relu", "layer_wise"][0],
                         "relu": fresh_trainings["relu_baseline", "layer_wise"][0]}
        for row in result.init_rows:
            assert row.test_accuracy == fresh_trainings[row.strategy, "layer_wise"][0]
        for row in result.granularity_rows:
            assert ((row.test_accuracy, row.learnable_activation_params)
                    == fresh_trainings["soft_relu", row.granularity])
        assert result.paths["init_ablation"].read_bytes() == saved_study("init")
        assert result.paths["granularity_ablation"].read_bytes() == saved_study("granularity")

    def test_each_study_csv_is_its_runner_alone(self, study_round, small_dataset, tmp_path):
        result, _ = study_round
        alone = {
            "noise_sweep": lambda path: write_sweep_csv(
                noise_sweep(small_dataset, config=FAST, seed=STUDY_SEED), path),
            "init_ablation": lambda path: write_init_csv(
                init_ablation(small_dataset, FAST, STUDY_SEED), path, FAST, STUDY_SEED),
            "granularity_ablation": lambda path: write_granularity_csv(
                granularity_ablation(small_dataset, FAST, STUDY_SEED), path, FAST, STUDY_SEED),
        }
        for name, write in alone.items():
            experiments._summaries.clear()
            path = tmp_path / f"{name}.csv"
            write(path)
            assert path.read_bytes() == result.paths[name].read_bytes(), name
        for name, path in sensitivity_curves(tmp_path / "curves", seed=STUDY_SEED).items():
            assert path.read_bytes() == result.paths[name].read_bytes(), name
        assert len(result.paths) == 10
        assert sorted(p.name for p in result.paths["noise_sweep"].parent.iterdir()) \
            == sorted(p.name for p in result.paths.values())

    def test_layer_csv_is_the_report_of_a_fresh_training(self, study_round, small_dataset,
                                                         tmp_path):
        result, _ = study_round
        cfg = replace(FAST, seed=STUDY_SEED, init_strategy="soft_relu", granularity="layer_wise")
        model, _ = engine.train(experiments._spec_for(small_dataset), small_dataset, cfg)
        report = layer_evolution_report(model)
        experiments.write_layer_csv(report, tmp_path / "layers.csv")
        assert (tmp_path / "layers.csv").read_bytes() \
            == result.paths["layer_evolution"].read_bytes()
        assert result.layers == report

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_diverged_sweep_training_stops_before_the_layer_report(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 1.0, (64, 8)) * 1e300
        y = rng.integers(0, 2, 64)
        diverging = TrainConfig(epochs=1, batch_size=16, learning_rate=1e12, seed=0)
        with pytest.raises(RuntimeError, match="ArcGate training diverged"):
            experiments.run_round((x, y, x, y), diverging, 0, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["granularity_ablation.csv", "init_ablation.csv", "noise_sweep.csv"]


def _run_script(*args) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, root / "scripts" / "run_experiments.py", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_the_script_rejects_a_bad_config_before_it_builds_the_fixture(tmp_path):
    done = _run_script("--epochs", "0", "--out-dir", tmp_path / "out")
    assert done.returncode == 2
    assert done.stderr.endswith("error: epochs must be >= 1\n")
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert not (tmp_path / "out").exists()


def test_the_script_rejects_a_negative_seed_before_it_builds_the_fixture(tmp_path):
    done = _run_script("--seed", "-1", "--epochs", "1", "--out-dir", tmp_path / "out")
    assert done.returncode == 2
    assert done.stderr.endswith("error: seed must be >= 0\n")
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert not (tmp_path / "out").exists()


def test_desk_scale_ablation_beats_double_chance(desk_dataset):
    # pinned by development runs: every strategy clears 2x chance on the
    # 5k fixture within the default epoch budget
    rows = init_ablation(desk_dataset, TrainConfig(epochs=5), seed=1)
    for row in rows:
        assert row.test_accuracy > 2.0 / 10.0, row


class TestLayerReport:
    def test_untrained_rows_are_the_init_tuple(self):
        spec = ModelSpec(12, (8, 6, 4), 3)
        cfg = TrainConfig(seed=0, init_strategy="soft_relu", granularity="layer_wise")
        model = engine.build_model(spec, cfg, np.random.default_rng(0))
        report = layer_evolution_report(model)
        assert len(report.rows) == 3
        for i, row in enumerate(report.rows):
            assert row.layer_index == i
            assert (row.a, row.c, row.p, row.alpha, row.beta, row.gamma, row.delta) \
                == (5.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0)

    def test_rejects_non_layer_wise(self):
        spec = ModelSpec(12, (8,), 3)
        for kwargs in ({"granularity": "global_shared"},
                       {"init_strategy": "relu_baseline"}):
            cfg = TrainConfig(seed=0, **kwargs)
            model = engine.build_model(spec, cfg, np.random.default_rng(0))
            with pytest.raises(ValueError):
                layer_evolution_report(model)

    def test_csv_roundtrip(self, tmp_path):
        spec = ModelSpec(12, (8, 6), 3)
        cfg = TrainConfig(seed=0)
        model = engine.build_model(spec, cfg, np.random.default_rng(0))
        path = tmp_path / "layers.csv"
        experiments.write_layer_csv(layer_evolution_report(model), path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["layer_index", "a", "c", "p", "alpha", "beta", "gamma", "delta"]
        assert len(rows) == 3


@pytest.fixture(scope="module")
def curves_out(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("curves")
    return sensitivity_curves(out_dir, fit_budget=150, seed=0), out_dir


class TestSensitivityCurves:
    @staticmethod
    def read(path):
        with open(path, newline="") as f:
            rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
        header = rows[0]
        data = np.array([[float(v) for v in r] for r in rows[1:]])
        return header, data

    def test_six_files(self, curves_out):
        paths, _ = curves_out
        assert set(paths) == {"steepness", "sharpness", "shift", "mode",
                              "leak", "classics"}
        for p in paths.values():
            assert p.exists()

    def test_shift_is_grid_aligned_translation(self, curves_out):
        paths, _ = curves_out
        header, data = self.read(paths["shift"])
        assert header == ["x", "c=-2", "c=0", "c=2"]
        xs = data[:, 0]
        step = xs[1] - xs[0]
        k = round(2.0 / step)
        assert math.isclose(k * step, 2.0, rel_tol=1e-12)
        # curve at c=2 equals the c=0 curve shifted right by 2
        c0, c2 = data[:, 2], data[:, 3]
        assert np.max(np.abs(c2[k:] - c0[:-k])) < 1e-12

    def test_saturating_mode_bounded_in_unit_interval(self, curves_out):
        paths, _ = curves_out
        header, data = self.read(paths["mode"])
        sat = data[:, header.index("saturating")]
        assert np.all(sat > 0.0) and np.all(sat < 1.0)

    def test_steeper_curves_have_larger_max_slope(self, curves_out):
        paths, _ = curves_out
        header, data = self.read(paths["steepness"])
        xs = data[:, 0]
        slopes = [np.max(np.abs(np.diff(data[:, i + 1]) / np.diff(xs)))
                  for i in range(len(header) - 1)]
        assert slopes == sorted(slopes)

    def test_rerun_is_byte_identical(self, curves_out, tmp_path):
        paths, _ = curves_out
        again = sensitivity_curves(tmp_path, fit_budget=150, seed=0)
        for name, p in paths.items():
            assert p.read_bytes() == again[name].read_bytes(), name
