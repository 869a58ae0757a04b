import csv
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from arcgate import core, engine, experiments, idx
from arcgate.engine import ModelSpec, TrainConfig, evaluate
from arcgate.experiments import (DEFAULT_SIGMAS, granularity_ablation, init_ablation,
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

    def test_a_repeated_sigma_rejected(self, small_dataset, monkeypatch):
        # it would be drawn twice, from two noise seeds
        monkeypatch.setattr(experiments, "_run_jobs", None)     # rejected before any training
        with pytest.raises(ValueError, match="strictly increasing, finite and >= 0"):
            noise_sweep(small_dataset, sigmas=(0.0, 0.1, 0.1), config=FAST, seed=1)

    def test_a_negative_zero_sigma_rejected(self, small_dataset, monkeypatch):
        # -0.0 >= 0 holds, but its rows and digest would differ from those of 0
        monkeypatch.setattr(experiments, "_run_jobs", None)     # rejected before any training
        with pytest.raises(ValueError, match="finite and >= 0"):
            noise_sweep(small_dataset, sigmas=(-0.0, 0.1), config=FAST, seed=1)

    def test_an_empty_grid_rejected(self, small_dataset, monkeypatch):
        monkeypatch.setattr(experiments, "_run_jobs", None)     # rejected before any training
        with pytest.raises(ValueError, match="non-empty"):
            noise_sweep(small_dataset, sigmas=(), config=FAST, seed=1)

    @pytest.mark.parametrize("sigmas", [(0.0, 0.1, math.nan), (0.0, math.inf)])
    def test_non_finite_sigmas_rejected(self, small_dataset, sigmas, monkeypatch):
        monkeypatch.setattr(experiments, "_run_jobs", None)     # rejected before any training
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
    """Route the runners' training dispatch through a wrapper; returns the configs it got.

    The dispatch runs in this process, so it sees every training, also those
    that run in worker processes.
    """
    configs = []
    run_jobs = experiments._run_jobs

    def counting(jobs):
        configs.extend(config for _spec, _dataset, config, _sigmas in jobs)
        return run_jobs(jobs)

    monkeypatch.setattr(experiments, "_run_jobs", counting)
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
    # the sweep trains a model again unless its record was made for the same
    # noise grid, because it evaluates it under noise; an ablation trains only
    # configurations no earlier runner trained
    @pytest.mark.parametrize("order, trainings", [(("sweep", "init", "granularity"), 6),
                                                  (("granularity", "init", "sweep"), 8),
                                                  (("sweep",), 2), (("init",), 4),
                                                  (("granularity",), 3),
                                                  (("sweep", "sweep"), 2)])
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

    def test_a_sweep_over_another_grid_trains_both_models_again(self, small_dataset,
                                                                monkeypatch):
        experiments._summaries.clear()
        configs = count_trainings(monkeypatch)
        first = noise_sweep(small_dataset, sigmas=(0.0, 0.2, 0.5), config=FAST, seed=STUDY_SEED)
        other = noise_sweep(small_dataset, sigmas=(0.0, 0.1), config=FAST, seed=STUDY_SEED)
        assert len(configs) == 4 and configs[:2] == configs[2:]
        assert ([r for r in first.rows if r.sigma == 0.0]
                == [r for r in other.rows if r.sigma == 0.0])

    def test_a_record_holds_the_accuracies_of_a_fresh_training(self, small_dataset):
        experiments._summaries.clear()
        sigmas = (0.0, 0.2, 0.5)
        noise_sweep(small_dataset, sigmas=sigmas, config=FAST, seed=STUDY_SEED)
        spec = experiments._spec_for(small_dataset)
        digest = experiments._dataset_digest(small_dataset)
        for init in ("soft_relu", "relu_baseline"):
            cfg = replace(FAST, seed=STUDY_SEED, init_strategy=init, granularity="layer_wise")
            model, _ = engine.train(spec, small_dataset, cfg)
            record = experiments._summaries[experiments._summary_key(spec, cfg, digest)]
            assert record.sigmas == sigmas
            test = (small_dataset.x_test, small_dataset.y_test)
            assert record.accuracies == tuple(evaluate(model, test, s, STUDY_SEED * 1000 + i)
                                              for i, s in enumerate(sigmas))

    def test_a_record_scores_the_clean_test_split_only_in_training(self, small_dataset,
                                                                    monkeypatch):
        calls, in_train = [], []
        noisy_labels, train = engine._noisy_labels, experiments.train

        def spy(model, x, noise_sigma, seed):
            calls.append((noise_sigma, bool(in_train)))
            return noisy_labels(model, x, noise_sigma, seed)

        def spied_train(*args):
            in_train.append(True)
            try:
                return train(*args)
            finally:
                in_train.pop()

        monkeypatch.setattr(engine, "_noisy_labels", spy)
        monkeypatch.setattr(experiments, "train", spied_train)
        spec = experiments._spec_for(small_dataset)
        config = replace(FAST, seed=STUDY_SEED)
        record = experiments._train_summary(spec, small_dataset, config, DEFAULT_SIGMAS)
        assert calls == ([(0.0, True)] * FAST.epochs
                         + [(s, False) for s in DEFAULT_SIGMAS if s > 0])
        monkeypatch.undo()
        model, _ = engine.train(spec, small_dataset, config)
        test = (small_dataset.x_test, small_dataset.y_test)
        assert record.accuracies == tuple(evaluate(model, test, s, STUDY_SEED * 1000 + i)
                                          for i, s in enumerate(DEFAULT_SIGMAS))

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
        configs = []

        def fake_run_jobs(jobs):
            configs.extend(config for _spec, _dataset, config, _sigmas in jobs)
            return [experiments._Summary(0.5, 0, ())] * len(jobs)

        monkeypatch.setattr(experiments, "_run_jobs", fake_run_jobs)
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


def on_cores(monkeypatch, n):
    """Make the dispatch see ``n`` usable cores: at 1 a call's unrecorded
    trainings all run in one worker, at 2 in up to two workers."""
    monkeypatch.setattr(experiments, "_usable_cores", lambda: n)


class _StraySigmas:
    """No sigmas, which print to a worker's stdout as they are unpickled:
    through ``sys.stdout`` and straight into file descriptor 1."""

    def __reduce__(self):
        return eval, ("print('stray print', flush=True) "
                      "or __import__('os').write(1, b'stray write\\n') and ()",)


class _DroppedDataset:
    """``data``, which writes ``dataset dropped`` to file descriptor 2 when
    the worker that unpickled it frees it."""

    def __init__(self, data):
        self.data = tuple(data)

    def __reduce__(self):
        return eval, ("type('Dataset', (tuple,), {'__del__': lambda d: "
                      "__import__('os').write(2, b'dataset dropped\\n')})(data)",
                      {"data": self.data})


class TestStudyWorkers:
    def test_both_paths_give_the_same_rows_and_bytes(self, small_dataset, monkeypatch,
                                                     tmp_path):
        experiments._stop_workers()
        configs = count_trainings(monkeypatch)
        results = {}
        for cores, workers in ((1, 1), (2, 2)):
            on_cores(monkeypatch, cores)
            experiments._summaries.clear()
            configs.clear()
            results[cores] = {name: run(small_dataset) for name, (run, _) in STUDIES.items()}
            assert len(configs) == 6
            assert len(experiments._workers) == workers
        assert results[1] == results[2]
        for name in STUDIES:
            assert written(name, results[1][name], tmp_path) == saved_study(name), name
            assert written(name, results[2][name], tmp_path) == saved_study(name), name

    def test_more_jobs_than_workers_give_the_rows_of_a_fresh_training(
            self, small_dataset, fresh_trainings, monkeypatch, tmp_path):
        configs = count_trainings(monkeypatch)
        results = {}
        for cores in (1, 2):
            on_cores(monkeypatch, cores)
            for name, trainings in (("init", 4), ("granularity", 3)):
                experiments._summaries.clear()
                configs.clear()
                results[cores, name] = STUDIES[name][0](small_dataset)
                assert len(configs) == trainings
                assert written(name, results[cores, name], tmp_path) == saved_study(name), name
        assert results[1, "init"] == results[2, "init"]
        assert results[1, "granularity"] == results[2, "granularity"]
        for row in results[2, "init"]:
            assert row.test_accuracy == fresh_trainings[row.strategy, "layer_wise"][0]
        for row in results[2, "granularity"]:
            assert ((row.test_accuracy, row.learnable_activation_params)
                    == fresh_trainings["soft_relu", row.granularity])
        assert len(experiments._workers) == 2

    def test_datasets_that_alternate_on_live_workers_give_their_own_rows(
            self, small_dataset, monkeypatch, tmp_path):
        other = idx.synthesize_arrays(n_train=600, n_test=200, seed=78)
        spec = experiments._spec_for(small_dataset)
        on_cores(monkeypatch, 2)
        results, workers = [], []
        for data in (small_dataset, other, small_dataset):
            experiments._summaries.clear()
            rows = STUDIES["granularity"][0](data)
            results.append(rows)
            workers.append(list(experiments._workers))
            for row in rows:
                cfg = replace(FAST, seed=STUDY_SEED, init_strategy="soft_relu",
                              granularity=row.granularity)
                model, trace = engine.train(spec, data, cfg)
                assert ((row.test_accuracy, row.learnable_activation_params)
                        == (trace[-1].test_acc, model.learnable_activation_parameter_count()))
        assert workers[0] == workers[1] == workers[2] and len(workers[0]) == 2
        assert results[0] == results[2] != results[1]
        for rows in (results[0], results[2]):
            assert written("granularity", rows, tmp_path) == saved_study("granularity")

    def test_a_worker_drops_each_job_before_it_reads_the_next(self, small_dataset,
                                                             monkeypatch, capfd):
        experiments._stop_workers()             # a fresh worker writes to this test's stderr
        spec = experiments._spec_for(small_dataset)
        config = replace(FAST, seed=STUDY_SEED)
        on_cores(monkeypatch, 1)
        try:
            first, second = experiments._run_jobs(
                [(spec, _DroppedDataset(small_dataset), config, ()),
                 (spec, small_dataset, config, _StraySigmas())])
        finally:
            experiments._stop_workers()
        assert first == second
        err = capfd.readouterr().err
        assert err.count("dataset dropped") == 1
        assert err.index("dataset dropped") < err.index("stray print")

    def test_an_error_in_a_worker_reaches_the_caller(self, small_dataset, monkeypatch):
        y_train = small_dataset.y_train.copy()
        y_train[3] = -1
        data = (small_dataset.x_train, y_train, small_dataset.x_test, small_dataset.y_test)
        errors = []
        for cores in (1, 2):
            on_cores(monkeypatch, cores)
            with pytest.raises(ValueError, match="training label -1 at row 3 is outside") as info:
                init_ablation(data, FAST, seed=STUDY_SEED)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert len(experiments._workers) == 2       # an error is an answer; the workers live on

    def test_a_killed_worker_names_its_training_and_the_next_call_starts_afresh(
            self, small_dataset, monkeypatch):
        on_cores(monkeypatch, 2)
        experiments._summaries.clear()
        granularity_ablation(small_dataset, FAST, seed=STUDY_SEED)      # starts both workers
        victim = experiments._workers[0]
        long = replace(FAST, epochs=100)      # killed long before it ends
        killer = threading.Timer(0.5, victim.kill)
        killer.start()
        try:
            with pytest.raises(RuntimeError, match="a study worker died while training") as info:
                init_ablation(small_dataset, long, seed=STUDY_SEED)
        finally:
            killer.cancel()
        # the killed worker 0 holds job 0
        job = replace(long, seed=STUDY_SEED, init_strategy="relu_baseline")
        assert str(info.value) == f"a study worker died while training {job}"
        assert victim.returncode is not None and experiments._workers == []
        rows = granularity_ablation(small_dataset, FAST, seed=STUDY_SEED + 1)
        assert [r.learnable_activation_params for r in rows] == [0, 7, 21]
        assert len(experiments._workers) == 2 and victim not in experiments._workers

    def test_an_interrupt_while_talking_to_a_worker_stops_the_workers(self, small_dataset,
                                                                      monkeypatch):
        on_cores(monkeypatch, 2)
        interrupt = KeyboardInterrupt()
        talked_to = []

        def load(stream):            # the first answer is read only after both jobs went out
            talked_to.extend(experiments._workers)
            raise interrupt

        monkeypatch.setattr(experiments, "pickle", types.SimpleNamespace(
            load=load, dump=pickle.dump, UnpicklingError=pickle.UnpicklingError))
        spec = experiments._spec_for(small_dataset)
        with pytest.raises(KeyboardInterrupt) as info:
            experiments._run_jobs([(spec, small_dataset, FAST, ())] * 2)
        assert info.value is interrupt and info.value.__cause__ is None
        assert len(talked_to) == 2 and experiments._workers == []
        assert all(worker.returncode is not None for worker in talked_to)

    def test_a_warning_in_a_worker_is_issued_again_here(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 1.0, (64, 8)) * 1e300
        y = rng.integers(0, 2, 64)
        diverging = TrainConfig(epochs=1, batch_size=16, learning_rate=1e12, seed=0)
        for cores in (1, 2):
            on_cores(monkeypatch, cores)
            experiments._summaries.clear()
            with pytest.raises(RuntimeWarning):         # the suite turns warnings into errors
                granularity_ablation((x, y, x, y), diverging, seed=0)
        assert len(experiments._summaries) == 0
        with pytest.warns(RuntimeWarning):
            grans = granularity_ablation((x, y, x, y), diverging, seed=0)
        assert all(math.isnan(r.test_accuracy) for r in grans)

    def test_stray_output_in_a_worker_leaves_its_answers_whole(self, small_dataset,
                                                               monkeypatch, capfd):
        experiments._stop_workers()             # fresh workers write to this test's stderr
        spec = experiments._spec_for(small_dataset)
        configs = [replace(FAST, seed=STUDY_SEED, init_strategy=s)
                   for s in ("relu_baseline", "identity")]
        try:
            on_cores(monkeypatch, 2)
            got = experiments._run_jobs([(spec, small_dataset, c, _StraySigmas())
                                         for c in configs])
            on_cores(monkeypatch, 1)
            assert got == experiments._run_jobs([(spec, small_dataset, c, ()) for c in configs])
        finally:
            experiments._stop_workers()
        err = capfd.readouterr().err
        assert (err.count("stray print"), err.count("stray write")) == (2, 2)

    def test_jobs_and_answers_larger_than_a_pipe_cannot_hang_one_worker(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, (64, 8))
        y = rng.integers(0, 2, 64)
        sigmas = tuple(np.linspace(0.0, 1.0, 8192).tolist())
        assert len(pickle.dumps(sigmas, protocol=5)) > 1 << 16      # a Linux pipe holds 64 KiB
        on_cores(monkeypatch, 1)
        experiments._summaries.clear()

        def hung(*_):
            pytest.fail("the sweep's two jobs on one worker hung")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            report = noise_sweep((x, y, x[:2], y[:2]), sigmas, FAST, seed=0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not report.partial and len(report.rows) == 2 * len(sigmas)
        answers = [pickle.dumps(run, protocol=5) for run in experiments._summaries.values()]
        assert len(answers) == 2 and all(len(answer) > 1 << 16 for answer in answers)


def test_a_study_process_leaves_no_worker_running():
    code = ("from arcgate import experiments, idx\n"
            "from arcgate.engine import TrainConfig\n"
            "experiments._usable_cores = lambda: 2\n"
            "data = idx.synthesize_arrays(n_train=600, n_test=200, seed=77)\n"
            "experiments.init_ablation(data, TrainConfig(epochs=2, learning_rate=1e-3), seed=6)\n"
            "print(*[worker.pid for worker in experiments._workers])\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


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
        rows = layer_evolution_report(model)
        experiments.write_layer_csv(rows, tmp_path / "layers.csv")
        assert (tmp_path / "layers.csv").read_bytes() \
            == result.paths["layer_evolution"].read_bytes()
        assert result.layers == rows

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


ROOT = Path(__file__).resolve().parents[1]


def _child_env() -> dict[str, str]:
    """This environment, with this checkout's ``src`` first on the import path."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def _run_script(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, ROOT / "scripts" / "run_experiments.py", *args],
                          capture_output=True, text=True, env=_child_env(), timeout=60)


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


def _serve_pids() -> set[int]:
    """Process ids of the running study workers, read from ``/proc`` (Linux)."""
    pids = set()
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if b"experiments._serve()" in cmdline.read_bytes():
                pids.add(int(cmdline.parent.name))
        except OSError:         # the process ended while it was read
            pass
    return pids


def test_the_script_writes_every_table_and_chart_and_stops_its_workers(tmp_path):
    before = _serve_pids()
    done = _run_script("--epochs", "1", "--out-dir", tmp_path)
    assert done.returncode == 0, done.stderr
    tables = {"noise_sweep", "init_ablation", "granularity_ablation", "layer_evolution",
              *(f"sensitivity_{name}" for name in ("steepness", "sharpness", "shift", "mode",
                                                    "leak", "classics"))}
    charts = {"steepness", "sharpness", "shift", "mode", "leak", "classics", "noise_sweep"}
    assert {p.name for p in tmp_path.iterdir()} == ({f"{t}.csv" for t in tables}
                                                    | {f"{c}.svg" for c in charts})
    assert done.stdout.endswith(f"-> {tmp_path}/\n")
    assert not _serve_pids() - before


def _make_dataset(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, ROOT / "scripts" / "make_dataset.py", *args],
                          capture_output=True, text=True, env=_child_env(), timeout=60)


def test_the_dataset_script_writes_the_fixture_files(tmp_path):
    done = _make_dataset("--out-dir", tmp_path / "script")
    assert done.returncode == 0, done.stderr
    paths = idx.synthesize_idx_files(tmp_path / "library")
    assert done.stdout == "".join(f"{name}: {tmp_path / 'script' / path.name}\n"
                                  for name, path in paths.items())
    for path in paths.values():
        assert (tmp_path / "script" / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("flag, value, name", [("--n-train", "-5", "n_train"),
                                               ("--n-test", "-1", "n_test"),
                                               ("--seed", "-1", "seed")])
def test_the_dataset_script_rejects_a_negative_count_or_seed(tmp_path, flag, value, name):
    done = _make_dataset("--out-dir", tmp_path / "out", flag, value)
    assert done.returncode == 2
    assert done.stderr.endswith(f"error: {name} must be >= 0, got {value}\n")
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
        rows = layer_evolution_report(model)
        assert len(rows) == 3
        for i, row in enumerate(rows):
            assert row.layer_index == i
            assert (row.a, row.c, row.p, row.alpha, row.beta, row.gamma, row.delta) \
                == (5.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0)

    def test_rejects_non_layer_wise(self):
        spec = ModelSpec(12, (8,), 3)
        for kwargs, message in (({"granularity": "global_shared"}, "requires a layer_wise"),
                                ({"init_strategy": "relu_baseline"}, "has no gate layers")):
            cfg = TrainConfig(seed=0, **kwargs)
            model = engine.build_model(spec, cfg, np.random.default_rng(0))
            with pytest.raises(ValueError, match=message):
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
