import contextlib
import csv
import dataclasses
import io
import math
import os
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agm1_files import BAD_MODELS, agm1, dense, gate
from arcgate import cli, core, engine, idx

DATA = Path(__file__).with_name("data")

@pytest.fixture(scope="module")
def idx_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("idxdata")
    return idx.synthesize_idx_files(d, n_train=300, n_test=120, seed=13)


def run_cli(*args):
    return cli.run([str(a) for a in args])


@pytest.mark.parametrize("sub", ["gradcheck", "fit", "train", "sweep",
                                 "ablate", "report", "plot"])
def test_help_exits_zero(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(sub, "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--" in out or sub == "ablate"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


def test_gradcheck_passes():
    assert run_cli("gradcheck", "--samples", 50, "--seed", 1) == 0


@pytest.mark.parametrize("samples", [0, -1])
def test_gradcheck_without_draws_fails(samples, capsys):
    assert run_cli("gradcheck", "--samples", samples) == 1
    err = capsys.readouterr().err
    assert err == f"error: samples must be >= 1, got {samples}\n"


@pytest.mark.parametrize("seed", [18, 1456708897])
def test_gradcheck_passes_on_steep_draws(seed):
    # each seed has a draw (a near 35, x near c) where a plain central
    # difference at the default step misses the analytic partial by > 1e-5
    assert run_cli("gradcheck", "--seed", seed) == 0


def test_gradcheck_catches_a_wrong_partial(monkeypatch):
    exact = core.grad

    def skewed(x, params):
        g = exact(x, params)
        return dataclasses.replace(g, d_a=g.d_a * (1.0 + 1e-4))

    monkeypatch.setattr(core, "grad", skewed)
    assert run_cli("gradcheck", "--samples", 50, "--seed", 1) == 1


@pytest.mark.parametrize("seed", [0, 1, 18])
def test_gradcheck_stderr_matches_saved_bytes(seed, capsys):
    # written by `arcgate gradcheck --seed S` when both suites still lived in the CLI
    assert run_cli("gradcheck", "--seed", seed) == 0
    want = (DATA / f"gradcheck_seed{seed}.stderr").read_bytes()
    assert capsys.readouterr().err.encode() == want


@pytest.mark.parametrize("tol", ["-1", "0", "-0.0", "1e-400", "nan", "inf", "-inf"])
def test_gradcheck_rejects_a_tolerance_that_checks_nothing(tol, capsys, monkeypatch):
    monkeypatch.setattr(core, "gate_gradcheck", None)      # rejected before any draw
    monkeypatch.setattr(engine, "net_gradcheck", None)
    with pytest.raises(SystemExit) as exc:
        run_cli("gradcheck", f"--tol={tol}")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --tol: tolerance must be finite and > 0, got '{tol}'" in err


@pytest.mark.parametrize("argv", [
    ["gradcheck"], ["fit", "--target", "relu"], ["sweep", "--full"], ["ablate", "init"],
    ["train", "--images", "i", "--labels", "l", "--test-images", "t", "--test-labels", "u"]],
    ids=lambda argv: argv[0])
def test_a_negative_seed_is_a_usage_error(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", tmp_path / "out", "--seed", -1)
    assert exc.value.code == 2
    assert "error: argument --seed: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ("seed=-2", "bad value for seed: seed must be >= 0, got -2"),
    ("tol=0", "bad value for tol: tolerance must be finite and > 0, got '0'")])
def test_a_config_file_seed_and_tolerance_are_checked(tmp_path, capsys, line, message):
    cfg = tmp_path / "c.txt"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", cfg, "gradcheck")
    assert exc.value.code == 2
    assert f"error: {cfg}:1: {message}" in capsys.readouterr().err


def test_fit_identity_writes_csv(tmp_path):
    out = tmp_path / "fit.csv"
    assert run_cli("fit", "--target", "identity", "--budget", 300,
                   "--out", out) == 0
    with open(out, newline="") as f:
        rows = [row for row in csv.reader(f) if not row[0].startswith("#")]
    assert rows[1][0] == "identity"
    assert float(rows[1][9]) <= 1e-6


def test_fit_is_idempotent(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("fit", "--target", "sigmoid", "--budget", 120, "--seed", 5, "--out", a)
    run_cli("fit", "--target", "sigmoid", "--budget", 120, "--seed", 5, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_fit_file_target(tmp_path):
    samples = tmp_path / "samples.csv"
    xs = np.linspace(-3, 3, 41)
    with open(samples, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "value"])
        for x in xs:
            writer.writerow([repr(float(x)), repr(float(max(x, 0.0)))])
    out = tmp_path / "fit.csv"
    assert run_cli("fit", "--target", f"file:{samples}", "--budget", 150,
                   "--out", out) == 0
    with open(out, newline="") as f:
        rows = [row for row in csv.reader(f) if not row[0].startswith("#")]
    assert rows[1][0] == "samples.csv"


@pytest.mark.parametrize("lines, lineno", [
    (["x,value", "0.0,0.0", "x,value", "1.0,1.0"], 3),
    (["# comment", "", "x,value", "0.0,0.0", "1.0,oops"], 5),
    (["0.0,0.0", "x,value"], 2),
    (["x,value", "0.5"], 2),
    (["0.5"], 1),
    (["x,value", "0.0,0.0", "1.0,1.0,9"], 3),
    (["x,value,weight", "0,0,9", "1,1,oops"], 1),
])
def test_fit_sample_file_rejects_a_bad_row(tmp_path, capsys, lines, lineno):
    samples = tmp_path / "samples.csv"
    samples.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"samples.csv:{lineno}: "):
        cli._read_samples(str(samples))
    assert run_cli("fit", "--target", f"file:{samples}", "--budget", 10,
                   "--out", tmp_path / "fit.csv") == 1
    assert f"samples.csv:{lineno}: " in capsys.readouterr().err
    assert not (tmp_path / "fit.csv").exists()


def test_fit_sample_file_names_the_extra_field(tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text("x,value\n0.0,0.0\n1.0,1.0,9\n")
    with pytest.raises(ValueError) as exc:
        cli._read_samples(str(samples))
    assert str(exc.value) == f"{samples}:3: expected x,value, got ['1.0', '1.0', '9']"


def test_fit_sample_file_header_and_comments(tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text("# made by hand\nx,value\n\n0.0,0.0\n# mid\n1.5,2.5\n")
    xs, ys = cli._read_samples(str(samples))
    assert xs.tolist() == [0.0, 1.5] and ys.tolist() == [0.0, 2.5]


def test_fit_unknown_target_fails(tmp_path):
    assert run_cli("fit", "--target", "swish", "--out", tmp_path / "x.csv") == 1


def test_fit_non_finite_range_fails(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("fit", "--target", "relu", "--range", 1, "inf",
                       "--out", tmp_path / "x.csv") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "error: fit window must be finite, got [1.0, inf]" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("points", [-1, 0, 15])
def test_fit_on_too_few_points_fails(points, tmp_path, capsys):
    assert run_cli("fit", "--target", "relu", "--points", points,
                   "--out", tmp_path / "x.csv") == 1
    err = capsys.readouterr().err
    assert err == f"error: target grid needs at least 16 points, got {points}\n"
    assert not (tmp_path / "x.csv").exists()


def test_train_missing_paths_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("train")
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_train_on_an_empty_test_split_fails(tmp_path, idx_files, capsys):
    idx.write_idx_images(tmp_path / "imgs", np.zeros((0, 28, 28), dtype=np.uint8))
    idx.write_idx_labels(tmp_path / "labels", [])
    assert run_cli("train",
                   "--images", idx_files["train_images"],
                   "--labels", idx_files["train_labels"],
                   "--test-images", tmp_path / "imgs",
                   "--test-labels", tmp_path / "labels",
                   "--epochs", 1, "--out", tmp_path / "m.agm") == 1
    assert "error: empty test set" in capsys.readouterr().err
    assert not (tmp_path / "m.agm").exists()


@pytest.mark.parametrize("command", [("ablate", "init"), ("ablate", "granularity"),
                                     ("sweep", "--full")])
def test_a_study_on_an_empty_test_split_fails(command, tmp_path, idx_files, capsys):
    idx.write_idx_images(tmp_path / "imgs", np.zeros((0, 28, 28), dtype=np.uint8))
    idx.write_idx_labels(tmp_path / "labels", [])
    assert run_cli(*command,
                   "--images", idx_files["train_images"],
                   "--labels", idx_files["train_labels"],
                   "--test-images", tmp_path / "imgs",
                   "--test-labels", tmp_path / "labels",
                   "--epochs", 1, "--out", tmp_path / "x.csv") == 1
    assert "error: empty test set" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_train_report_sweep_plot_pipeline(tmp_path, idx_files):
    model = tmp_path / "model.agm"
    args = ["train",
            "--images", idx_files["train_images"],
            "--labels", idx_files["train_labels"],
            "--test-images", idx_files["test_images"],
            "--test-labels", idx_files["test_labels"],
            "--epochs", 1, "--seed", 3, "--out", model]
    assert run_cli(*args) == 0
    assert model.exists()

    layers = tmp_path / "layers.csv"
    assert run_cli("report", "--model", model, "--out", layers) == 0
    with open(layers, newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 4  # header + three activation layers

    sweep = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--model", model, "--sigmas", "0,0.2",
                   "--images", idx_files["test_images"],
                   "--labels", idx_files["test_labels"],
                   "--out", sweep) == 0

    chart = tmp_path / "sweep.svg"
    assert run_cli("plot", "--figure", "sweep", "--in", sweep, "--out", chart) == 0
    assert chart.read_text().startswith("<svg")


def test_train_is_byte_idempotent(tmp_path, idx_files):
    outs = []
    for name in ("m1.agm", "m2.agm"):
        out = tmp_path / name
        run_cli("train",
                "--images", idx_files["train_images"],
                "--labels", idx_files["train_labels"],
                "--test-images", idx_files["test_images"],
                "--test-labels", idx_files["test_labels"],
                "--epochs", 1, "--seed", 3, "--out", out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_full_with_config_file(tmp_path, idx_files):
    cfg = tmp_path / "arcgate.toml"
    cfg.write_text("epochs=1\nseed=6\n")
    out = tmp_path / "full.csv"
    assert run_cli("--config", cfg, "sweep", "--full", "--sigmas", "0,0.3",
                   "--images", idx_files["train_images"],
                   "--labels", idx_files["train_labels"],
                   "--test-images", idx_files["test_images"],
                   "--test-labels", idx_files["test_labels"],
                   "--out", out) == 0
    text = out.read_text()
    assert "seed=6" in text.splitlines()[0]
    assert text.splitlines()[1] == "model,sigma,accuracy,seed"
    assert sum(1 for line in text.splitlines()[2:] if line) == 4


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("samples=10\nseed=1\n")
    # --samples on the command line wins over the file
    assert cli.run(["--config", str(cfg), "gradcheck", "--samples", "25"]) == 0


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("bogus=1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", cfg, "gradcheck")
    assert exc.value.code == 2


def test_malformed_sigma_list_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--full", "--sigmas", "0,0.1,", "--out", tmp_path / "s.csv")
    assert exc.value.code == 2


def test_train_with_zero_epochs_fails_with_a_message(tmp_path, idx_files, capsys):
    assert run_cli("train",
                   "--images", idx_files["train_images"],
                   "--labels", idx_files["train_labels"],
                   "--test-images", idx_files["test_images"],
                   "--test-labels", idx_files["test_labels"],
                   "--epochs", 0, "--out", tmp_path / "m.agm") == 1
    assert "error: epochs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "m.agm").exists()


@pytest.mark.parametrize("study", ["init", "granularity"])
def test_ablate_with_negative_epochs_fails_with_a_message(study, tmp_path, capsys):
    assert run_cli("ablate", study, "--epochs", -2, "--out", tmp_path / "x.csv") == 1
    assert "error: epochs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_ablate_unknown_study_fails(tmp_path):
    assert run_cli("ablate", "nonsense", "--out", tmp_path / "x.csv") == 1


def test_out_dir_env_var(tmp_path, monkeypatch, idx_files):
    monkeypatch.setenv("ARCGATE_OUT", str(tmp_path / "outputs"))
    assert run_cli("fit", "--target", "identity", "--budget", 100,
                   "--out", "nested/fit.csv") == 0
    assert (tmp_path / "outputs" / "nested" / "fit.csv").exists()


def test_runtime_failure_exit_code(tmp_path):
    missing = tmp_path / "nope.agm"
    assert run_cli("report", "--model", missing, "--out", tmp_path / "x.csv") == 1


@pytest.mark.parametrize("name", sorted(BAD_MODELS))
def test_report_on_a_bad_model_file_fails_with_a_message(tmp_path, name, capsys):
    blob, message = BAD_MODELS[name]
    path = tmp_path / f"{name}.agm"
    path.write_bytes(blob)
    assert run_cli("report", "--model", path, "--out", tmp_path / "x.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "x.csv").exists()


def test_plot_sensitivity_and_fit_figures(tmp_path):
    from arcgate import experiments
    paths = experiments.sensitivity_curves(tmp_path / "curves", fit_budget=60, seed=0)
    chart = tmp_path / "steepness.svg"
    assert run_cli("plot", "--figure", "sensitivity", "--in", paths["steepness"],
                   "--out", chart) == 0
    assert "polyline" in chart.read_text()
    fit_chart = tmp_path / "classics.svg"
    assert run_cli("plot", "--figure", "fit", "--in", paths["classics"],
                   "--out", fit_chart) == 0
    assert fit_chart.read_text().startswith("<svg")


def test_plot_fit_redraws_on_the_recorded_window(tmp_path):
    table = tmp_path / "fit.csv"
    assert run_cli("fit", "--target", "sigmoid", "--range", -2, 2, "--points", 101,
                   "--budget", 50, "--out", table) == 0
    assert table.read_text().startswith("# range=-2.0,2.0 budget=50 seed=0\n")
    chart = tmp_path / "fit.svg"
    assert run_cli("plot", "--figure", "fit", "--in", table, "--out", chart) == 0
    x_ticks = re.findall(r'text-anchor="middle" font-size="11" font-family="sans-serif">'
                         r'([^<]*)</text>', chart.read_text())
    assert [float(t) for t in x_ticks] == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_plot_fit_without_a_recorded_window_fails(tmp_path, capsys):
    # the fit table as written before it recorded its window
    table = DATA / "fit_classics_adam_n201_b300_seed0.csv"
    chart = tmp_path / "fit.svg"
    assert run_cli("plot", "--figure", "fit", "--in", table, "--out", chart) == 1
    assert "no leading '# range=LO,HI budget=B seed=S' line" in capsys.readouterr().err
    assert not chart.exists()


def test_sweep_eval_idempotent(tmp_path, idx_files):
    model = tmp_path / "m.agm"
    run_cli("train",
            "--images", idx_files["train_images"],
            "--labels", idx_files["train_labels"],
            "--test-images", idx_files["test_images"],
            "--test-labels", idx_files["test_labels"],
            "--epochs", 1, "--seed", 4, "--out", model)
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        run_cli("sweep", "--model", model, "--sigmas", "0,0.2,0.4",
                "--images", idx_files["test_images"],
                "--labels", idx_files["test_labels"], "--out", out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_eval_only_matches_saved_bytes(tmp_path, idx_files, monkeypatch):
    # a small trained model; its path is relative because the CSV's digest covers it
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARCGATE_OUT", raising=False)
    x, y = idx.load_idx(idx_files["train_images"], idx_files["train_labels"])
    data = idx.Dataset(x, y, x[:60], y[:60])
    model, _ = engine.train(engine.ModelSpec(hidden=(32,)), data,
                            engine.TrainConfig(epochs=8, learning_rate=3e-3, seed=3))
    engine.save_model(model, "small.agm")
    assert run_cli("sweep", "--model", "small.agm", "--sigmas", "0,0.1,0.3,0.6",
                   "--images", idx_files["test_images"], "--labels", idx_files["test_labels"],
                   "--seed", 3, "--out", "sweep.csv") == 0
    saved = DATA / "sweep_eval_only_small_seed3.csv"
    assert (tmp_path / "sweep.csv").read_bytes() == saved.read_bytes()


@pytest.mark.parametrize("value", ["1", "-1 1 3"])
def test_config_range_needs_two_numbers(tmp_path, capsys, value):
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"# window\nrange={value}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", cfg, "fit", "--target", "relu", "--out", tmp_path / "f.csv")
    assert exc.value.code == 2
    assert f"{cfg}:2: bad value for range: expected two numbers LO HI" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


FIT_HEADER = "target,kind,a,c,p,alpha,beta,gamma,delta,l_inf,l2,iterations,converged"


@pytest.mark.parametrize("figure, text, message", [
    ("sensitivity", "", ":1: the table has no data rows"),
    ("sensitivity", "# digest\nx,a=1\n", ":3: the table has no data rows"),
    ("sensitivity", "# digest\nx,a=1\n0.0,0.5\nfoo,0.5\n", ":4: not a number in ['foo', '0.5']"),
    ("sweep", "# digest\nmodel,sigma,accuracy,seed\narcgate,0.0,0.5,0\narcgate\n",
     ":4: expected 4 fields, got 1"),
    ("fit", f"# range=-6.0,6.0 budget=1 seed=0\n{FIT_HEADER}\nrelu\n",
     ":3: expected 13 fields, got 1"),
], ids=["empty", "header_only", "non_numeric", "short_sweep_row", "short_fit_row"])
def test_plot_rejects_a_bad_table(tmp_path, capsys, figure, text, message):
    table = tmp_path / "t.csv"
    table.write_text(text)
    chart = tmp_path / "t.svg"
    assert run_cli("plot", "--figure", figure, "--in", table, "--out", chart) == 1
    assert capsys.readouterr().err == f"error: {table}{message}\n"
    assert not chart.exists()


# Junk put in place of one token of a valid command; "MISSING" stands for a
# path that does not exist.
_JUNK = ("", "-1", "nan", "inf", "x", "--bogus", "MISSING")
# Appended to a command: a seed or a tolerance that every subcommand refuses
# as a usage error (a subcommand without that flag refuses the flag itself).
_BAD_FLAGS = st.one_of(
    st.integers(max_value=-1).map(lambda seed: ["--seed", str(seed)]),
    st.one_of(st.floats(max_value=0.0), st.just(math.inf), st.just(math.nan))
    .map(lambda tol: [f"--tol={tol!r}"]),
    st.just(["--tol=1e-400"]))


@pytest.fixture(scope="module")
def cheap_commands(tmp_path_factory):
    """Valid, fast commands of four subcommands, and the directory they run in."""
    work = tmp_path_factory.mktemp("argv")
    (work / "model.agm1").write_bytes(agm1(dense(2, 3), gate(), dense(3, 2)))
    assert run_cli("fit", "--target", "relu", "--budget", 5, "--out", work / "fit.csv") == 0
    commands = [["fit", "--target", "relu", "--budget", "5", "--out", "fit-out.csv"],
                ["gradcheck", "--samples", "5"],
                ["report", "--model", "model.agm1", "--out", "report.csv"],
                ["plot", "--figure", "fit", "--in", "fit.csv", "--out", "fit.svg"]]
    return work, commands


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_a_broken_command_exits_0_1_or_2(cheap_commands, data):
    work, commands = cheap_commands
    argv = list(data.draw(st.sampled_from(commands), label="command"))
    pos = data.draw(st.integers(0, len(argv) - 1), label="position")
    junk = data.draw(st.none() | st.sampled_from(_JUNK), label="replacement (None deletes)")
    if junk is None:
        del argv[pos]
    else:
        argv[pos] = str(work / "no-such-dir" / "no-such-file") if junk == "MISSING" else junk
    bad = data.draw(st.none() | _BAD_FLAGS, label="bad --seed or --tol appended")
    argv += bad or []
    err = io.StringIO()
    with contextlib.chdir(work), mock.patch.dict(os.environ, {"ARCGATE_OUT": str(work)}), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:       # argparse's usage exit, passed on by main()
            code = exc.code
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, code, message)
    assert bad is None or code == 2, (argv, code, message)
    assert (code == 2) == ("usage:" in message), (argv, code, message)
    assert (code == 1) == message.startswith("error: "), (argv, code, message)
