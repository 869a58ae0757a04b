import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
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


def test_gradcheck_catches_a_wrong_partial(monkeypatch, capsys):
    exact = core._partials

    def skewed(tape):
        d_x, d_a, d_c, d_p = exact(tape)
        d_a *= 1.0 + 1e-4
        return d_x, d_a, d_c, d_p

    monkeypatch.setattr(core, "_partials", skewed)
    assert run_cli("gradcheck", "--samples", 50, "--seed", 1) == 1
    gate = capsys.readouterr().err.splitlines()[0]    # the gate suite's own figure fails
    worst = re.fullmatch(r"gate gradient suite: worst relative error (\S+) \(50 draws\)", gate)
    assert float(worst[1]) > 1e-5


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
    ["gradcheck"], ["fit", "--target", "relu"], ["sweep"], ["ablate", "init"],
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


def write_samples(path, xs, ys) -> None:
    path.write_text("x,value\n" + "".join(f"{float(x)!r},{float(y)!r}\n"
                                           for x, y in zip(xs, ys)))


@pytest.mark.parametrize("column, k, bad, message", [
    ("value", 4, math.nan, "target value 4 is nan, not finite"),
    ("x", 19, math.inf, "target grid point 19 is inf, not finite"),
])
def test_fit_sample_file_rejects_a_non_finite_sample(tmp_path, capsys, column, k, bad,
                                                     message):
    xs = np.linspace(-3, 3, 20)
    ys = np.tanh(xs)
    (xs if column == "x" else ys)[k] = bad
    samples = tmp_path / "samples.csv"
    write_samples(samples, xs, ys)
    assert run_cli("fit", "--target", f"file:{samples}", "--budget", 10,
                   "--out", tmp_path / "fit.csv") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "fit.csv").exists()


def test_fit_on_huge_finite_samples_warns_nothing(tmp_path, capsys):
    xs = np.linspace(-3, 3, 20)
    samples = tmp_path / "samples.csv"
    write_samples(samples, xs, np.tanh(xs) * 1e200)
    out = tmp_path / "fit.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("fit", "--target", f"file:{samples}", "--budget", 10,
                       "--out", out) == 0
    assert not caught
    # the sum of squared residuals would overflow, so it is taken in units of 2**665
    line = re.fullmatch(r"fit samples\.csv: l_inf=(\S+) l2=(\S+) converged=\w+ -> (.*)\n",
                        capsys.readouterr().err)
    assert math.isfinite(float(line[1])) and math.isfinite(float(line[2]))
    assert float(line[1]) < 0.32e200      # the same fit of tanh(x) ends at l_inf 0.319
    assert line[3] == str(out)


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


@pytest.mark.parametrize("command, flags", [
    ("fit", "--target, --out"),
    ("train", "--images, --labels, --test-images, --test-labels, --out"),
    ("sweep", "--out"),
    ("ablate", "study, --out"),
    ("report", "--model, --out"),
    ("plot", "--in, --out"),
])
def test_missing_options_are_the_tables_required_ones_in_order(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command)
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"arcgate: error: missing required option(s): {flags}"
    required = [spec[0] for spec in cli._OPTIONS[command].values() if spec[2] is None]
    assert flags == ", ".join(required)


def test_train_on_images_of_no_pixels_fails(tmp_path, capsys):
    idx.write_idx_images(tmp_path / "imgs", np.zeros((4, 0, 0), dtype=np.uint8))
    idx.write_idx_labels(tmp_path / "labels", [0, 1, 0, 1])
    data = ["--images", tmp_path / "imgs", "--labels", tmp_path / "labels"]
    assert run_cli("train", *data, "--test-images", tmp_path / "imgs",
                   "--test-labels", tmp_path / "labels", "--out", tmp_path / "m.agm") == 1
    assert capsys.readouterr().err == "error: in_dim must be >= 1, got 0\n"
    assert not (tmp_path / "m.agm").exists()


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
                                     ("sweep",)])
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
    # an all-number table: its first column against each of the others
    assert run_cli("plot", "--in", layers, "--out", tmp_path / "layers.svg") == 0

    sweep = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--model", model, "--sigmas", "0,0.2",
                   "--images", idx_files["test_images"],
                   "--labels", idx_files["test_labels"],
                   "--out", sweep) == 0

    chart = tmp_path / "sweep.svg"
    assert run_cli("plot", "--in", sweep, "--out", chart) == 0
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
    assert run_cli("--config", cfg, "sweep", "--sigmas", "0,0.3",
                   "--images", idx_files["train_images"],
                   "--labels", idx_files["train_labels"],
                   "--test-images", idx_files["test_images"],
                   "--test-labels", idx_files["test_labels"],
                   "--out", out) == 0
    text = out.read_text()
    assert "seed=6" in text.splitlines()[0]
    assert text.splitlines()[1] == "model,sigma,accuracy,seed"
    assert sum(1 for line in text.splitlines()[2:] if line) == 4


def test_sweep_on_a_missing_model_fails(tmp_path, idx_files, capsys):
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--model", tmp_path / "missing.agm1",
                   "--images", idx_files["test_images"], "--labels", idx_files["test_labels"],
                   "--out", out) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sweep_of_a_model_needs_its_images_and_labels(tmp_path, capsys):
    model = tmp_path / "model.agm1"
    model.write_bytes(agm1(dense(2, 3), gate(), dense(3, 2)))
    for path in (model, tmp_path / "missing.agm1"):      # checked before the model is read
        assert run_cli("sweep", "--model", path, "--images", "i",
                       "--out", tmp_path / "s.csv") == 1
        assert capsys.readouterr().err == "error: sweep --model needs --images and --labels\n"
        assert not (tmp_path / "s.csv").exists()


def test_sweep_of_a_model_rejects_a_label_outside_its_classes(tmp_path, capsys):
    model = tmp_path / "model.agm1"
    model.write_bytes(agm1(dense(2, 3), gate(), dense(3, 2)))
    idx.write_idx_images(tmp_path / "imgs", np.zeros((3, 1, 2), dtype=np.uint8))
    idx.write_idx_labels(tmp_path / "labels", [0, 2, 1])
    assert run_cli("sweep", "--model", model, "--images", tmp_path / "imgs",
                   "--labels", tmp_path / "labels", "--out", tmp_path / "s.csv") == 1
    assert capsys.readouterr().err == "error: label 2 at row 1 is outside [0, 2) for 2 classes\n"
    assert not (tmp_path / "s.csv").exists()


_FIT_FILE = ["fit", "--target", "file:samples.csv"]
_SWEEP_MODEL = ["sweep", "--model", "model.agm1", "--images", "i", "--labels", "l"]


@pytest.mark.parametrize("argv, config, flags", [
    (_FIT_FILE + ["--range", "-1", "1"], "", "--range"),
    (_FIT_FILE + ["--points", "50"], "", "--points"),
    (_FIT_FILE + ["--range", "-1", "1", "--points", "50"], "", "--range, --points"),
    (_FIT_FILE, "range=-1 1\n", "--range"),
    (_SWEEP_MODEL + ["--epochs", "9"], "", "--epochs"),
    (_SWEEP_MODEL + ["--test-images", "nope"], "", "--test-images"),
    (_SWEEP_MODEL, "test_labels=nope\nepochs=9\n", "--test-labels, --epochs"),
], ids=["fit-range", "fit-points", "fit-both", "fit-config", "sweep-epochs",
        "sweep-test-images", "sweep-config"])
def test_a_flag_its_mode_never_reads_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                      argv, config, flags):
    # fit on a sample file takes its window from the file, and sweep --model trains
    # nothing; the flag is refused before any file is read
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARCGATE_OUT", raising=False)
    write_samples(tmp_path / "samples.csv", np.linspace(-3, 3, 20), np.linspace(-3, 3, 20))
    (tmp_path / "model.agm1").write_bytes(agm1(dense(2, 3), gate(), dense(3, 2)))
    (tmp_path / "c.txt").write_text(config)
    with pytest.raises(SystemExit) as exc:
        run_cli(*(["--config", "c.txt"] if config else []), *argv, "--out", "out.csv")
    assert exc.value.code == 2
    mode = "--model" if argv[0] == "sweep" else "--target file:PATH"
    assert capsys.readouterr().err.endswith(
        f"error: {argv[0]} with {mode} never reads {flags}\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, key", [("sweep", "full"), ("plot", "figure")])
def test_a_removed_switch_is_an_unknown_config_key(tmp_path, capsys, command, key):
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"# old\n{key}=1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", cfg, command, "--out", tmp_path / "x")
    assert exc.value.code == 2
    assert f"error: {cfg}:2: unknown key '{key}' for {command}" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("samples=10\nseed=1\n")
    # --samples on the command line wins over the file
    assert cli.run(["--config", str(cfg), "gradcheck", "--samples", "25"]) == 0


@pytest.mark.parametrize("argv, message", [
    (["gradcheck", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["gradcheck", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
    (["sweep", "--sigmas", "0,abc"], "argument --sigmas: malformed sigma list '0,abc': "
                                     "could not convert string to float: 'abc'")],
    ids=["seed", "tol", "sigmas"])
def test_a_flag_value_that_is_not_a_number_is_a_usage_error(argv, message, tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.setattr(core, "gate_gradcheck", None)      # rejected before any work
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *(["--out", tmp_path / "s.csv"] if argv[0] == "sweep" else []))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not (tmp_path / "s.csv").exists()


def test_gradcheck_with_a_valid_tolerance_passes(capsys):
    assert run_cli("gradcheck", "--samples", 5, "--tol", "1e-3") == 0
    assert capsys.readouterr().err.endswith("\nPASS\n")


def test_an_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", tmp_path / "missing.txt", "gradcheck")
    assert exc.value.code == 2
    assert "error: cannot read config file: [Errno 2] No such file or directory" in \
        capsys.readouterr().err


def test_a_config_line_without_equals_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("# comment\nseed 3\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", cfg, "gradcheck")
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {cfg}:2: expected key=value, "
                                            "got 'seed 3'\n")


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("bogus=1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", cfg, "gradcheck")
    assert exc.value.code == 2


def test_malformed_sigma_list_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--sigmas", "0,0.1,", "--out", tmp_path / "s.csv")
    assert exc.value.code == 2


@pytest.mark.parametrize("sigmas", ["0,0.1,nan", "0,inf", "-inf,0", "-0.1,0.2"])
def test_a_non_finite_or_negative_sigma_is_a_usage_error(sigmas, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--model", tmp_path / "m.agm", f"--sigmas={sigmas}",
                "--images", "i", "--labels", "l", "--out", tmp_path / "s.csv")
    assert exc.value.code == 2
    assert f"sigmas must be finite and >= 0, got '{sigmas}'" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_a_negative_zero_sigma_is_a_usage_error(tmp_path, capsys):
    # -0.0 >= 0 holds, but its rows and digest would differ from those of 0; given as a
    # second token, a value that starts with "-" must still reach the sigma check
    for flag in (["--sigmas=-0,0.1"], ["--sigmas", "-0,0.1"], ["--sigmas", "-0.1,0.2"]):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", *flag, "--out", tmp_path / "s.csv")
        assert exc.value.code == 2
        value = flag[-1].removeprefix("--sigmas=")
        assert f"error: argument --sigmas: sigmas must be finite and >= 0, got '{value}'" \
            in capsys.readouterr().err
    cfg = tmp_path / "c.txt"
    cfg.write_text("sigmas=0.1,-0.0\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", cfg, "sweep", "--out", tmp_path / "s.csv")
    assert exc.value.code == 2
    assert f"error: {cfg}:1: bad value for sigmas: sigmas must be finite and >= 0, " \
        f"got '0.1,-0.0'" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_a_repeated_sigma_is_a_usage_error(tmp_path, capsys):
    # it would be drawn twice, from two noise seeds
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--sigmas", "0.1,0,0.1", "--out", tmp_path / "s.csv")
    assert exc.value.code == 2
    assert "error: argument --sigmas: sigma 0.1 is repeated in '0.1,0,0.1'" \
        in capsys.readouterr().err
    cfg = tmp_path / "c.txt"
    cfg.write_text("sigmas=0,0.2,0.20\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", cfg, "sweep", "--out", tmp_path / "s.csv")
    assert exc.value.code == 2
    assert f"error: {cfg}:1: bad value for sigmas: sigma 0.2 is repeated in '0,0.2,0.20'" \
        in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "nan", "learning_rate must be finite and > 0"),
    ("--lr", "inf", "learning_rate must be finite and > 0"),
    ("--weight-decay", "inf", "weight_decay must be finite and >= 0"),
    ("--weight-decay", "nan", "weight_decay must be finite and >= 0")])
def test_train_with_a_non_finite_step_size_fails_with_a_message(flag, value, message, tmp_path,
                                                                 idx_files, capsys, monkeypatch):
    monkeypatch.setattr(engine, "train", None)             # rejected before any training
    assert run_cli("train",
                   "--images", idx_files["train_images"],
                   "--labels", idx_files["train_labels"],
                   "--test-images", idx_files["test_images"],
                   "--test-labels", idx_files["test_labels"],
                   flag, value, "--out", tmp_path / "m.agm") == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "m.agm").exists()


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


def test_ablate_refuses_an_unknown_study_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(idx, "load_or_synthesize", mock.Mock(side_effect=AssertionError))
    assert run_cli("ablate", "nonsense", "--out", tmp_path / "new" / "sub" / "x.csv") == 1
    assert capsys.readouterr().err == ("error: unknown ablation 'nonsense'; "
                                       "expected init or granularity\n")
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("study, runner, writer", [
    ("init", "init_ablation", "write_init_csv"),
    ("granularity", "granularity_ablation", "write_granularity_csv"),
])
def test_ablate_writes_the_study_of_a_fresh_run(tmp_path, idx_files, study, runner, writer):
    from arcgate import experiments
    paths = [idx_files[k] for k in ("train_images", "train_labels", "test_images", "test_labels")]
    out = tmp_path / "cli.csv"
    assert run_cli("ablate", study, "--images", paths[0], "--labels", paths[1],
                   "--test-images", paths[2], "--test-labels", paths[3],
                   "--epochs", 1, "--seed", 5, "--out", out) == 0
    experiments._summaries.clear()      # the fresh run trains again
    config = engine.TrainConfig(epochs=1, seed=5)
    rows = getattr(experiments, runner)(idx.load_or_synthesize(*paths), config, seed=5)
    getattr(experiments, writer)(rows, tmp_path / "fresh.csv", config, 5)
    assert out.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


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


def test_report_on_a_relu_baseline_model_says_it_has_no_gate_layers(tmp_path, idx_files,
                                                                     capsys):
    model = tmp_path / "relu.agm"
    assert run_cli("train", "--images", idx_files["train_images"],
                   "--labels", idx_files["train_labels"],
                   "--test-images", idx_files["test_images"],
                   "--test-labels", idx_files["test_labels"],
                   "--init", "relu_baseline", "--epochs", 1, "--out", model) == 0
    capsys.readouterr()
    assert run_cli("report", "--model", model, "--out", tmp_path / "x.csv") == 1
    assert capsys.readouterr().err == "error: model has no gate layers\n"
    assert not (tmp_path / "x.csv").exists()


def test_plot_sensitivity_and_fit_figures(tmp_path, capsys):
    from arcgate import experiments
    paths = experiments.sensitivity_curves(tmp_path / "curves", fit_budget=60, seed=0)
    chart = tmp_path / "steepness.svg"
    assert run_cli("plot", "--in", paths["steepness"], "--out", chart) == 0
    assert "polyline" in chart.read_text()
    fit_chart = tmp_path / "classics.svg"
    assert run_cli("plot", "--in", paths["classics"], "--out", fit_chart) == 0
    assert fit_chart.read_text().startswith("<svg")
    assert capsys.readouterr().err == (f"plot sensitivity -> {chart}\n"
                                       f"plot fit -> {fit_chart}\n")


@pytest.mark.parametrize("table, chart", [
    ("fit_classics_n201_b300_seed0.csv", "fit"),
    ("study_sweep_small_fast_seed6.csv", "sweep"),
    ("sweep_eval_only_small_seed3.csv", "sweep"),
])
def test_a_tables_header_row_picks_its_chart(tmp_path, capsys, table, chart):
    out = tmp_path / "t.svg"
    assert run_cli("plot", "--in", DATA / table, "--out", out) == 0
    assert capsys.readouterr().err == f"plot {chart} -> {out}\n"
    assert out.read_text().startswith("<svg")


@pytest.mark.parametrize("table, row", [
    ("study_init_small_fast_seed6.csv", "['relu_baseline', '0.125', '2', '6']"),
    ("study_granularity_small_fast_seed6.csv", "['fixed', '0', '0.195', '6']"),
])
def test_plot_refuses_a_study_table(tmp_path, capsys, table, row):
    # no chart reads a study table, so it is drawn as numbers and refused as such
    out = tmp_path / "t.svg"
    assert run_cli("plot", "--in", DATA / table, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {DATA / table}:3: not a number in {row}\n"
    assert not out.exists()


def test_plot_fit_redraws_on_the_recorded_window(tmp_path):
    table = tmp_path / "fit.csv"
    assert run_cli("fit", "--target", "sigmoid", "--range", -2, 2, "--points", 101,
                   "--budget", 50, "--out", table) == 0
    assert table.read_text().startswith("# range=-2.0,2.0 budget=50 seed=0\n")
    chart = tmp_path / "fit.svg"
    assert run_cli("plot", "--in", table, "--out", chart) == 0
    x_ticks = re.findall(r'text-anchor="middle" font-size="11" font-family="sans-serif">'
                         r'([^<]*)</text>', chart.read_text())
    assert [float(t) for t in x_ticks] == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_plot_fit_without_a_recorded_window_fails(tmp_path, capsys):
    # the fit table as written before it recorded its window
    table = DATA / "fit_classics_adam_n201_b300_seed0.csv"
    chart = tmp_path / "fit.svg"
    assert run_cli("plot", "--in", table, "--out", chart) == 1
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


@pytest.mark.parametrize("text, message", [
    ("", ":1: the table has no data rows"),
    ("# digest\nx,a=1\n", ":3: the table has no data rows"),
    ("# digest\nx,a=1\n0.0,0.5\nfoo,0.5\n", ":4: not a number in ['foo', '0.5']"),
    ("# digest\nmodel,sigma,accuracy,seed\narcgate,0.0,0.5,0\narcgate\n",
     ":4: expected 4 fields, got 1"),
    (f"# range=-6.0,6.0 budget=1 seed=0\n{FIT_HEADER}\nrelu\n",
     ":3: expected 13 fields, got 1"),
], ids=["empty", "header_only", "non_numeric", "short_sweep_row", "short_fit_row"])
def test_plot_rejects_a_bad_table(tmp_path, capsys, text, message):
    table = tmp_path / "t.csv"
    table.write_text(text)
    chart = tmp_path / "t.svg"
    assert run_cli("plot", "--in", table, "--out", chart) == 1
    assert capsys.readouterr().err == f"error: {table}{message}\n"
    assert not chart.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("text, x_name", [
    ("# digest\nx,a=1\n0.0,0.5\n{},0.25\n", "x"),
    ("# digest\nmodel,sigma,accuracy,seed\narcgate,0.0,0.5,0\narcgate,{},0.25,0\n", "sigma"),
], ids=["sensitivity", "sweep"])
def test_plot_refuses_a_non_finite_x(tmp_path, capsys, text, x_name, value):
    table = tmp_path / "t.csv"
    table.write_text(text.format(value))
    chart = tmp_path / "t.svg"
    assert run_cli("plot", "--in", table, "--out", chart) == 1
    assert capsys.readouterr().err == (f"error: {table}:4: {x_name} must be finite, "
                                       f"got {float(value)!r}\n")
    assert not chart.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("text", [
    "x,a=1\n0.0,0.5\n1.0,{}\n2.0,0.75\n",
    "model,sigma,accuracy,seed\narcgate,0.0,0.5,0\narcgate,1.0,{},0\narcgate,2.0,0.75,0\n",
], ids=["sensitivity", "sweep"])
def test_plot_skips_a_non_finite_y(tmp_path, text, value):
    # a diverged run's accuracy is NaN: its point is left out of the line
    table = tmp_path / "t.csv"
    table.write_text(text.format(value))
    chart = tmp_path / "t.svg"
    assert run_cli("plot", "--in", table, "--out", chart) == 0
    points, = re.findall(r'points="([^"]*)"', chart.read_text())
    assert points == "70.00,479.55 690.00,70.45"


# each chart's table with x values {lo} and {hi}
_X_TABLES = {
    "sensitivity": "x,a\n{lo},0.5\n{hi},0.25\n",
    "fit": f"# range={{lo}},{{hi}} budget=1 seed=0\n{FIT_HEADER}\n"
           "relu,relu_like,5,0,1,1,0,0,0,0,0,1,True\n",
    "sweep": "model,sigma,accuracy,seed\narcgate,{lo},0.5,0\nrelu,{hi},0.25,0\n",
}


def _plot_without_warnings(table, chart) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli("plot", "--in", table, "--out", chart)


# 1e20 + 1.0 is 1e20, so the axis stayed empty; ticks 0.2 apart never moved past 2**52
@pytest.mark.parametrize("value", ["1e20", "4503599627370496", "-1.7976931348623157e308",
                                   "1.7976931348623157e308"])
@pytest.mark.parametrize("name", sorted(_X_TABLES))
def test_plot_draws_a_constant_x_column_of_any_size(tmp_path, capsys, name, value):
    table = tmp_path / "t.csv"
    table.write_text(_X_TABLES[name].format(lo=value, hi=value))
    chart = tmp_path / "t.svg"
    assert _plot_without_warnings(table, chart) == 0
    assert capsys.readouterr().err == f"plot {name} -> {chart}\n"
    assert "nan" not in chart.read_text() and "inf" not in chart.read_text()


@pytest.mark.parametrize("text, axis", [
    (_X_TABLES["sensitivity"].format(lo="-1e308", hi="1e308"), "x"),
    (_X_TABLES["fit"].format(lo="-1e308", hi="1e308"), "x"),
    (_X_TABLES["sweep"].format(lo="-1e308", hi="1e308"), "sigma"),
    ("x,a\n0.0,-1e308\n1.0,1e308\n", "F(x)"),
    ("model,sigma,accuracy,seed\narcgate,0.0,-1e308,0\narcgate,1.0,1e308,0\n", "accuracy"),
], ids=["sensitivity_x", "fit_x", "sweep_x", "sensitivity_y", "sweep_y"])
def test_plot_refuses_a_span_wider_than_a_double(tmp_path, capsys, text, axis):
    table = tmp_path / "t.csv"
    table.write_text(text)
    chart = tmp_path / "t.svg"
    assert _plot_without_warnings(table, chart) == 1
    assert capsys.readouterr().err == (f"error: {table}: the {axis} axis from -1e+308 to "
                                       f"1e+308 spans more than a double holds\n")
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
                ["plot", "--in", "fit.csv", "--out", "fit.svg"]]
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


@pytest.mark.parametrize("argv, code, last_line", [
    (["gradcheck", "--samples", "5"], 0, "PASS"),
    (["report", "--model", "missing.agm1", "--out", "r.csv"], 1,
     "error: [Errno 2] No such file or directory: 'missing.agm1'"),
    (["gradcheck", "--bogus"], 2, "arcgate: error: unrecognized arguments: --bogus"),
], ids=["pass", "runtime_failure", "usage_error"])
def test_the_console_entry_point_exits_with_the_commands_code(tmp_path, argv, code, last_line):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("ARCGATE_OUT", None)
    done = subprocess.run([sys.executable, "-m", "arcgate.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (code, "")
    assert done.stderr.splitlines()[-1] == last_line
    assert not (tmp_path / "r.csv").exists()
