import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from agm1_files import BAD_MODELS
from arcgate import cli, core, idx

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


def test_fit_identity_writes_csv(tmp_path):
    out = tmp_path / "fit.csv"
    assert run_cli("fit", "--target", "identity", "--budget", 300,
                   "--out", out) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
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
        rows = list(csv.reader(f))
    assert rows[1][0] == "samples.csv"


@pytest.mark.parametrize("lines, lineno", [
    (["x,value", "0.0,0.0", "x,value", "1.0,1.0"], 3),
    (["# comment", "", "x,value", "0.0,0.0", "1.0,oops"], 5),
    (["0.0,0.0", "x,value"], 2),
    (["x,value", "0.5"], 2),
    (["0.5"], 1),
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


def test_fit_sample_file_header_and_comments(tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text("# made by hand\nx,value\n\n0.0,0.0\n# mid\n1.5,2.5\n")
    xs, ys = cli._read_samples(str(samples))
    assert xs.tolist() == [0.0, 1.5] and ys.tolist() == [0.0, 2.5]


def test_fit_unknown_target_fails(tmp_path):
    assert run_cli("fit", "--target", "swish", "--out", tmp_path / "x.csv") == 1


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
