"""Command-line entry point.

Subcommands: gradcheck, fit, train, sweep, ablate, report, plot.  Flags
override an optional key=value config file (``--config``), which overrides
built-in defaults.  Relative ``--out`` paths land under ``$ARCGATE_OUT``
when that variable is set.  Exit codes: 0 success, 1 runtime failure,
2 usage error.  Diagnostics go to stderr; data goes to files.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import core, engine, experiments, fitter, idx, svg
from .engine import GRANULARITIES, INIT_STRATEGIES, TrainConfig

__all__ = ["main", "run"]

# fit target name -> (kind, preset arguments), from the fitter's classic
# table; the command line calls leaky_relu "leaky"
_FIT_CLASSICS = {("leaky" if kind.tag == "leaky_relu" else kind.tag): (kind, preset_args)
                 for kind, preset_args in fitter.CLASSIC_TARGETS}
_FIT_TARGETS = tuple(_FIT_CLASSICS)


def _parse_sigmas(text: str) -> list[float]:
    if text.endswith(",") or text.startswith(",") or ",," in text:
        raise argparse.ArgumentTypeError(f"malformed sigma list {text!r}")
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed sigma list {text!r}: {exc}") from None
    # -0.0 >= 0 holds, but it would print, and hash, as a sigma of its own
    if not all(math.isfinite(v) and math.copysign(1.0, v) > 0.0 for v in values):
        raise argparse.ArgumentTypeError(f"sigmas must be finite and >= 0, got {text!r}")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise argparse.ArgumentTypeError(f"sigma {v:g} is repeated in {text!r}")
    return values


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {text!r}")
    return value


# Option tables drive both argparse and the config-file merge.
# dest -> (flag, type, default, help); required options have default=None.
_SEED = ("--seed", _seed, 0, "RNG seed (>= 0)")
_TRAIN = TrainConfig()
_OPTIONS: dict[str, dict] = {
    "gradcheck": {
        "samples": ("--samples", int, 1000, "random draws for the gate gradient suite"),
        "seed": _SEED,
        "tol": ("--tol", _tolerance, 1e-5,
                "relative tolerance, finite and > 0 (absolute floor 1e-8)"),
    },
    "fit": {
        "target": ("--target", str, None, "one of %s or file:PATH" % (_FIT_TARGETS,)),
        "range": ("--range", float, (-6.0, 6.0), "fit window LO HI"),
        "points": ("--points", int, 1001, "grid size"),
        "budget": ("--budget", int, 5000, "maximum LM iterations per descent"),
        "seed": _SEED,
        "out": ("--out", str, None, "output CSV"),
    },
    "train": {
        "images": ("--images", str, None, "training images (IDX)"),
        "labels": ("--labels", str, None, "training labels (IDX)"),
        "test_images": ("--test-images", str, None, "test images (IDX)"),
        "test_labels": ("--test-labels", str, None, "test labels (IDX)"),
        "granularity": ("--granularity", str, _TRAIN.granularity, "|".join(GRANULARITIES)),
        "init": ("--init", str, _TRAIN.init_strategy, "|".join(INIT_STRATEGIES)),
        "epochs": ("--epochs", int, _TRAIN.epochs, "training epochs"),
        "batch_size": ("--batch-size", int, _TRAIN.batch_size, "minibatch size"),
        "lr": ("--lr", float, _TRAIN.learning_rate, "learning rate"),
        "weight_decay": ("--weight-decay", float, _TRAIN.weight_decay, "decoupled weight decay"),
        "seed": _SEED,
        "out": ("--out", str, None, "output model file (AGM1)"),
    },
    "sweep": {
        "model": ("--model", str, "", "saved model to evaluate; else train ArcGate and ReLU"),
        "sigmas": ("--sigmas", _parse_sigmas, list(experiments.DEFAULT_SIGMAS),
                   "comma-separated noise levels"),
        "images": ("--images", str, "", "eval/train images (IDX)"),
        "labels": ("--labels", str, "", "eval/train labels (IDX)"),
        "test_images": ("--test-images", str, "", "test images (IDX, without --model)"),
        "test_labels": ("--test-labels", str, "", "test labels (IDX, without --model)"),
        "epochs": ("--epochs", int, _TRAIN.epochs, "training epochs (without --model)"),
        "seed": _SEED,
        "out": ("--out", str, None, "output CSV"),
    },
    "ablate": {
        "study": ("study", str, None, "init or granularity"),
        "images": ("--images", str, "", "training images (IDX, optional)"),
        "labels": ("--labels", str, "", "training labels (IDX, optional)"),
        "test_images": ("--test-images", str, "", "test images (IDX, optional)"),
        "test_labels": ("--test-labels", str, "", "test labels (IDX, optional)"),
        "epochs": ("--epochs", int, _TRAIN.epochs, "training epochs"),
        "seed": _SEED,
        "out": ("--out", str, None, "output CSV"),
    },
    "report": {
        "model": ("--model", str, None, "saved model (AGM1)"),
        "out": ("--out", str, None, "output CSV"),
    },
    "plot": {
        "infile": ("--in", str, None, "input CSV; its header row picks the chart"),
        "out": ("--out", str, None, "output SVG"),
    },
}

# a train, sweep or ablate option -> the TrainConfig field it sets
_CONFIG_FIELDS = {"epochs": "epochs", "batch_size": "batch_size", "lr": "learning_rate",
                  "weight_decay": "weight_decay", "seed": "seed", "init": "init_strategy",
                  "granularity": "granularity"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcgate",
        description="Adaptive arctangent-gated activation toolkit")
    parser.add_argument("--config", help="key=value config file (flags override it)")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "gradcheck": "run the analytical-vs-finite-difference gradient suites",
        "fit": "fit the gate family to a classic activation or sampled file",
        "train": "train an MLP on IDX data and save it",
        "sweep": "evaluate accuracy across Gaussian input-noise levels",
        "ablate": "run the initialization or granularity ablation",
        "report": "emit per-layer effective gate parameters",
        "plot": "render an emitted CSV as an SVG line chart",
    }
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name, help=helps[name])
        for dest, (flag, typ, _default, hlp) in options.items():
            if not flag.startswith("--"):
                p.add_argument(flag, nargs="?", default=argparse.SUPPRESS, help=hlp)
            elif dest == "range":
                p.add_argument(flag, dest=dest, nargs=2, type=typ,
                               default=argparse.SUPPRESS, metavar=("LO", "HI"), help=hlp)
            else:
                p.add_argument(flag, dest=dest, type=typ,
                               default=argparse.SUPPRESS, help=hlp)
    return parser


def _read_config_file(path: str, command: str, parser) -> dict:
    options = _OPTIONS[command]
    overrides = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in options:
            parser.error(f"{path}:{lineno}: unknown key {key!r} for {command}")
        typ = options[key][1]
        try:
            if key == "range":
                overrides[key] = [float(tok) for tok in value.split()]
                if len(overrides[key]) != 2:
                    raise ValueError(f"expected two numbers LO HI, got {value!r}")
            else:
                overrides[key] = typ(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"{path}:{lineno}: bad value for {key}: {exc}")
    return overrides


def _unread(opts) -> tuple[str, tuple[str, ...]]:
    """The mode a command runs in, and the options that mode never reads."""
    if opts["command"] == "fit" and opts["target"].startswith("file:"):
        return "--target file:PATH", ("range", "points")
    if opts["command"] == "sweep" and opts["model"]:
        return "--model", ("test_images", "test_labels", "epochs")
    return "", ()


def _merge(args: argparse.Namespace, parser) -> dict:
    command = args.command
    opts = {dest: spec[2] for dest, spec in _OPTIONS[command].items()}
    given = {}
    if getattr(args, "config", None):
        given.update(_read_config_file(args.config, command, parser))
    given.update((dest, getattr(args, dest)) for dest in _OPTIONS[command]
                 if hasattr(args, dest))
    opts.update(given)
    missing = [dest for dest, spec in _OPTIONS[command].items()
               if spec[2] is None and opts[dest] in (None, "")]
    if missing:
        flags = ", ".join(_OPTIONS[command][d][0] for d in missing)
        parser.error(f"missing required option(s): {flags}")
    opts["command"] = command
    mode, unread = _unread(opts)
    ignored = [_OPTIONS[command][d][0] for d in unread if d in given]
    if ignored:
        parser.error(f"{command} with {mode} never reads {', '.join(ignored)}")
    return opts


def _out_path(raw: str) -> Path:
    path = Path(raw).expanduser()
    base = os.environ.get("ARCGATE_OUT")
    if base and not path.is_absolute():
        path = Path(base).expanduser() / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_gradcheck(opts) -> int:
    worst_gate = core.gate_gradcheck(opts["samples"], opts["seed"])
    worst_net = engine.net_gradcheck(opts["seed"])
    print(f"gate gradient suite: worst relative error {worst_gate:.3e} "
          f"({opts['samples']} draws)", file=sys.stderr)
    print(f"network gradient suite: worst relative error {worst_net:.3e}", file=sys.stderr)
    ok = worst_gate < opts["tol"] and worst_net < 1e-4
    print("PASS" if ok else "FAIL", file=sys.stderr)
    return 0 if ok else 1


def _cmd_fit(opts) -> int:
    target_name = opts["target"]
    lo, hi = opts["range"]
    if target_name.startswith("file:"):
        grid, values = _read_samples(target_name[5:])
        label = Path(target_name[5:]).name
        target = fitter.FitTarget(grid, values, label)
        row_key: object = label
        init = core.preset("soft_relu_init")
        lo, hi = target.grid[0], target.grid[-1]
    elif target_name in _FIT_CLASSICS:
        kind, preset_args = _FIT_CLASSICS[target_name]
        target = fitter.FitTarget.from_kind(kind, lo, hi, opts["points"])
        init = core.preset(*preset_args)
        row_key, label = kind, kind.tag
    else:
        raise ValueError(f"unknown fit target {target_name!r}")
    result = fitter.fit(target, init, budget=opts["budget"], seed=opts["seed"])
    out = _out_path(opts["out"])
    fitter.write_fit_csv([(row_key, result)], out, (lo, hi), opts["budget"], opts["seed"])
    print(f"fit {label}: l_inf={result.l_inf_error:.4e} l2={result.l2_error:.4e} "
          f"converged={result.converged} -> {out}", file=sys.stderr)
    return 0


def _csv_rows(path) -> list[tuple[int, list[str]]]:
    """``(line number, fields)`` of each CSV row that is neither blank nor a ``#`` line."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        return [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]


def _read_samples(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows of exactly two fields, ``x,value``.

    Blank and ``#`` lines are skipped, and the first other row may be a header.
    """
    xs, ys = [], []
    for i, (line, row) in enumerate(_csv_rows(path)):
        if len(row) != 2:
            raise ValueError(f"{path}:{line}: expected x,value, got {row!r}")
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError:
            if i == 0:
                continue  # header
            raise ValueError(f"{path}:{line}: not a number pair: {row!r}") from None
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


def _train_config(opts) -> TrainConfig:
    return TrainConfig(**{field: opts[dest] for dest, field in _CONFIG_FIELDS.items()
                          if dest in opts})


def _load_dataset(opts) -> idx.Dataset:
    paths = [opts.get(k) or None for k in ("images", "labels", "test_images", "test_labels")]
    if not any(paths):
        print("no dataset paths given; using the synthetic fixture", file=sys.stderr)
    return idx.load_or_synthesize(*paths)


def _cmd_train(opts) -> int:
    config = _train_config(opts)
    dataset = _load_dataset(opts)
    model, trace = engine.train(experiments._spec_for(dataset), dataset, config)
    out = _out_path(opts["out"])
    engine.save_model(model, out)
    last = trace[-1]
    print(f"trained {config.epochs} epochs: train_loss={last.train_loss:.4f} "
          f"train_acc={last.train_acc:.4f} test_acc={last.test_acc:.4f} -> {out}",
          file=sys.stderr)
    return 0


def _cmd_sweep(opts) -> int:
    sigmas = sorted(float(s) for s in opts["sigmas"])
    out = _out_path(opts["out"])
    if not opts["model"]:
        config = _train_config(opts)
        dataset = _load_dataset(opts)
        report = experiments.noise_sweep(dataset, sigmas, config, seed=opts["seed"])
        experiments.write_sweep_csv(report, out)
        for s, gain in report.gains:
            print(f"sigma={s:g}: gain {gain:+.4f}", file=sys.stderr)
    else:
        if not opts["images"] or not opts["labels"]:
            raise ValueError("sweep --model needs --images and --labels")
        model = engine.load_model(opts["model"])
        x, y = idx.load_idx(opts["images"], opts["labels"])
        accuracies = experiments._accuracies(model, (x, y), sigmas, opts["seed"])
        report = experiments._sweep_report({Path(opts["model"]).stem: accuracies}, sigmas,
                                           opts["seed"], ("eval-only", opts["model"]))
        experiments.write_sweep_csv(report, out)
    print(f"sweep -> {out}", file=sys.stderr)
    return 0


def _cmd_ablate(opts) -> int:
    study = opts["study"]
    if study not in ("init", "granularity"):
        raise ValueError(f"unknown ablation {study!r}; expected init or granularity")
    config = _train_config(opts)
    dataset = _load_dataset(opts)
    out = _out_path(opts["out"])
    if study == "init":
        rows = experiments.init_ablation(dataset, config, seed=opts["seed"])
        experiments.write_init_csv(rows, out, config, opts["seed"])
    else:
        rows = experiments.granularity_ablation(dataset, config, seed=opts["seed"])
        experiments.write_granularity_csv(rows, out, config, opts["seed"])
    print(f"ablate {study} -> {out}", file=sys.stderr)
    return 0


def _cmd_report(opts) -> int:
    model = engine.load_model(opts["model"])
    rows = experiments.layer_evolution_report(model)
    out = _out_path(opts["out"])
    experiments.write_layer_csv(rows, out)
    print(f"report ({len(rows)} activation layers) -> {out}", file=sys.stderr)
    return 0


# a table's header row -> its chart, the fields that chart reads as numbers and its x
# column, if it has one; any other table gets the sensitivity chart, its first column
# against each of the others
_CHARTS = {fitter.FIT_COLUMNS: ("fit", slice(2, 9), None),
           experiments.SWEEP_COLUMNS: ("sweep", slice(1, 3), 1)}


def _cmd_plot(opts) -> int:
    infile = opts["infile"]
    out = _out_path(opts["out"])
    chart, header, rows = _read_table(infile)
    if chart == "sensitivity":
        data = np.array(rows)
        series = [(name, data[:, 0], data[:, i + 1]) for i, name in enumerate(header[1:])]
        svg.write_line_chart(out, Path(infile).stem, header[0], "F(x)", series)
    elif chart == "fit":
        with open(infile, newline="") as f:
            window = re.fullmatch(r"# range=([-+.\deE]+),([-+.\deE]+) budget=\d+ seed=-?\d+\s*",
                                  f.readline())
        if window is None:
            raise ValueError(f"{infile}: no leading '# range=LO,HI budget=B seed=S' line; "
                             "rewrite the table with `arcgate fit`")
        grid = np.linspace(float(window[1]), float(window[2]), 601)
        series = [(row[1], grid, core.batch_value(grid, row[2:9])) for row in rows]
        svg.write_line_chart(out, "fitted classics", "x", "F(x)", series)
    else:
        by_model: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            by_model.setdefault(row[0], []).append((row[1], row[2]))
        series = [(m, [p[0] for p in pts], [p[1] for p in pts])
                  for m, pts in by_model.items()]
        svg.write_line_chart(out, "accuracy under input noise", "sigma", "accuracy", series)
    print(f"plot {chart} -> {out}", file=sys.stderr)
    return 0


def _read_table(path) -> tuple[str, list[str], list[list]]:
    """The chart of a CSV without its blank and ``#`` lines, with its header and rows.

    Every row must have the header's width; the fields its chart reads are read as floats,
    and its x column must be finite.  A non-finite y, such as a diverged run's accuracy,
    is kept; the chart skips it.
    """
    rows = _csv_rows(path)
    if len(rows) < 2:
        raise ValueError(f"{path}:{rows[0][0] + 1 if rows else 1}: the table has no data rows")
    header = rows[0][1]
    chart, numeric, x_col = _CHARTS.get(tuple(header), ("sensitivity", slice(None), 0))
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
        try:
            row[numeric] = [float(v) for v in row[numeric]]
        except ValueError:
            raise ValueError(f"{path}:{line}: not a number in {row!r}") from None
        if x_col is not None and not math.isfinite(row[x_col]):
            raise ValueError(f"{path}:{line}: {header[x_col]} must be finite, got {row[x_col]!r}")
    return chart, header, [row for _, row in rows[1:]]


_COMMANDS = {
    "gradcheck": _cmd_gradcheck,
    "fit": _cmd_fit,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "ablate": _cmd_ablate,
    "report": _cmd_report,
    "plot": _cmd_plot,
}


def _join_sigmas(argv) -> list[str]:
    """``--sigmas VALUE`` as ``--sigmas=VALUE`` where VALUE starts with one ``-``: argparse
    takes ``-0.1,0.2`` for an option, so :func:`_parse_sigmas` would not see it."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--sigmas" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_sigmas(sys.argv[1:] if argv is None else argv))
    opts = _merge(args, parser)
    try:
        return _COMMANDS[opts["command"]](opts)
    except Exception as exc:  # noqa: BLE001 - single CLI failure funnel
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
