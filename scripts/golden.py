#!/usr/bin/env python3
"""Same bytes as another tree: write a fixed set of outputs, or diff two such sets.

    PYTHONPATH=src python3 scripts/golden.py write DIR
    python3 scripts/golden.py diff A B
    python3 scripts/golden.py check RECORD DIR

``write`` runs the producers below through the CLI and the public API, with
DIR as the working directory and relative ``--out`` paths (so stderr lines
compare), and writes DIR/MANIFEST: one ``path size sha256`` line per file,
after an env line naming numpy, its BLAS, the BLAS thread settings and the
git SHA of the ``arcgate`` tree imported.  To check a parent commit, put it
in its own tree (``git worktree add ../parent HEAD~1``) and run this script
with ``PYTHONPATH=../parent/src``.  ``diff`` lists every file that differs
or is missing on one side and exits 1 if there is any; env lines are not
compared.  ``check`` does the same between a saved MANIFEST, such as the
record ``tests/data/golden.MANIFEST`` (written at 1 BLAS thread with numpy
2.4.6), and DIR's.  A change that moves output bytes on purpose writes the
record again, so its diff names every output that moved.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def _cli(name: str, *argv: str) -> None:
    """Run one CLI command; its stderr and exit code go to ``name.stderr``."""
    from arcgate import cli
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    Path(name).parent.mkdir(parents=True, exist_ok=True)
    Path(f"{name}.stderr").write_text(f"{err.getvalue()}exit {code}\n")
    if code:
        print(f"{name}: exit {code}")


def _produce() -> None:
    from arcgate import cli, engine, experiments, idx
    data = {name: str(path) for name, path in idx.synthesize_idx_files("data").items()}
    splits = ["--images", data["train_images"], "--labels", data["train_labels"],
              "--test-images", data["test_images"], "--test-labels", data["test_labels"]]
    for init in engine.INIT_STRATEGIES:
        for granularity in engine.GRANULARITIES:
            stem = f"train/{init}-{granularity}"
            _cli(stem, "train", *splits, "--epochs", "1", "--init", init,
                 "--granularity", granularity, "--out", f"{stem}.agm1")
    model = "train/soft_relu-layer_wise.agm1"
    _cli("report", "report", "--model", model, "--out", "report.csv")
    _cli("sweep/full", "sweep", *splits, "--epochs", "1", "--out", "sweep/full.csv")
    _cli("sweep/eval", "sweep", "--model", model, "--images", data["test_images"],
         "--labels", data["test_labels"], "--out", "sweep/eval.csv")
    for study in ("init", "granularity"):
        _cli(f"ablate/{study}", "ablate", study, *splits, "--epochs", "1",
             "--out", f"ablate/{study}.csv")
    for target in cli._FIT_TARGETS:
        _cli(f"fit/{target}", "fit", "--target", target, "--budget", "300",
             "--out", f"fit/{target}.csv")
    for seed in ("0", "1", "18"):
        _cli(f"gradcheck/seed{seed}", "gradcheck", "--seed", seed)
    experiments.run_round(idx.synthesize_arrays(), engine.TrainConfig(epochs=1, seed=1), 1,
                          "round")
    for figure, infile in (("sensitivity", "round/sensitivity_steepness.csv"),
                           ("fit", "round/sensitivity_classics.csv"),
                           ("sweep", "sweep/full.csv")):
        _cli(f"plot/{figure}", "plot", "--in", infile, "--out", f"plot/{figure}.svg")


def _env() -> str:
    import arcgate
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ",".join(f"{name}={os.environ.get(name, 'unset')}"
                       for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    git = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                         text=True, cwd=Path(arcgate.__file__).parent)
    return (f"# numpy {np.__version__} blas {blas.get('name', '?')} {blas.get('version', '?')}"
            f" {threads} git {git.stdout.strip() or 'unknown'}")


def write(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    os.environ.pop("ARCGATE_OUT", None)
    os.chdir(out)
    _produce()
    lines = [f"{p.as_posix()} {p.stat().st_size} {hashlib.sha256(p.read_bytes()).hexdigest()}"
             for p in sorted(Path().rglob("*")) if p.is_file() and p.name != "MANIFEST"]
    Path("MANIFEST").write_text("\n".join([_env(), *lines]) + "\n")
    print(f"{len(lines)} files -> {out / 'MANIFEST'}")


def _manifest(manifest: Path) -> dict[str, list[str]]:
    """path -> [size, sha256]; the env line is skipped."""
    return {path: rest for path, *rest in (line.split() for line in
                                           manifest.read_text().splitlines()
                                           if not line.startswith("#"))}


def diff(a: Path, b: Path) -> int:
    """Compare two MANIFEST files."""
    left, right = _manifest(a), _manifest(b)
    names = sorted(left.keys() | right.keys())
    bad = [name for name in names if left.get(name) != right.get(name)]
    for name in bad:
        where = "differs" if name in left and name in right else \
            f"only in {a if name in left else b}"
        print(f"{name}: {where}")
    print(f"golden diff: {len(bad)} of {len(names)} files differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "write":
        write(Path(sys.argv[2]).resolve())
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        sys.exit(diff(Path(sys.argv[2], "MANIFEST"), Path(sys.argv[3], "MANIFEST")))
    elif len(sys.argv) == 4 and sys.argv[1] == "check":
        sys.exit(diff(Path(sys.argv[2]), Path(sys.argv[3], "MANIFEST")))
    else:
        sys.exit(__doc__)
