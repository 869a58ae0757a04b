"""``scripts/golden.py diff`` and ``check`` on hand-written manifests.

The ``golden-threads`` CI job passes or fails on these two commands' exit
codes, so each is run here as that job runs it: as a script.
"""

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"

RECORD = """\
# numpy 2.4.6 blas scipy-openblas 0.3.31 OPENBLAS_NUM_THREADS=1,OMP_NUM_THREADS=1 git aaaaaaa
ablate/init.csv 160 5226
sweep/full.csv 320 9f1e
train/relu.agm1 1024 77ab
"""


def manifest(tmp_path: Path, name: str, text: str) -> Path:
    """A directory ``name`` holding ``text`` as its MANIFEST."""
    directory = tmp_path / name
    directory.mkdir()
    (directory / "MANIFEST").write_text(text)
    return directory


def golden(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(GOLDEN), *map(str, argv)],
                          capture_output=True, text=True)


@pytest.mark.parametrize("command", ["diff", "check"])
def test_equal_manifests_exit_0_whatever_their_env_lines(tmp_path, command):
    other_env = RECORD.replace("THREADS=1,OMP_NUM_THREADS=1 git aaaaaaa",
                               "THREADS=2,OMP_NUM_THREADS=2 git bbbbbbb-dirty")
    a, b = manifest(tmp_path, "a", RECORD), manifest(tmp_path, "b", other_env)
    first = a if command == "diff" else a / "MANIFEST"
    run = golden(command, first, b)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == "golden diff: 0 of 3 files differ\n"


@pytest.mark.parametrize("command", ["diff", "check"])
def test_a_differing_hash_and_a_one_sided_file_exit_1_and_are_named(tmp_path, command):
    moved = (RECORD.replace("sweep/full.csv 320 9f1e", "sweep/full.csv 320 9f1f")
             .replace("train/relu.agm1 1024 77ab\n", "train/tanh.agm1 1024 77ab\n"))
    a, b = manifest(tmp_path, "a", RECORD), manifest(tmp_path, "b", moved)
    first = a if command == "diff" else a / "MANIFEST"
    run = golden(command, first, b)
    assert run.returncode == 1, run.stdout + run.stderr
    assert run.stdout.splitlines() == [
        "sweep/full.csv: differs",
        f"train/relu.agm1: only in {a / 'MANIFEST'}",
        f"train/tanh.agm1: only in {b / 'MANIFEST'}",
        "golden diff: 3 of 4 files differ",
    ]
