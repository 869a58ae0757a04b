import os

import numpy as np
import pytest

from arcgate import experiments, idx


def pytest_report_header(config):
    """numpy, its BLAS and the thread settings: saved training bytes hold only
    for the BLAS thread count they were made at, so a failure report names it."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return (f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}, "
            f"{threads}, {cores} usable cores")


@pytest.fixture(scope="module", autouse=True)
def _no_recorded_trainings():
    """Each test module starts with no recorded study trainings, so none passes
    on trainings another module made."""
    experiments._summaries.clear()


@pytest.fixture(scope="session")
def small_dataset():
    """Fast fixture for engine-level tests (600/200 samples)."""
    return idx.synthesize_arrays(n_train=600, n_test=200, seed=77)


@pytest.fixture(scope="session")
def desk_dataset():
    """The full 5k/1k acceptance fixture."""
    return idx.synthesize_arrays()


@pytest.fixture(scope="session")
def blob_dataset():
    """Two linearly separable 2-D blobs, 200 points, 160/40 split."""
    rng = np.random.default_rng(3)
    n = 100
    xs = np.vstack([rng.normal(0, 0.4, (n, 2)) + [1.5, 1.0],
                    rng.normal(0, 0.4, (n, 2)) + [-1.5, -1.0]])
    ys = np.array([0] * n + [1] * n)
    perm = rng.permutation(2 * n)
    xs, ys = xs[perm], ys[perm]
    return idx.Dataset(xs[:160], ys[:160], xs[160:], ys[160:])
