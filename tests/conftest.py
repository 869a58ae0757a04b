import numpy as np
import pytest

from arcgate import experiments, idx


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
