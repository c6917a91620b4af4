import numpy as np
import pytest

from splinemg import ScatteredDataset, generate_dataset

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, with no per-example time limit
    settings.register_profile("reproducible", derandomize=True, deadline=None)
    settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def small_dataset_2d():
    return generate_dataset(2, 200, 0.1, seed=1)


@pytest.fixture(scope="session")
def small_dataset_1d():
    return generate_dataset(1, 200, 0.1, seed=1)


def make_dataset(num_axes, n, seed):
    """Uniform points with standard-normal responses on the unit cube."""
    gen = np.random.default_rng(seed)
    return ScatteredDataset(gen.random((n, num_axes)), gen.standard_normal(n))
