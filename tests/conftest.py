import os

# one BLAS thread, as perfbench runs: a threaded pool makes small dense
# solves slower and the timed acceptance criteria noisy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from weldfcs import Numerics, TemperatureProfile, VolumeContext  # noqa: E402


@pytest.fixture(scope="session")
def kink():
    """Default kink: beta 2 -> 1 over [-1, 1]."""
    return TemperatureProfile(2.0, 1.0, center=0.0, half_width=1.0)


@pytest.fixture(scope="session")
def box(kink):
    return VolumeContext(kink, 40.0, 1.0)


@pytest.fixture(scope="session")
def lean_numerics():
    """Validated fast settings used across the unit tests."""
    return Numerics(n_modes=256, tail_tol=2e-3, s_nodes=6, dx=0.02,
                    window_pad_gamma=6.0, window_factor=4.0, p_max_gamma=33.0)


@pytest.fixture
def rng():
    """A fresh generator per test, so a test's draws do not depend on which
    tests ran before it."""
    return np.random.default_rng(20240817)
