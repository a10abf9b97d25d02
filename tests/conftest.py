import os
from fractions import Fraction

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


@pytest.fixture(scope="session")
def lattice_phase():
    """The oracle of the welding phase factor: ``e^{i p_j x_m}`` over the
    momenta ``p_j = k_j 2 pi / span``, k_j = j0 + j, j < n, and the lattice
    points ``x_m = x0 + m span / M``, m in ``union``.  The angle is reduced
    mod 2 pi exactly, ``p_j x_m / 2 pi = k_j x0 / span + k_j m / M``: the
    first term mod 1 in rational arithmetic, the second in integers; the
    cosine and sine of the sum are taken in extended precision and rounded
    to complex, so the origin's distance from 0 costs no accuracy."""
    def phase(grid, union, j0, n):
        ld = np.longdouble
        k2 = round(2 * j0) + 2 * np.arange(n)             # 2 k_j
        x0 = Fraction(grid.x0) / Fraction(grid.span)
        rows = [Fraction(int(k), 2) * x0 % 1 for k in k2]
        # each fraction to extended precision as a double and its remainder
        row = np.array([ld(float(r)) + ld(float(r - Fraction(float(r))))
                        for r in rows], dtype=ld)
        col = (np.multiply.outer(k2, np.asarray(union, dtype=np.int64))
               % (2 * grid.M)).astype(ld) / (2 * grid.M)
        a = 8 * np.arctan(ld(1)) * (row[:, None] + col)
        return np.cos(a).astype(float) + 1j * np.sin(a).astype(float)
    return phase
