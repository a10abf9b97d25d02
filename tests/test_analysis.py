import numpy as np
import pytest
from scipy.integrate import quad

from weldfcs import TemperatureProfile, fcs
from weldfcs.fcs import (counterterm_finite, counterterm_mover,
                         moments_closed_form)
from weldfcs.profile import VolumeContext
from weldfcs.spectral import LineGrid, PeriodicGrid, progression_phases


def counterterm(profile, t, v, c):
    """Counterterm of both movers."""
    return sum(counterterm_mover(profile, t, v, c, mover) for mover in "+-")


class TestSpectralTools:
    def test_periodic_derivative_exact_on_modes(self):
        grid = PeriodicGrid(7.0, 64)
        u = np.exp(-1j * 2 * np.pi * 3 / 7.0 * grid.x)
        d = grid.derivative(u, 1)
        assert np.max(np.abs(d - (-1j * 2 * np.pi * 3 / 7.0) * u)) < 1e-12

    def test_line_ft_pair_roundtrip(self):
        grid = LineGrid(-8.0, 16.0, 256)
        u = np.exp(-grid.x ** 2)
        assert np.max(np.abs(grid.ift(grid.ft(u)) - u)) < 1e-13

    def test_line_ft_matches_quadrature(self):
        grid = LineGrid(-20.0, 40.0, 2048)
        u = np.exp(-grid.x ** 2 / 2.0)
        uhat = grid.ft(u)
        k = grid.M // 2 + 3           # small positive momentum
        p = grid.p[k]
        ref = quad(lambda x: np.cos(p * x) * np.exp(-x * x / 2), -20, 20,
                   epsabs=1e-14)[0]
        assert uhat[k].real == pytest.approx(ref, abs=1e-12)
        assert abs(uhat[k].imag) < 1e-12

    # (j0, dp, n, |x| range, points): the cylinder's half-offset lattice,
    # the torus modes 0..N+N//2 at L = 40 and 80 (|p x| to about 3600), a
    # symmetric band, 3 momenta below zero and 7 above (a table of 7 rows
    # in blocks of 3), 6 below and 1 above, n = 1, n = 3 through p = 0, and
    # an empty support
    PROGRESSIONS = [(-195.5, 2 * np.pi / 80, 392, 30.0, 75),
                    (0.0, 2 * np.pi / 40, 385, 30.0, 1024),
                    (0.0, 2 * np.pi / 80, 769, 60.0, 512),
                    (-64.0, 2 * np.pi / 40, 129, 30.0, 300),
                    (-2.5, 0.3, 10, 5.0, 40),
                    (-5.5, 0.3, 7, 5.0, 40),
                    (0.5, 0.3, 1, 5.0, 9),
                    (-1.0, 0.3, 3, 5.0, 9),
                    (-3.5, 0.3, 8, 5.0, 0)]

    @staticmethod
    def _exact(j0, dp, n, x, expm1):
        """The table in extended precision, rounded to complex."""
        ld = np.longdouble
        a = np.multiply.outer((ld(j0) + np.arange(n, dtype=ld)) * ld(dp),
                              x.astype(ld))
        re = -2.0 * np.sin(a / 2) ** 2 if expm1 else np.cos(a)
        return re.astype(float) + 1j * np.sin(a).astype(float)

    @pytest.mark.parametrize("j0,dp,n,xmax,m", PROGRESSIONS)
    @pytest.mark.parametrize("expm1", [False, True])
    def test_progression_phases_match_longdouble(self, j0, dp, n, xmax, m,
                                                 expm1):
        # both routes round the angle p x, the direct one once and the block
        # one in two parts, so their largest errors agree up to which
        # entries the roundings hit: over ten draws of x the block route's
        # is 0.55-1.05 times the direct route's on the large tables; on the
        # small ones a few roundings of the complex product decide
        x = np.random.default_rng(n).uniform(-xmax, xmax, m)
        ref = self._exact(j0, dp, n, x, expm1)
        got = progression_phases(j0, dp, n, x, expm1)
        direct = (np.expm1 if expm1 else np.exp)(
            1j * np.outer((j0 + np.arange(n)) * dp, x))
        assert got.shape == (n, m)
        if not m:
            return
        eps = np.finfo(float).eps
        err, err_direct = (np.max(np.abs(t - ref)) for t in (got, direct))
        assert err <= 1.1 * err_direct + 4 * eps

    @pytest.mark.parametrize("j0,n", [(-195.5, 392), (-64.0, 129),
                                      (0.0, 50), (-2.5, 10)])
    def test_progression_expm1_keeps_relative_accuracy(self, j0, n):
        # |p d| up to 1e-12, on progressions that straddle p = 0 or start at
        # it: every entry to a few roundings of its own size, as np.expm1
        dp = 0.1
        d = np.random.default_rng(0).uniform(-1, 1, 30) * 1e-12 / (
            (abs(j0) + n) * dp)
        ref = self._exact(j0, dp, n, d, True)
        got = progression_phases(j0, dp, n, d, expm1=True)
        zero = ref == 0.0                   # the row p = 0
        assert np.all(got[zero] == 0.0)
        rel = np.abs(got - ref)[~zero] / np.abs(ref[~zero])
        assert np.max(rel) < 4 * np.finfo(float).eps


class TestCounterterm:
    def test_zero_time(self, kink):
        assert counterterm(kink, 0.0, 1.0, 1.0) == 0.0

    def test_flat_profile(self):
        flat = TemperatureProfile(2.0, 2.0)
        assert counterterm(flat, 3.0, 1.0, 1.0) == 0.0

    def test_against_independent_quadrature(self, kink):
        # oracle: Schwarzian of h from finite differences of h' = beta0/beta,
        # integrated by adaptive quadrature over the kink interval
        t, v, c = 4.0, 1.0, 1.0

        offs = np.arange(-3.0, 4.0)
        van = np.vander(offs, 7, increasing=True).T
        w1 = np.linalg.solve(van, np.eye(7)[1])
        w2 = np.linalg.solve(van, 2.0 * np.eye(7)[2])

        def sh_fd(x):
            d = 2e-4
            hp = kink.beta0 / kink.beta(x + d * offs)
            d1 = hp[3]
            d2 = np.dot(w1, hp) / d
            d3 = np.dot(w2, hp) / d ** 2
            return d3 / d1 - 1.5 * (d2 / d1) ** 2

        def integrand(x):
            xa = np.array([x])
            tot = (kink.beta(xa + v * t) + kink.beta(xa - v * t)
                   - 2.0 * kink.beta(xa)).item()
            return tot * sh_fd(x)

        ref = c * v / (24 * np.pi) * quad(integrand, -1.0, 1.0,
                                          epsabs=1e-12, limit=500)[0]
        assert counterterm(kink, t, v, c) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("t", [1.0, 4.0, 30.0])
    def test_fixed_rule_matches_adaptive_quadrature(self, kink, monkeypatch,
                                                    t):
        # oracle: the same integrands by adaptive quadrature on the same
        # pieces, one point at a time; the counterterms of both movers and
        # two boxes, and the closed-form mean of three kinks
        def adaptive(integrand, edges):
            edges = np.unique(edges)
            return sum(quad(lambda x: float(integrand(np.array([x]))[0]),
                            a, b, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
                       for a, b in zip(edges[:-1], edges[1:]))

        kinks = [kink] + [TemperatureProfile(bl, br, center=0.0,
                                             half_width=1.0)
                          for bl, br in ((0.5, 4.0), (4.0, 0.5))]

        def values():
            return ([counterterm_mover(kink, t, 1.0, 1.0, m) for m in "+-"]
                    + [counterterm_finite(kink, VolumeContext(kink, L), t, 1.0)
                       for L in (40.0, 80.0)]
                    + [moments_closed_form(p, 1.0, t)["mean"] for p in kinks])

        fixed = values()
        monkeypatch.setattr(fcs, "_fixed_rule", adaptive)
        for value, ref in zip(fixed, values()):
            assert value == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_finite_volume_approaches_infinite(self, kink):
        t = 3.0
        inf = counterterm(kink, t, 1.0, 1.0)
        ctx = VolumeContext(kink, 60.0)
        fin = (counterterm_finite(kink, ctx, t, 1.0)
               - counterterm_finite(kink, ctx, 0.0, 1.0))
        assert fin == pytest.approx(inf, abs=1e-8)
