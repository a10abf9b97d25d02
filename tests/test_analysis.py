import numpy as np
import pytest
from scipy.integrate import quad

from weldfcs import TemperatureProfile, fcs
from weldfcs.fcs import (counterterm_finite, counterterm_mover,
                         moments_closed_form)
from weldfcs.profile import VolumeContext
from weldfcs.spectral import LineGrid, PeriodicGrid


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
