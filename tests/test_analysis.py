import numpy as np
import pytest
from scipy.integrate import quad

from weldfcs import Diffeo, TemperatureProfile, fcs
from weldfcs.fcs import (counterterm_finite, counterterm_mover,
                         moments_closed_form)
from weldfcs.fredholm import PhaseFactor
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

    def test_interpolate_returns_samples_and_is_periodic(self):
        # rounding the angles p x errs by about eps |p x|, which grows with
        # M, so the bound scales with M
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(periodic=st.booleans(),
                          m=st.sampled_from([2, 8, 64, 256]),
                          length=st.floats(0.5, 100.0),
                          offset=st.floats(-1.0, 1.0),
                          seed=st.integers(0, 2 ** 32 - 1),
                          k=st.integers(-3, 3))
        def prop(periodic, m, length, offset, seed, k):
            x0 = offset * length
            grid = (PeriodicGrid(length, m, x0=x0) if periodic
                    else LineGrid(x0, length, m))
            rng = np.random.default_rng(seed)
            values = rng.standard_normal(m)
            bound = 64 * np.finfo(float).eps * m * np.max(np.abs(values))
            assert np.max(np.abs(grid.interpolate(values, grid.x) - values)) \
                <= bound
            if periodic:
                pts = x0 + rng.uniform(-length, 2 * length, 50)
                assert np.max(np.abs(grid.interpolate(values, pts + k * length)
                                     - grid.interpolate(values, pts))) <= bound

        prop()

    @pytest.mark.parametrize("m", [512, 2048])
    def test_periodic_interpolate_matches_direct_exp(self, m):
        # the direct np.exp sum over the FFT modes -M/2..M/2-1, over several
        # periods; the Nyquist term's imaginary part off the lattice tells
        # mode -M/2 from +M/2
        L, x0 = 40.0, -30.0
        grid = PeriodicGrid(L, m, x0=x0)
        z = 2 * np.pi * grid.x / L
        disp = 0.3 * np.sin(z) + 0.1 * np.cos(2 * z + 0.5)
        values = disp + 0.2j * np.cos(z) + 0.05 * (-1.0) ** np.arange(m)
        pts = np.linspace(x0 - 2 * L, x0 + 3 * L, 3001)
        phase = np.exp(-2j * np.pi * np.outer(
            (pts - x0) / L, np.fft.fftfreq(m, d=1.0 / m)))
        direct = phase @ np.fft.ifft(values)
        assert np.max(np.abs(grid.interpolate(values, pts) - direct)) < 1e-12
        # points of any shape give values of that shape
        got = grid.interpolate(values, pts[:3000].reshape(30, 100))
        assert np.max(np.abs(got - direct[:3000].reshape(30, 100))) < 1e-12
        f = Diffeo(grid, grid.x + disp)
        ref = pts + (phase @ np.fft.ifft(disp)).real
        assert np.max(np.abs(f(pts) - ref)) < 1e-13

    def test_eval_ft_of_columns_matches_direct_exp(self):
        grid = LineGrid(-20.0, 40.0, 1024)
        x = grid.x
        cols = [np.exp(-x ** 2), x * np.exp(-x ** 2 / 2),
                np.tanh(x) * np.exp(-x ** 2 / 8)]
        uhat = np.stack([grid.ft(c) for c in cols], axis=1)
        pts = np.random.default_rng(5).uniform(-19.0, 19.0, 777)
        direct = grid.dp / (2 * np.pi) * np.exp(
            -1j * np.outer(pts, grid.p)) @ uhat
        got = grid.eval_ft(uhat, pts)
        assert got.shape == (777, 3)
        assert np.max(np.abs(got - direct)) < 1e-14

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
    def _exact(j0, dp, n, x, d=None, scale=1.0):
        """The table in extended precision, rounded to complex."""
        ld = np.longdouble
        p = (ld(j0) + np.arange(n, dtype=ld)) * ld(dp)
        a = np.multiply.outer(p, x.astype(ld))
        re, im = np.cos(a), np.sin(a)
        if d is not None:
            # times e^{ipd} - 1 = -2 sin^2(pd/2) + i sin(pd), without
            # cancellation
            b = np.multiply.outer(p, d.astype(ld))
            er, ei = -2.0 * np.sin(b / 2) ** 2, np.sin(b)
            re, im = re * er - im * ei, im * er + re * ei
        return ((ld(scale) * re).astype(float)
                + 1j * (ld(scale) * im).astype(float))

    @pytest.mark.parametrize("j0,dp,n,xmax,m", PROGRESSIONS)
    @pytest.mark.parametrize("twisted", [False, True])
    def test_progression_phases_match_longdouble(self, j0, dp, n, xmax, m,
                                                 twisted):
        # both routes round the angle p x, the direct one once and the block
        # one in two parts, so their largest errors agree up to which
        # entries the roundings hit: over ten draws of x the block route's
        # is 0.55-1.05 times the direct route's on the large tables; on the
        # small ones a few roundings of the complex product decide.  The
        # twisted table (displacements d, as the V factors use it) against
        # the product of direct exp and expm1, weight folded in
        rng = np.random.default_rng(n)
        x = rng.uniform(-xmax, xmax, m)
        d, scale = (rng.uniform(-2.0, 2.0, m), 0.3) if twisted else (None, 1.0)
        ref = self._exact(j0, dp, n, x, d, scale)
        got = progression_phases(j0, dp, n, x, d, scale)
        p = (j0 + np.arange(n)) * dp
        direct = scale * np.exp(1j * np.outer(p, x))
        if twisted:
            direct *= np.expm1(1j * np.outer(p, d))
        assert got.shape == (n, m)
        if not m:
            return
        eps = np.finfo(float).eps
        err, err_direct = (np.max(np.abs(t - ref)) for t in (got, direct))
        assert err <= 1.1 * err_direct + 4 * eps

    @pytest.mark.parametrize("j0,n", [(-195.5, 392), (-64.0, 129),
                                      (0.0, 50), (-2.5, 10)])
    def test_progression_expm1_keeps_relative_accuracy(self, j0, n):
        # |p d| up to 1e-12 at x = 0, where the twisted table is expm1(i p d),
        # on progressions that straddle p = 0 or start at it: every entry to
        # a few roundings of its own size, as np.expm1
        dp = 0.1
        d = np.random.default_rng(0).uniform(-1, 1, 30) * 1e-12 / (
            (abs(j0) + n) * dp)
        x = np.zeros_like(d)
        ref = self._exact(j0, dp, n, x, d)
        got = progression_phases(j0, dp, n, x, d)
        zero = ref == 0.0                   # the row p = 0
        assert np.all(got[zero] == 0.0)
        rel = np.abs(got - ref)[~zero] / np.abs(ref[~zero])
        assert np.max(rel) < 4 * np.finfo(float).eps

    # (grid, j0, n): the torus modes -N..N+N//2 at L = 40 and 80, the
    # cylinder's half-offset lattice, and both flavours with an origin far
    # from 0, where the point nearest 0 lies off the window
    PHASE_FACTORS = [(PeriodicGrid(40.0, 1536, -30.0), -384, 961),
                     (PeriodicGrid(80.0, 1536, -60.0), -384, 961),
                     (LineGrid(-32.63, 73.4, 1024), -195.5, 392),
                     (LineGrid(523.7, 80.0, 2048), -195.5, 392),
                     (PeriodicGrid(40.0, 1024, 700.0), -256, 641)]

    @pytest.mark.parametrize("grid,j0,n", PHASE_FACTORS)
    def test_phase_factor_matches_longdouble(self, grid, j0, n, rng,
                                             lattice_phase):
        # P w by one FFT against the extended-precision P on the lattice,
        # for a vector and a batch of columns, all rows and a slice; its
        # twiddles stay small, so it errs by the FFT's round-off, where the
        # dense np.exp table errs by the rounding of p x (6e-14 to 3e-12 of
        # the largest entry on these grids)
        union = np.sort(rng.choice(grid.M, 300, replace=False))
        phase = PhaseFactor(grid, union, (j0 + np.arange(n)) * grid.dp)
        w = rng.standard_normal((300, 3)) + 1j * rng.standard_normal((300, 3))
        ref = lattice_phase(grid, union, j0, n) @ w
        scale = np.max(np.abs(ref))
        got = phase(w)
        assert got.shape == (n, 3)
        assert np.max(np.abs(got - ref)) < 16 * np.finfo(float).eps * scale
        assert np.max(np.abs(phase(w[:, 1]) - got[:, 1])) \
            < 4 * np.finfo(float).eps * scale
        assert np.array_equal(phase(w, slice(5, 50)), got[5:50])


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
