import weakref
from dataclasses import replace

import numpy as np
import pytest

from weldfcs import (InfiniteVolume, Numerics, Theory, build_xi, fcs, ldf,
                     levy_jump_rates, moments_closed_form, psi_finite,
                     psi_infinite, rate_function)
from weldfcs.errors import PoleHit


class TestLdf:
    def test_pole_rejection(self):
        with pytest.raises(PoleHit):
            ldf(2.0, 1.0, 1.0, -2.0j)

    def test_fluctuation_symmetry_property(self):
        # ldf(lambda) = ldf(-lambda + i (beta_right - beta_left)) over random
        # temperatures, central charges and complex lambda kept 0.25 from
        # the poles -i beta_left and i beta_right, at the 1e-12 of the
        # self-test's ldf.fluctuation_symmetry_20pts
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(beta_left=st.floats(0.5, 4.0),
                          beta_right=st.floats(0.5, 4.0),
                          c=st.floats(0.1, 10.0), re=st.floats(-4.0, 4.0),
                          im=st.floats(-5.0, 5.0))
        def check(beta_left, beta_right, c, re, im):
            lam = complex(re, im)
            hypothesis.assume(min(abs(lam + 1j * beta_left),
                                  abs(lam - 1j * beta_right)) >= 0.25)
            a = ldf(beta_left, beta_right, c, lam)["total"]
            b = ldf(beta_left, beta_right, c,
                    -lam + 1j * (beta_right - beta_left))["total"]
            assert abs(a - b) < 1e-12

        check()

    def test_central_charge_prefactor(self):
        a = ldf(2.0, 1.0, 1.0, 0.4)["total"]
        b = ldf(2.0, 1.0, 0.7, 0.4)["total"]
        assert abs(b - 0.7 * a) < 1e-16


class TestRateFunction:
    def test_convexity_and_positivity(self):
        sig = np.linspace(-6, 6, 61)
        r = rate_function(2.0, 1.0, 1.0, sig)["rate"]
        assert np.all(r >= -1e-13)
        assert np.all(np.diff(r, 2) > -1e-9)

    def test_linear_asymptote(self):
        # I(sigma) - (beta_left sigma - sqrt(pi c sigma / 3)) stays O(1)
        vals = []
        for s in (50.0, 200.0, 800.0):
            r = rate_function(2.0, 1.0, 1.0, [s])["rate"][0]
            vals.append(r - (2.0 * s - np.sqrt(np.pi * s / 3.0)))
        assert np.max(np.abs(vals)) < 2.0
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


class TestLevyJumpRates:
    def test_closed_form_values(self):
        w = levy_jump_rates(2.0, 1.0, 1.0, 0.0, np.array([0.5, -0.5]))
        assert w[0] == pytest.approx(np.pi / 12 * np.exp(-1.0), rel=1e-14)
        assert w[1] == pytest.approx(np.pi / 12 * np.exp(-0.5), rel=1e-14)


class TestClosedFormMoments:
    def test_zero_time_moments_vanish(self, kink):
        out = moments_closed_form(kink, 1.0, 0.0)
        assert abs(out["mean"]) < 1e-13
        assert abs(out["variance"]) < 1e-13

    def test_variance_kernel_against_finite_part_quadrature(self, kink):
        """Real-space oracle for the variance kernel of one mover.

        J = FP int F(u) / sinh^4(pi (u - i0)/gamma) du for the field
        autocorrelation F; the finite part is computed by explicit Taylor
        subtraction, with the distributional moments of the kernel taken
        from the p -> 0 limits of its Fourier transform.  Compared against
        the momentum-route integral used by moments_closed_form.
        """
        import math

        from weldfcs.spectral import LineGrid

        t = 2.0
        xi = build_xi(kink, InfiniteVolume(1.0), t, "+")
        gamma = xi.gamma
        lo, hi = xi.support

        pad = 8.0 * gamma
        span = 4.0 * ((hi - lo) + 2 * pad)
        m = 1 << int(math.ceil(math.log2(span / 0.01)))
        grid = LineGrid(0.5 * (lo + hi) - span / 2, span, m)
        xihat = grid.ft(xi(grid.x))
        pp = grid.p
        kern = pp * (pp ** 2 + 4 * np.pi ** 2 / gamma ** 2) \
            / -np.expm1(-gamma * pp)
        var_momentum = (np.sum(kern * np.abs(xihat) ** 2).real * grid.dp
                        / (48 * np.pi ** 2))

        nodes, wts = np.polynomial.legendre.leggauss(40)

        def panels(a, b, n):
            e = np.linspace(a, b, n + 1)
            ys = np.concatenate([0.5 * (b2 - a2) * nodes + 0.5 * (a2 + b2)
                                 for a2, b2 in zip(e[:-1], e[1:])])
            ws = np.concatenate([0.5 * (b2 - a2) * wts
                                 for a2, b2 in zip(e[:-1], e[1:])])
            return ys, ws

        yq, wq = panels(lo - 0.5, hi + 0.5, 24)
        xiy = xi(yq)

        def corr(u):
            u = np.atleast_1d(u)
            vals = xi((yq[None, :] - u[:, None]).ravel()).reshape(len(u),
                                                                  len(yq))
            return (vals * (xiy * wq)[None, :]).sum(axis=1)

        d = 1e-3
        f0 = corr(np.array([0.0]))[0]
        f2 = (corr(np.array([d]))[0] - 2 * f0
              + corr(np.array([-d]))[0]) / d ** 2
        f4 = (corr(np.array([2 * d]))[0] - 4 * corr(np.array([d]))[0]
              + 6 * f0 - 4 * corr(np.array([-d]))[0]
              + corr(np.array([-2 * d]))[0]) / d ** 4
        eps = 0.02
        uq, wu = panels(eps, 14.0, 80)
        ker_u = 1.0 / np.sinh(np.pi * uq / gamma) ** 4
        sub = corr(uq) + corr(-uq) - 2 * f0 - f2 * uq ** 2
        j_outer = np.sum(wu * sub * ker_u)
        j_inner = (f4 / 24.0) * (gamma / np.pi) ** 4 * 2 * eps
        # distributional moments from the p->0 expansion of the transform
        i0 = 4 * gamma / (3 * np.pi)
        i2 = -(2 * gamma ** 3 / (3 * np.pi ** 3)) * (np.pi ** 2 / 3 + 1.0)
        j = j_outer + j_inner + f0 * i0 + 0.5 * f2 * i2
        var_realspace = np.pi ** 2 / 8.0 * j / gamma ** 4
        assert var_realspace == pytest.approx(var_momentum, rel=1e-5)

    def test_variance_monotone_in_time(self, kink):
        vals = [moments_closed_form(kink, 1.0, t)["variance"]
                for t in (1.0, 2.0, 4.0)]
        assert vals[0] < vals[1] < vals[2]


class TestPsiInfinite:
    def test_conjugation_symmetry(self, kink, lean_numerics):
        a = psi_infinite(kink, 1.0, 3.0, lam=0.15, numerics=lean_numerics)
        b = psi_infinite(kink, 1.0, 3.0, lam=-0.15, numerics=lean_numerics)
        assert abs(a.ln_psi - np.conj(b.ln_psi)) < 1e-9

    def test_central_charge_overall_power(self, kink, lean_numerics, tmp_path):
        from weldfcs.cache import SolveCache
        cache = SolveCache(tmp_path / "c")
        a = psi_infinite(kink, 1.0, 3.0, lam=0.1, numerics=lean_numerics,
                         cache=cache)
        b = psi_infinite(kink, 0.7, 3.0, lam=0.1, numerics=lean_numerics,
                         cache=cache)
        assert abs(b.ln_psi - 0.7 * a.ln_psi) < 1e-14
        assert cache.hits > 0

    def test_quadrature_error_estimate(self, kink, lean_numerics):
        # doubling the flow-time nodes moves each mover's ln Psi by < 1e-7
        val = psi_infinite(kink, 1.0, 2.0, lam=0.2, numerics=lean_numerics)
        fine = psi_infinite(kink, 1.0, 2.0, lam=0.2, numerics=replace(
            lean_numerics, s_nodes=2 * lean_numerics.s_nodes))
        assert abs(fine.ln_psi_plus - val.ln_psi_plus) < 1e-7
        assert abs(fine.ln_psi_minus - val.ln_psi_minus) < 1e-7

    def test_mover_split_sums(self, kink, lean_numerics):
        val = psi_infinite(kink, 1.0, 2.0, lam=0.2, numerics=lean_numerics)
        assert abs(val.ln_psi - val.ln_psi_plus - val.ln_psi_minus) < 1e-15


class TestPsiFinite:
    def test_zero_time_protocol(self, kink, box, lean_numerics):
        th = Theory("free_boson_radius", 1.0, radius=1.0)
        val = psi_finite(kink, th, box, 0.0, lam=0.3, numerics=lean_numerics)
        assert abs(val.ln_psi) < 1e-9

    def test_zero_lambda(self, kink, box, lean_numerics):
        th = Theory("free_boson_radius", 1.0, radius=1.0)
        val = psi_finite(kink, th, box, 2.0, lam=0.0, numerics=lean_numerics)
        assert val.ln_psi == 0

    def test_against_infinite_volume(self, kink, box, lean_numerics):
        th = Theory("free_boson_radius", 1.0, radius=1.0)
        vf = psi_finite(kink, th, box, 4.0, lam=0.2, numerics=lean_numerics)
        vi = psi_infinite(kink, 1.0, 4.0, lam=0.2, numerics=lean_numerics)
        assert vf.meta["tau_hat"].imag > 0
        assert abs(vf.ln_psi - vi.ln_psi) < 1e-8


class TestNodeRecords:
    def test_each_solution_freed_before_the_next_solve(self, kink, box,
                                                       monkeypatch):
        # a node's solution, with its factors, is gone when the next node
        # of the set is solved, so a set holds one node's factors at a time
        refs, alive = [], []
        solve = fcs.solve_Y1

        def tracked(problem):
            alive.append(sum(ref() is not None for ref in refs))
            sol = solve(problem)
            refs.append(weakref.ref(sol))
            return sol

        monkeypatch.setattr(fcs, "solve_Y1", tracked)
        welds = fcs.torus_nodes(kink, box, 2.0, [0.1, 0.2, 0.3],
                                Numerics(n_modes=96, tail_tol=1e-3))
        assert fcs._node_records(welds).shape == (3, 2)
        assert alive == [0, 0, 0]
