import numpy as np
import pytest
from scipy.integrate import solve_ivp

from weldfcs import (InfiniteVolume, TemperatureProfile, VolumeContext,
                     build_h, build_xi, flow_family, periodize_profile)
from weldfcs.errors import BoxTooSmall
from weldfcs.fcs import (Numerics, _line_flow_family, cylinder_nodes,
                         torus_nodes)
from weldfcs.profile import Diffeo, ReparamMap
from weldfcs.spectral import (LineGrid, PeriodicGrid, fit_loglog_slope,
                              gauss_legendre_panels)


def brute_force_periodized(profile, L, x):
    """Direct evaluation of the piecewise reflection definition."""
    x = np.mod(np.asarray(x, dtype=float) + 0.75 * L, L) - 0.75 * L
    out = np.empty_like(x)
    main = x >= -0.25 * L
    out[main] = profile.beta(x[main])
    out[~main] = profile.beta(-x[~main] - 0.5 * L)
    return out


class TestTemperatureProfile:
    def test_monotone_and_c1_at_edges(self, kink):
        x = np.linspace(-1.0, 1.0, 2001)
        b = kink.beta(x)
        assert np.all(np.diff(b) <= 1e-15)
        eps = 1e-9
        for edge in (-1.0, 1.0):
            inner = kink.beta(np.array([edge - eps if edge < 0 else edge + eps]))
            assert abs((inner - kink.beta(np.array([edge]))).item()) < 1e-12
        assert abs(kink.beta_deriv(np.array([-1.0]))[0]) == 0.0
        assert abs(kink.beta_deriv(np.array([1.0]))[0]) == 0.0

    def test_beta_scalar_matches_array(self, kink):
        # the spline runs only inside the kink; a scalar takes the same
        # branch as an array element, on the plateaus and at the edges
        x = np.array([-5.0, -1.0, -0.3, 0.0, 0.7, 1.0, 5.0])
        arr = kink.beta(x)
        assert np.array_equal([kink.beta(float(v)) for v in x], arr)
        assert arr[0] == arr[1] == kink.beta_left
        assert arr[-1] == arr[-2] == kink.beta_right
        step, _ = kink._step
        assert np.array_equal(arr[2:5], kink.beta_left
                              + kink.delta_beta * step(x[2:5]))

    @pytest.mark.parametrize("volume", ["infinite", "finite"])
    def test_h_spline_only_inside_kink(self, kink, box, volume,
                                       monkeypatch):
        # h evaluates the kink spline only at lo < x < hi; the values are
        # bit for bit those of evaluating it everywhere and keeping the
        # branch, on the plateaus, at the edges and inside
        spl, total = kink.inv_beta_integral
        lo, hi = kink.support
        seen = []

        def spy(xx):
            seen.append(np.asarray(xx).copy())
            return spl(xx)

        monkeypatch.setitem(kink.__dict__, "inv_beta_integral", (spy, total))
        bl, br = kink.beta_left, kink.beta_right
        x = np.array([-7.5, -1.0 - 1e-12, -1.0, -0.999, -0.3, 0.0, 0.6,
                      0.999, 1.0, 1.0 + 1e-12, 7.5])

        def kink_integral(xx, left, start):
            # the full-lattice form: the spline runs at every point
            return np.where(xx <= lo, (xx - left) / bl,
                            np.where(xx >= hi, start + total + (xx - hi) / br,
                                     start + spl(np.clip(xx, lo, hi))))

        if volume == "infinite":
            h = build_h(kink)
            ref = kink.beta0 * (kink_integral(x, lo, 0.0)
                                - kink_integral(np.array(0.0), lo, 0.0))
        else:
            h = build_h(kink, box)
            quarter = 0.25 * box.L
            ref = box.beta0L * kink_integral(x, -quarter,
                                             (lo + quarter) / bl) - quarter
        assert np.array_equal(h(x), ref)
        assert np.array_equal([h(float(v)) for v in x], ref)
        seen = np.concatenate([np.ravel(v) for v in seen])
        assert np.all((seen > lo) & (seen < hi))

    def test_tables_agree_with_their_splines(self):
        # each quintic Hermite interpolant returns its table exactly at its
        # own knots, and off them stays near scipy's quintic spline through
        # the same table; and the tabulated total of int 1/beta matches the
        # total over beta evaluated through the step interpolant.
        # Off the knots the two interpolants part by rounding, made larger
        # by the slope times the rounding of the knots, and by the table's
        # odd-even Simpson pattern, which the spline follows and the
        # Hermite, held to the exact derivatives, does not; the table's
        # fourth differences measure that pattern.
        # The evaluation of beta takes S at u = (x - center) / half_width,
        # rounded off the table's grid, so its S moves by 4 ulp of rounding
        # plus max S' times the rounding of u, and 1/beta by
        # |delta_beta| / min beta times as much; each total is a running sum
        # of 2^14 Simpson pieces, whose rounding alone is bounded by
        # 2^14 eps relative
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from scipy.interpolate import make_interp_spline

        from weldfcs.profile import _SMOOTHSTEP_POINTS, _cumsimps
        eps = np.finfo(float).eps
        positive = st.floats(0.05, 20.0)

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.floats(-20.0, 20.0), st.floats(0.05, 10.0),
                          positive, positive, st.floats(0.5, 30.0))
        def prop(center, half_width, beta_left, beta_right, sharpness):
            p = TemperatureProfile(beta_left, beta_right, center, half_width,
                                   sharpness=sharpness)
            rng = np.random.default_rng(7)
            u = np.linspace(-1.0, 1.0, _SMOOTHSTEP_POINTS + 1)
            steps, norm = p._step_table
            xk, cum = p.inv_beta_table
            step, _ = p._step
            spl, total = p.inv_beta_integral
            slope = np.exp(-sharpness) / norm      # max S'
            for f, knots, table, fmax in (
                    (step, u, steps, slope),
                    (spl, xk, cum, 1.0 / min(beta_left, beta_right))):
                assert np.array_equal(f(knots), table)
                off = rng.uniform(knots[0], knots[-1], 2000)
                rounding = np.spacing(np.max(np.abs(table))) \
                    + fmax * np.spacing(np.max(np.abs(knots)))
                bound = 16 * rounding + 2 * np.max(np.abs(np.diff(table, 4)))
                spline = make_interp_spline(knots, table, k=5)
                assert np.max(np.abs(f(off) - spline(off))) <= bound
            assert total == cum[-1]
            evaluated = _cumsimps(1.0 / p.beta(xk), xk[1] - xk[0])[-1]
            ratio = abs(p.delta_beta) / min(beta_left, beta_right)
            du = np.max(np.abs((xk - center) / half_width - u))
            bound = ratio * (4 * eps + 2 * slope * du) \
                + _SMOOTHSTEP_POINTS * eps
            assert abs(total - evaluated) <= bound * total

        prop()
        off_center = TemperatureProfile(3.0, 0.7, 1.0, 2.5, sharpness=5.0)
        assert off_center.inv_beta_integral[1] == 3.8392352792653806

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 101, 1024, 16385])
    def test_cumsimps_is_scipys_cumulative_simpson(self, n, rng):
        # the numpy transcription against scipy, bit for bit, on odd and
        # even lengths
        from scipy.integrate import cumulative_simpson

        from weldfcs.profile import _cumsimps
        y = rng.standard_normal(n)
        ref = np.concatenate(([0.0], cumulative_simpson(y, dx=0.37)))
        assert np.array_equal(_cumsimps(y, 0.37), ref)

    def test_midpoint_reflection_value(self, kink, box):
        beta_L = periodize_profile(kink, box)
        assert beta_L(np.array([-box.L / 2])).item() == pytest.approx(
            kink.beta(np.array([0.0])).item(), abs=1e-14)

    def test_periodization_matches_brute_force(self, kink, box):
        beta_L = periodize_profile(kink, box)
        x = np.linspace(-60.0, 60.0, 4096)
        ref = brute_force_periodized(kink, box.L, x)
        assert np.max(np.abs(beta_L(x) - ref)) < 1e-13

    def test_box_too_small(self, kink):
        with pytest.raises(BoxTooSmall):
            VolumeContext(kink, 3.0)


class TestReparamMap:
    def test_flat_profile_gives_identity(self):
        p = TemperatureProfile(2.0, 2.0)
        h = build_h(p)
        x = np.linspace(-20, 20, 101)
        assert np.max(np.abs(h(x) - x)) < 1e-13
        hl = build_h(p, VolumeContext(p, 30.0))
        assert np.max(np.abs(hl(x) - x)) < 1e-12

    def test_inverse_newton_only_on_kink_image(self, kink):
        # h is linear outside [h(lo), h(hi)]: there h^{-1} is the closed form,
        # bit for bit; inside, at the endpoints and outside, h(h^{-1}(y)) = y
        h = build_h(kink)
        lo, hi = kink.support
        A, B = h(np.array([lo, hi]))
        assert (A, B) == h.kink_image
        inside = np.linspace(A, B, 201)
        left = np.linspace(A - 30.0, A, 50, endpoint=False)
        right = np.linspace(B, B + 30.0, 51)[1:]
        y = np.concatenate([left, inside, right])
        assert np.max(np.abs(h(h.inverse(y)) - y)) < 1e-12
        b0 = kink.beta0
        assert np.array_equal(h.inverse(left),
                              lo + (left - A) * kink.beta_left / b0)
        assert np.array_equal(h.inverse(right),
                              hi + (right - B) * kink.beta_right / b0)
        assert np.max(np.abs(h.inverse(np.array([A, B])) - [lo, hi])) < 1e-12

    def test_inverse_roundtrip_property(self, kink):
        # h(h^{-1}(y)) = y and h^{-1}(h(x)) = x within 64 eps max(L, |y|), in
        # both volumes, over three periods, on both branches, at the edges
        # of the kink image and its reflection, at +-L/4 and for 0-d input
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        maps = {(finite, L): build_h(kink, VolumeContext(kink, L)
                                     if finite else None)
                for finite in (False, True) for L in (40.0, 80.0)}

        def special(h, L):
            """Kink-image edges, their neighbours and +-L/4, each also
            reflected (x -> -x - L/2) and shifted by one period."""
            pts = []
            for a in h.kink_image + (0.25 * L, -0.25 * L):
                pts += [a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf)]
            pts += [-a - 0.5 * L for a in pts]
            return [a + k * L for a in pts for k in (-1, 0, 1)]

        @hypothesis.settings(max_examples=200, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(key=st.sampled_from(sorted(maps)), data=st.data(),
                          scalar=st.booleans())
        def check(key, data, scalar):
            h, L = maps[key], key[1]
            value = st.one_of(st.floats(-1.5 * L, 1.5 * L),
                              st.sampled_from(special(h, L)))
            if scalar:
                y = data.draw(value)
                assert np.ndim(h.inverse(y)) == 0 and np.ndim(h(y)) == 0
            else:
                y = np.array(data.draw(st.lists(value, min_size=1,
                                                max_size=8)))
            tol = 64 * np.finfo(float).eps * np.maximum(L, np.abs(y))
            assert np.all(np.abs(h(h.inverse(y)) - y) <= tol)
            assert np.all(np.abs(h.inverse(h(y)) - y) <= tol)

        check()

    def test_inverse_of_concatenation_property(self, kink):
        # each point's h^{-1} depends on that point alone: the inverse of a
        # concatenation is the concatenation of the pieces' inverses, bit
        # for bit, in both volumes, with points drawn mostly on the kink
        # image, where Newton polishes them
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        maps = {(finite, L): build_h(kink, VolumeContext(kink, L)
                                     if finite else None)
                for finite in (False, True) for L in (40.0, 80.0)}

        @hypothesis.settings(max_examples=100, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(key=st.sampled_from(sorted(maps)), data=st.data())
        def check(key, data):
            h, L = maps[key], key[1]
            A, B = h.kink_image
            value = st.one_of(st.floats(A, B), st.floats(-1.5 * L, 1.5 * L),
                              st.floats(A - L, B - L))
            pieces = [np.array(piece) for piece in data.draw(st.lists(
                st.lists(value, min_size=1, max_size=6), min_size=2,
                max_size=4))]
            whole = h.inverse(np.concatenate(pieces))
            assert np.array_equal(whole, np.concatenate(
                [h.inverse(piece) for piece in pieces]))

        check()

    def test_inverse_takes_at_most_three_sweeps(self, kink, monkeypatch):
        # every h^{-1} call of the benchmark's seed-0 node sets (their
        # fields and their flows, both movers of infinite-moments and both
        # boxes of finite-boxes) starts Newton from the tabulated integral
        # and stops within 3 sweeps
        sweeps, calls = [], [0]
        call, newton = ReparamMap.__call__, ReparamMap._newton

        def counted_call(self, x):
            calls[0] += 1
            return call(self, x)

        def counted_newton(self, x, y):
            calls[0] = 0
            out = newton(self, x, y)
            sweeps.append(calls[0])
            return out

        monkeypatch.setattr(ReparamMap, "__call__", counted_call)
        monkeypatch.setattr(ReparamMap, "_newton", counted_newton)
        moments = Numerics(dx=0.08, window_pad_gamma=5.0, window_factor=3.5,
                           p_max_gamma=26.0, s_nodes=4)
        for lam in (-0.04, -0.02, 0.02, 0.04):
            s = gauss_legendre_panels(4, [0.0, lam / kink.delta_beta])[0]
            sets = [cylinder_nodes(kink, 1.0, 4.0, mover, s, moments)
                    for mover in "+-"]
            sets += [torus_nodes(kink, VolumeContext(kink, L), 4.0, s,
                                 Numerics(n_modes=n, s_nodes=4))
                     for L, n in ((40.0, 192), (80.0, 384))]
            for nodes in sets:
                nodes.xi_values
                _line_flow_family(nodes.xi, nodes.s_values, nodes.grid)
        assert len(sweeps) > 0 and max(sweeps) <= 3

    @pytest.mark.parametrize("volume", ["infinite", "finite"])
    def test_inverse_scalar_matches_array(self, kink, box, volume):
        h = build_h(kink, box if volume == "finite" else None)
        y = np.array([-25.0, -3.0, -0.4, 0.3, 2.0, 25.0])
        arr = h.inverse(y)
        scalars = [h.inverse(float(v)) for v in y]
        assert all(np.ndim(v) == 0 for v in scalars)
        assert np.max(np.abs(np.array(scalars, dtype=float) - arr)) < 1e-12
        assert np.max(np.abs(h(arr) - y)) < 1e-12

    def test_hL_approaches_h_at_rate_one_over_L(self, kink):
        # |h_L(x) - shift - h(x)| on a compact set halves when L doubles
        h = build_h(kink)
        x = np.linspace(-3, 3, 101)
        errs = []
        for L in (60.0, 120.0):
            hl = build_h(kink, VolumeContext(kink, L))
            diff = hl(x) - h(x)
            errs.append(np.max(np.abs(diff - np.mean(diff))))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)


class TestXiField:
    def test_plateau_value_and_length(self, kink):
        # for vt >= 2 delta the + field equals gamma dbeta / beta_left on a
        # plateau of length (beta0/beta_left)(vt - 2 delta) ending at h(a-delta)
        xi = build_xi(kink, InfiniteVolume(1.0), 4.0, "+")
        h = build_h(kink)
        A = float(h(np.array([-1.0]))[0])
        plat = xi.gamma * kink.delta_beta / kink.beta_left
        assert plat == pytest.approx(-xi.gamma / 2.0, abs=1e-14)
        lo = A - kink.beta0 / kink.beta_left * 2.0
        inside = np.linspace(lo + 1e-6, A - 1e-6, 101)
        assert np.max(np.abs(xi(inside) - plat)) < 1e-11
        assert np.max(np.abs(xi(np.linspace(1.3, 20, 50)))) == 0.0

    def test_zero_plateau_length_at_2delta(self, kink):
        xi = build_xi(kink, InfiniteVolume(1.0), 2.0, "+")
        h = build_h(kink)
        A = float(h(np.array([-1.0]))[0])
        assert xi(np.array([A])).item() == pytest.approx(
            -xi.gamma / 2.0, abs=1e-9)

    def test_minus_mover_is_reflected_plus(self, kink):
        y = np.linspace(-25, 25, 501)
        xi_m = build_xi(kink, InfiniteVolume(1.0), 3.0, "-")
        xi_p = build_xi(kink, InfiniteVolume(1.0), -3.0, "+")
        assert np.max(np.abs(xi_m(y) - xi_p(-y))) < 1e-13

    def test_recentered_finite_field_converges(self, kink):
        xi_inf = build_xi(kink, InfiniteVolume(1.0), 1.0, "+")
        h = build_h(kink)
        A = float(h(np.array([-1.0]))[0])
        y = np.linspace(-4, 3, 301)
        errs, Ls = [], [40.0, 80.0, 160.0]
        for L in Ls:
            ctx = VolumeContext(kink, L)
            hl = build_h(kink, ctx)
            o_l = float(hl(np.array([-1.0]))[0]) - A
            xi_l = build_xi(kink, ctx, 1.0)
            errs.append(np.max(np.abs(xi_l(y + o_l) - xi_inf(y))))
        slope = fit_loglog_slope(Ls, errs)
        assert -1.3 < slope < -0.7


def line_window(xi, s):
    """Window around the support of xi padded by 6 gamma + |gamma s| + 1,
    with spacing at most 0.02."""
    lo, hi = xi.support
    pad = 6.0 * xi.gamma + abs(xi.gamma * s) + 1.0
    span = (hi - lo) + 2 * pad
    return LineGrid(x0=lo - pad, span=span,
                    M=1 << int(np.ceil(np.log2(span / 0.02))))


def ode_flow(rhs, s, y0):
    """DOP853 solution of dy/ds = rhs(s, y), y(0) = y0, at flow time s."""
    sol = solve_ivp(rhs, (0.0, s), y0, method="DOP853", rtol=1e-13,
                    atol=3e-14)
    assert sol.success, sol.message
    return sol.y[:, -1]


class TestFlows:
    # measured max |closed form - DOP853| at t = 4, s = -0.3 and 0.3:
    # circle 3.0e-12, line + 3.1e-12, line - 1.7e-13, inverse + 2.4e-12,
    # inverse - 1.4e-13.  The gap is the integrator's: it shrinks when
    # DOP853's tolerance is tightened
    @pytest.mark.parametrize("s", [-0.3, 0.3])
    @pytest.mark.parametrize("case", ["circle", "line+", "line-",
                                      "inverse+", "inverse-"])
    def test_closed_form_matches_ode(self, kink, box, case, s):
        if case == "circle":
            xi = build_xi(kink, box, 4.0)
            grid = PeriodicGrid(box.L, 512, x0=-0.75 * box.L)
            ref = ode_flow(lambda ss, y: -xi.zeta(y), s, grid.x)
        else:
            xi = build_xi(kink, InfiniteVolume(1.0), 4.0, case[-1])
            grid = line_window(xi, s)
            gamma = xi.gamma
            if case.startswith("line"):
                ref = ode_flow(lambda ss, y: -xi(y - gamma * ss), s, grid.x)
            else:
                # g_s^{-1}(y) = f_{-s}(y - gamma s): the flow of +zeta
                ref = ode_flow(lambda ss, y: xi.zeta(y), s, grid.x - gamma * s)
        f, finv = flow_family(xi, [s], grid)[0]
        flow = finv if case.startswith("inverse") else f
        assert np.max(np.abs(flow.samples - ref)) < 1e-11

    def test_zero_time_flow_is_identity(self, kink, box):
        xi = build_xi(kink, box, 1.0)
        grid = PeriodicGrid(box.L, 512, x0=-30.0)
        f, _ = flow_family(xi, [0.0], grid)[0]
        assert np.array_equal(f.samples, grid.x)

    def test_circle_diffeo_invariants(self, kink, box):
        xi = build_xi(kink, box, 2.0)
        grid = PeriodicGrid(box.L, 2048, x0=-30.0)
        f, _ = flow_family(xi, [0.3], grid)[0]
        x = np.linspace(-5, 5, 41)
        assert np.max(np.abs(f(x + box.L) - f(x) - box.L)) < 1e-10
        assert np.min(f.deriv_samples(1)) > 0

    def test_line_flow_identity_outside_support(self, kink):
        xi = build_xi(kink, InfiniteVolume(1.0), 2.0, "+")
        g, _ = flow_family(xi, [0.4], line_window(xi, 0.4))[0]
        lo, hi = g.support
        grid = g.grid
        outside = (grid.x < lo - 0.1) | (grid.x > hi + 0.1)
        assert np.max(np.abs(g.samples[outside] - grid.x[outside])) < 1e-12
        assert np.min(g.deriv_samples(1)) > 0

    def test_line_flow_inverse_is_backward_flow(self, kink):
        xi = build_xi(kink, InfiniteVolume(1.0), 2.0, "+")
        grid = line_window(xi, 0.3)
        g, gi = flow_family(xi, [0.3], grid)[0]
        x = np.linspace(*g.support, 101)
        assert np.max(np.abs(gi(g(x)) - x)) < 1e-10

    def test_recentered_line_flow_rate(self, kink):
        xi_inf = build_xi(kink, InfiniteVolume(1.0), 1.0, "+")
        g_inf, _ = flow_family(xi_inf, [0.3], line_window(xi_inf, 0.3))[0]
        h = build_h(kink)
        A = float(h(np.array([-1.0]))[0])
        pts = np.linspace(-5, 3, 101)
        ref = g_inf(pts)
        errs, Ls = [], [40.0, 80.0, 160.0]
        for L in Ls:
            ctx = VolumeContext(kink, L)
            grid = PeriodicGrid(L, int(2048 * L / 40), x0=-0.75 * L)
            f_l, _ = flow_family(build_xi(kink, ctx, 1.0), [0.3], grid)[0]
            hl = build_h(kink, ctx)
            o_l = float(hl(np.array([-1.0]))[0]) - A
            g_l = f_l(pts + o_l) - o_l + ctx.gammaL * 0.3
            errs.append(np.max(np.abs(g_l - ref)))
        slope = fit_loglog_slope(Ls, errs)
        assert -1.3 < slope < -0.7

    @pytest.mark.parametrize("volume", ["finite", "infinite"])
    def test_family_inverse_and_zero_time(self, kink, box, volume):
        times = [-0.2, 0.0, 0.1, 0.3]
        if volume == "finite":
            xi = build_xi(kink, box, 1.0)
            grid = PeriodicGrid(box.L, 2048, x0=-0.75 * box.L)
        else:
            xi = build_xi(kink, InfiniteVolume(1.0), 2.0, "+")
            grid = line_window(xi, 0.3)
        fwd, inv = zip(*flow_family(xi, times, grid))
        for s, f, fi in zip(times, fwd, inv):
            assert np.max(np.abs(f(fi.samples) - grid.x)) < 1e-10, s
        assert np.array_equal(fwd[1].samples, grid.x)
        assert np.array_equal(inv[1].samples, grid.x)
        if volume == "infinite":
            assert fwd[1].support == (0.0, 0.0)
            assert inv[1].support == (0.0, 0.0)

    @pytest.mark.parametrize("case", ["circle", "line+", "line-"])
    def test_family_pairs_equal_one_time_calls(self, kink, box, case):
        # h and h^{-1} act point by point, so a map and its inverse keep
        # their bits whichever times share the family
        if case == "circle":
            xi = build_xi(kink, box, 1.0)
            grid = PeriodicGrid(box.L, 512, x0=-0.75 * box.L)
        else:
            xi = build_xi(kink, InfiniteVolume(1.0), 2.0, case[-1])
            grid = line_window(xi, 0.4)
        for times in ([-0.2, 0.0, 0.1, 0.3], [0.4, -0.4, 1e-9], []):
            family = flow_family(xi, times, grid)
            assert len(family) == len(times)
            for s, pair in zip(times, family):
                for got, ref in zip(pair, flow_family(xi, [s], grid)[0]):
                    assert got.samples.tobytes() == ref.samples.tobytes(), s

    @pytest.mark.parametrize("volume", ["finite", "infinite"])
    def test_family_takes_two_inverse_calls(self, kink, box, monkeypatch,
                                            volume):
        # the node set's flows, maps and inverses together: one h^{-1} call
        # for phi and one for phi^{-1}, on the line as on the circle
        calls = []
        inverse = ReparamMap.inverse
        monkeypatch.setattr(ReparamMap, "inverse", lambda self, y:
                            calls.append(y) or inverse(self, y))
        num = Numerics(n_modes=64, s_nodes=4, dx=0.08, window_pad_gamma=5.0,
                       window_factor=3.5, p_max_gamma=14.0)
        s = gauss_legendre_panels(4, [0.0, 0.3])[0]
        nodes = (torus_nodes(kink, box, 2.0, s, num) if volume == "finite"
                 else cylinder_nodes(kink, 1.0, 2.0, "+", s, num))
        pairs = _line_flow_family(nodes.xi, nodes.s_values, nodes.grid)
        assert len(pairs) == 4 and len(calls) == 2


def schwarzian(d1, d2, d3):
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


def bump_derivatives(u):
    """phi = e^{1/(u^2 - 1)} on |u| < 1, zero elsewhere, and its first three
    derivatives, by the chain rule on g = 1/(u^2 - 1)."""
    out = np.zeros((4,) + u.shape)
    m = np.abs(u) < 1.0
    v = u[m]
    q = v * v - 1.0
    g1, g2 = -2.0 * v / q ** 2, (6.0 * v * v + 2.0) / q ** 3
    g3 = -24.0 * v * (v * v + 1.0) / q ** 4
    phi = np.exp(1.0 / q)
    out[:, m] = [phi, phi * g1, phi * (g1 ** 2 + g2),
                 phi * (g1 ** 3 + 3.0 * g1 * g2 + g3)]
    return out


class TestDiffeo:
    # measured max |S f - closed form|: 1.7e-11 on the circle (|S f| up to
    # 0.39) and 1.4e-8 on the line (|S f| up to 4.0), where the bump's
    # transform falls slower than exponentially
    def test_schwarzian_on_the_circle(self):
        L = 10.0
        grid = PeriodicGrid(L, 128, x0=-L / 2)
        k, x = 2.0 * np.pi / L, grid.x
        a = 0.5 / k
        f = Diffeo(grid, x + a * np.sin(k * x))
        ref = schwarzian(1.0 + a * k * np.cos(k * x),
                         -a * k ** 2 * np.sin(k * x),
                         -a * k ** 3 * np.cos(k * x))
        assert np.max(np.abs(f.schwarzian - ref)) < 1e-10

    def test_schwarzian_of_a_compactly_supported_line_map(self):
        # f = x + a phi(x / w), the identity off [-w, w], f' >= 0.6
        grid = LineGrid(-10.0, 20.0, 2048)
        w, a = 5.0, 2.5
        phi = bump_derivatives(grid.x / w)
        f = Diffeo(grid, grid.x + a * phi[0])
        ref = schwarzian(1.0 + a / w * phi[1], a / w ** 2 * phi[2],
                         a / w ** 3 * phi[3])
        assert np.max(np.abs(f.schwarzian - ref)) < 1e-7
