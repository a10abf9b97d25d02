import numpy as np
import pytest

from weldfcs import (CylinderWeldProblem, InfiniteVolume, LineDiffeo,
                     Numerics, assemble_sigma, build_xi, flow_family,
                     realspace_crosscheck, solve_cylinder)
from weldfcs.cylinder_weld import _inverse_displacement, _substitution_kernel
from weldfcs.errors import WindowTooSmall
from weldfcs.fcs import cylinder_grid
from weldfcs.profile import build_h
from weldfcs.spectral import LineGrid


def solve_kink(kink, t, s, num=None, p_max_gamma=33.0):
    num = num or Numerics(dx=0.02, window_pad_gamma=6.0, window_factor=4.0)
    xi = build_xi(kink, InfiniteVolume(1.0), t, "+")
    grid = cylinder_grid(xi, s, num)
    g = flow_family(xi, [s], grid)[0]
    gi = flow_family(xi, [s], grid, inverse=True)[0]
    prob = CylinderWeldProblem(g, xi.gamma, p_max_gamma / xi.gamma,
                               g_inverse=gi)
    return xi, prob, solve_cylinder(prob)


class TestAssembly:
    def test_identity_gives_zero_operator(self, kink):
        grid = LineGrid(-20.0, 40.0, 512)
        g0 = LineDiffeo(grid, grid.x.copy())
        op = assemble_sigma(CylinderWeldProblem(g0, kink.beta0, 20.0))
        assert np.max(np.abs(op.sigma)) == 0.0
        assert np.max(np.abs(op.z12_ext)) == 0.0

    def test_entries_stable_under_pmax_doubling(self, kink):
        xi = build_xi(kink, InfiniteVolume(1.0), 2.0, "+")
        num = Numerics(dx=0.012, window_pad_gamma=6.0, window_factor=4.0)
        grid = cylinder_grid(xi, 0.25, num)
        g = flow_family(xi, [0.25], grid)[0]
        gi = flow_family(xi, [0.25], grid, inverse=True)[0]
        ops = {}
        for pm in (40.0, 80.0):
            ops[pm] = assemble_sigma(CylinderWeldProblem(g, xi.gamma, pm,
                                                         g_inverse=gi))
        small, big = ops[40.0], ops[80.0]
        pos = np.searchsorted(big.psol, small.psol)
        sub = big.sigma[np.ix_(pos, pos)]
        # entries well inside the smaller cutoff; the outermost rows are the
        # ones the extension is meant to improve
        inner = np.abs(small.psol) <= 24.0
        assert np.max(np.abs((sub - small.sigma)[np.ix_(inner, inner)])) < 1e-10

    def test_kernel_blocks_match_longdouble_sum(self, kink):
        # A(p, q) = dx sum_m e^{i(p-q)x_m} (e^{-i q d_m} - 1) over the whole
        # lattice, in extended precision, at sampled (p, q); B likewise from
        # the inverse displacement
        _, prob, sol = solve_kink(kink, 4.0, 0.3)
        grid, psol = prob.grid, sol.operator.psol
        x = grid.x.astype(np.longdouble)
        dx = np.longdouble(grid.dx)
        rng = np.random.default_rng(7)
        rows = rng.choice(len(psol), 12, replace=False)
        cols = rng.choice(len(psol), 12, replace=False)
        for disp in (prob.g.displacement(), _inverse_displacement(prob)):
            block, _, _ = _substitution_kernel(grid, disp, psol, 1.0)
            d = disp.astype(np.longdouble)
            worst = 0.0
            for j in cols:
                q = np.longdouble(psol[j])
                a = -q * d
                # e^{ia} - 1 = -2 sin^2(a/2) + i sin(a), without cancellation
                em_re, em_im = -2.0 * np.sin(0.5 * a) ** 2, np.sin(a)
                for r in rows:
                    ph = (np.longdouble(psol[r]) - q) * x
                    c, sn = np.cos(ph), np.sin(ph)
                    ref = complex(float(dx * np.sum(c * em_re - sn * em_im)),
                                  float(dx * np.sum(sn * em_re + c * em_im)))
                    worst = max(worst, abs(block[r, j] - ref))
            assert worst < 1e-13 * np.max(np.abs(block))

    def test_inverse_displacement_vanishes_off_the_hull(self, kink):
        # g^{-1} fixes every lattice point outside the hull of the points g
        # moves; the flowed inverse leaves only round-off there
        _, prob, _ = solve_kink(kink, 4.0, 0.3)
        x = prob.grid.x
        moved = np.nonzero(prob.g.displacement())[0]
        hull = np.zeros(len(x), dtype=bool)
        hull[moved[0]:moved[-1] + 1] = True
        disp = _inverse_displacement(prob)
        flowed = prob.g_inverse.samples - x
        assert np.all(disp[~hull] == 0.0)
        assert np.array_equal(disp[hull], flowed[hull])
        assert np.max(np.abs(flowed[~hull])) < 1e-13

    def test_source_matches_per_column_definition(self):
        # z12 = -sum_{q>0} W A(p, q) e^{-gamma q} ghat(q) - e^{-gamma p} ghat
        # (p > 0) or + ghat (p < 0), with every column of A summed over the
        # whole lattice; a compact bump displacement, zero off [-2, 2]
        grid = LineGrid(-16.0, 32.0, 256)
        x = grid.x
        disp = np.zeros_like(x)
        core = np.abs(x) < 2.0
        disp[core] = 0.3 * np.exp(-1.0 / (1.0 - (x[core] / 2.0) ** 2))
        gamma = 1.0
        op = assemble_sigma(CylinderWeldProblem(
            LineDiffeo(grid, x + disp), gamma, 10.0))
        p, dx, W = grid.p, grid.dx, grid.dp / (2.0 * np.pi)
        phase = np.exp(1j * np.outer(p, x))
        ghat = phase @ disp * dx
        daq = np.zeros(grid.M, dtype=complex)
        for q in op.psol[op.psol > 0]:
            col = phase @ (np.expm1(-1j * q * disp) * np.exp(-1j * q * x)) * dx
            daq += col * (W * np.exp(-gamma * q) * ghat[np.searchsorted(p, q)])
        ref = -daq - np.where(p > 0, np.exp(-gamma * np.clip(p, 0.0, None)),
                              -1.0) * ghat
        assert np.max(np.abs(op.z12_ext - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_schwartz_decay_diagnostic(self, kink):
        _, _, sol = solve_kink(kink, 4.0, 0.3)
        d = sol.operator.diagnostics
        assert np.isfinite(d["schwartz_bound"])
        # weighted kernel bounded by an O(10) constant for the default kink
        assert d["schwartz_bound"] < 100.0

    def test_window_too_small(self, kink):
        xi = build_xi(kink, InfiniteVolume(1.0), 2.0, "+")
        lo, hi = xi.support
        grid = LineGrid(lo - 2.0, (hi - lo) + 4.0, 512)
        g = flow_family(xi, [0.2], grid)[0]
        with pytest.raises(WindowTooSmall):
            CylinderWeldProblem(g, xi.gamma, 10.0)


class TestSolve:
    def test_identity(self, kink):
        grid = LineGrid(-20.0, 40.0, 512)
        g0 = LineDiffeo(grid, grid.x.copy())
        sol = solve_cylinder(CylinderWeldProblem(g0, kink.beta0, 20.0))
        assert np.max(np.abs(sol.xprime - 1.0)) == 0.0
        assert np.max(np.abs(sol.y1p())) == 0.0
        assert np.max(np.abs(sol.schwarzian)) == 0.0

    def test_linear_response_formula(self, kink):
        # central difference across s = +-1e-4 against the closed-form
        # momentum integral for the first-order response of X'
        xi = build_xi(kink, InfiniteVolume(1.0), 2.0, "+")
        num = Numerics(dx=0.02, window_pad_gamma=6.0, window_factor=4.0)
        grid = cylinder_grid(xi, 1e-4, num)
        xp = {}
        for sgn in (1.0, -1.0):
            g = flow_family(xi, [sgn * 1e-4], grid)[0]
            gi = flow_family(xi, [sgn * 1e-4], grid, inverse=True)[0]
            xp[sgn] = solve_cylinder(
                CylinderWeldProblem(g, xi.gamma, 33.0 / xi.gamma,
                                    g_inverse=gi)).xprime
        d_num = (xp[1.0] - xp[-1.0]) / 2e-4
        xihat = grid.ft(xi(grid.x))
        todd = grid.p / -np.expm1(-xi.gamma * grid.p)
        d_ref = grid.ift(1j * todd * xihat)
        lo, hi = xi.support
        m = (grid.x > lo - 3) & (grid.x < hi + 3)
        assert np.max(np.abs(d_num[m] - d_ref[m])) < 1e-6

    def test_linear_response_of_schwarzian(self, kink):
        # third-derivative version of the same response
        xi = build_xi(kink, InfiniteVolume(1.0), 2.0, "+")
        num = Numerics(dx=0.02, window_pad_gamma=6.0, window_factor=4.0)
        grid = cylinder_grid(xi, 1e-4, num)
        sx = {}
        for sgn in (1.0, -1.0):
            g = flow_family(xi, [sgn * 1e-4], grid)[0]
            gi = flow_family(xi, [sgn * 1e-4], grid, inverse=True)[0]
            sx[sgn] = solve_cylinder(
                CylinderWeldProblem(g, xi.gamma, 33.0 / xi.gamma,
                                    g_inverse=gi)).schwarzian
        d_num = (sx[1.0] - sx[-1.0]) / 2e-4
        xihat = grid.ft(xi(grid.x))
        kern = grid.p ** 3 / -np.expm1(-xi.gamma * grid.p)
        d_ref = grid.ift(-1j * kern * xihat)
        lo, hi = xi.support
        m = (grid.x > lo - 3) & (grid.x < hi + 3)
        assert np.max(np.abs(d_num[m] - d_ref[m])) < 2e-4

    def test_bulk_translation_asymptotics(self, kink):
        s = 0.3
        _, _, sol = solve_kink(kink, 8.0, s)
        h = build_h(kink)
        A = h(np.array([-1.0])).item()
        mid = A - 0.5 * kink.beta0 / kink.beta_left * 6.0
        pred = 1.0 / (1.0 - 1j * kink.delta_beta / kink.beta_left * s)
        val = sol.xprime_at(np.array([mid]))[0]
        assert abs(val - pred) < 1e-3

    def test_mover_reflection(self, kink):
        num = Numerics(dx=0.02, window_pad_gamma=6.0, window_factor=4.0)
        xim = build_xi(kink, InfiniteVolume(1.0), 2.0, "-")
        gm_grid = cylinder_grid(xim, 0.25, num)
        gm = flow_family(xim, [0.25], gm_grid)[0]
        solm = solve_cylinder(CylinderWeldProblem(
            gm, xim.gamma, 33.0 / xim.gamma,
            g_inverse=flow_family(xim, [0.25], gm_grid, inverse=True)[0]))
        xip = build_xi(kink, InfiniteVolume(1.0), -2.0, "+")
        gp_grid = cylinder_grid(xip, 0.25, num)
        gp = flow_family(xip, [-0.25], gp_grid)[0]
        solp = solve_cylinder(CylinderWeldProblem(
            gp, xip.gamma, 33.0 / xip.gamma,
            g_inverse=flow_family(xip, [-0.25], gp_grid, inverse=True)[0]))
        lo, hi = xim.support
        pts = np.linspace(lo - 1, hi + 1, 201)
        assert np.max(np.abs(solm.xprime_at(pts)
                             - np.conj(solp.xprime_at(-pts)))) < 1e-9

    def test_exponential_tail_and_nonvanishing(self, kink):
        _, _, sol = solve_kink(kink, 2.0, 0.25)
        d = sol.decay_diagnostics()
        assert abs(d["xprime_tail_rate"] - d["expected_rate"]) \
            < 0.1 * d["expected_rate"]
        assert d["xprime_min_abs"] > 0.5
        assert sol.cond_estimate < 100.0
        assert sol.solve_residual < 1e-10


class TestRealspaceCrosscheck:
    def test_identity(self, kink):
        grid = LineGrid(-20.0, 40.0, 1024)
        g0 = LineDiffeo(grid, grid.x.copy())
        prob = CylinderWeldProblem(g0, kink.beta0, 20.0)
        sol = solve_cylinder(prob)
        d = realspace_crosscheck(prob, sol, probes=np.array([0.0, 3.0]))
        assert d["boundary_eq_1"] < 1e-12
        assert d["boundary_eq_2"] < 1e-12

    def test_kink_flow(self, kink):
        xi, prob, sol = solve_kink(kink, 2.0, 0.2, p_max_gamma=53.0)
        d = realspace_crosscheck(prob, sol, probes=np.linspace(-3, 1, 5))
        assert d["boundary_eq_1"] < 1e-6
        assert d["boundary_eq_2"] < 1e-6

    def test_defect_decreases_with_pmax(self, kink):
        defects = []
        for pm in (20.0, 33.0, 53.0):
            xi, prob, sol = solve_kink(kink, 2.0, 0.2, p_max_gamma=pm)
            d = realspace_crosscheck(prob, sol, probes=np.linspace(-2, 1, 3))
            defects.append(max(d["boundary_eq_1"], d["boundary_eq_2"]))
        assert defects[0] > defects[1] > defects[2]
