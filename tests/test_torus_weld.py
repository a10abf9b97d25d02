import numpy as np
import pytest

from weldfcs import (CircleDiffeo, Numerics, TorusWeldProblem, assemble_K,
                     build_xi, effective_tau, flow_family,
                     residual_diagnostics, solve_Y1, torus_nodes)
from weldfcs.errors import QOnUnitCircle, TruncationTooCoarse
from weldfcs.spectral import PeriodicGrid

L = 40.0


def make_grid(n_modes, x0=-0.75 * L, factor=4):
    return PeriodicGrid(L, factor * n_modes, x0=x0)


class TestAssembly:
    def test_identity_gives_free_operator(self):
        N = 64
        grid = make_grid(N)
        f0 = CircleDiffeo(grid, grid.x.copy())
        blocks = assemble_K(TorusWeldProblem(f0, 0.1j, N))
        q = np.exp(2j * np.pi * 0.1j)
        ref = q ** np.abs(blocks.modes)
        assert np.max(np.abs(np.diag(blocks.K) - ref)) < 1e-13
        offdiag = blocks.K - np.diag(np.diag(blocks.K))
        assert np.max(np.abs(offdiag)) < 1e-13
        assert np.max(np.abs(blocks.K11)) < 1e-13

    def test_translation_gives_phase_matrix(self):
        N = 64
        b = 2.0
        grid = make_grid(N)
        ft = CircleDiffeo(grid, grid.x - b)
        blocks = assemble_K(TorusWeldProblem(ft, 0.1j, N))
        pn = 2 * np.pi * blocks.modes / L
        assert np.max(np.abs(np.diag(blocks.F) - np.exp(-1j * pn * b))) < 1e-12
        assert np.max(np.abs(blocks.K11)) < 1e-12

    def test_refinement_consistency_on_shared_modes(self):
        eps = 0.02 * L / (2 * np.pi)
        entries = {}
        for N in (48, 96):
            grid = make_grid(N)
            f = CircleDiffeo(grid, grid.x + eps * np.sin(2 * np.pi * grid.x / L))
            blocks = assemble_K(TorusWeldProblem(f, 0.15j, N))
            sel = blocks.modes.searchsorted(np.arange(-16, 17))
            entries[N] = blocks.K[np.ix_(sel, sel)]
        assert np.max(np.abs(entries[48] - entries[96])) < 1e-10

    def test_q_on_unit_circle_rejected(self):
        N = 16
        grid = make_grid(N)
        f0 = CircleDiffeo(grid, grid.x.copy())
        with pytest.raises(QOnUnitCircle):
            TorusWeldProblem(f0, 1e-14j, N)

    def test_truncation_alarm(self, kink, box):
        xi = build_xi(kink, box, 2.0)
        grid = make_grid(64)
        f = flow_family(xi, [0.25], grid)[0]
        with pytest.raises(TruncationTooCoarse):
            assemble_K(TorusWeldProblem(f, 0.1j, 64, tail_tol=1e-12))


class TestSolve:
    def test_identity(self):
        N = 64
        grid = make_grid(N)
        f0 = CircleDiffeo(grid, grid.x.copy())
        sol = solve_Y1(TorusWeldProblem(f0, 0.1j, N))
        assert np.max(np.abs(sol.y1_coeff)) == 0.0
        assert sol.tau_eff == 0.1j

    def test_translation(self):
        N = 64
        grid = make_grid(N)
        ft = CircleDiffeo(grid, grid.x - 0.05 * L)
        sol = solve_Y1(TorusWeldProblem(ft, 0.1j, N))
        assert np.max(np.abs(sol.y1_coeff)) < 1e-14
        assert abs(sol.tau_eff - (0.1j + 0.05)) < 1e-13
        d = residual_diagnostics(sol)
        assert d["tau_two_route"] < 1e-12

    def test_sine_matches_fine_reference(self):
        eps = 0.02 * L / (2 * np.pi)
        sols = {}
        for N, factor in ((64, 4), (256, 4)):
            grid = make_grid(N, factor=factor)
            f = CircleDiffeo(grid, grid.x + eps * np.sin(2 * np.pi * grid.x / L))
            sols[N] = solve_Y1(TorusWeldProblem(f, 0.15j, N))
        shared = np.arange(-16, 17)
        a = sols[64].y1_coeff[sols[64].modes.searchsorted(shared)]
        b = sols[256].y1_coeff[sols[256].modes.searchsorted(shared)]
        assert np.max(np.abs(a - b)) < 1e-8
        assert abs(sols[64].tau_eff - sols[256].tau_eff) < 1e-8

    def test_solution_relations(self, kink, box):
        sol = next(torus_nodes(kink, box, 2.0, [0.25], Numerics(
            n_modes=256, tail_tol=1e-3)).solutions())
        # X2 = X1 + L tau^, X'1 periodic, lift by L
        assert np.max(np.abs(sol.x2 - sol.x1 - L * sol.tau_eff)) < 1e-12
        assert sol.tau_eff.imag > 0
        assert sol.solve_residual < 1e-10
        d = residual_diagnostics(sol)
        assert d["boundary_eq_1"] < 1e-10
        assert d["boundary_eq_2"] < 1e-10
        assert d["integrability"] < 1e-10
        assert d["tau_two_route"] < 1e-10
        assert d["xprime_sq_rel"] < 1e-8
        assert d["schwarzian_abs"] < 1e-7


class TestEffectiveTau:
    def test_zero_field_keeps_tau(self, kink, box):
        tau0 = 1j * box.gammaL / box.L
        # the end points of the two panels over [0, 0.3]
        for s_end, panels in ((0.15, 1), (0.3, 2)):
            action, tau_hat = effective_tau(kink, box, 0.0, s_end, Numerics(
                n_modes=96, tail_tol=1e-8, s_nodes=4, s_panels=panels))
            assert abs(tau_hat - tau0) < 1e-13
            assert abs(action) < 1e-13

    def test_initial_slope_is_field_mean(self, kink, box):
        # at s = 0 the welding is trivial, so d tau^/ds = L^-2 int xi dx
        xi = build_xi(kink, box, 2.0)
        grid = make_grid(192)
        ds = 2e-5
        _, tau_hat = effective_tau(kink, box, 2.0, ds, Numerics(
            n_modes=192, tail_tol=1e-3, s_nodes=4, s_panels=1))
        slope = (tau_hat - 1j * box.gammaL / box.L) / ds
        ref = grid.integral(xi(grid.x)) / box.L ** 2
        assert abs(slope - ref) < 1e-7

    def test_path_against_direct_solve(self, kink, box):
        num = Numerics(n_modes=192, tail_tol=1e-3, s_nodes=8, s_panels=2)
        _, tau_hat = effective_tau(kink, box, 2.0, 0.25, num)
        direct = next(torus_nodes(kink, box, 2.0, [0.25], num).solutions())
        assert abs(tau_hat - direct.tau_eff) < 1e-10
