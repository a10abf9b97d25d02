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

    def test_blocks_match_longdouble_sums(self, kink, box):
        # Finv[m, n] = (1/L) int e^{i p_m x} e^{-i p_n f(x)} dx,
        # F[m, n] = (1/L) int f'(y) e^{i p_m f(y)} e^{-i p_n y} dy and
        # K11 = delta_mn e0p - sum_{k=0}^{N+b} Finv[m, k] F[k, n], as
        # extended-precision lattice sums at sampled (m, n); the band-edge
        # samples reach into the buffer
        N, s = 64, -0.3
        grid = make_grid(N)
        f = flow_family(build_xi(kink, box, 2.0), [s], grid)[0]
        prob = TorusWeldProblem(f, 1j * box.gammaL / L - box.gammaL * s / L,
                                N, tail_tol=1.0)
        blocks = assemble_K(prob)
        ld = np.longdouble
        x = ld(grid.x0) + ld(L) / grid.M * np.arange(grid.M, dtype=ld)
        fx, fp = f.samples.astype(ld), f.deriv_samples(1).astype(ld)
        two_pi_l = 8 * np.arctan(ld(1)) / ld(L)

        def e(ph):
            return np.cos(ph) + 1j * np.sin(ph)

        def finv(m, n):
            return e(two_pi_l * (np.multiply.outer(m, x)
                                 - np.multiply.outer(n, fx))).mean(axis=-1)

        def fmat(m, n):
            return (fp * e(two_pi_l * (np.multiply.outer(m, fx)
                                       - np.multiply.outer(n, x)))
                    ).mean(axis=-1)

        picks = np.array([-N, -N + 1, -1, 0, 1, N // 2, N - 1, N])
        rows = np.concatenate([picks, np.random.default_rng(3).integers(
            -N, N + 1, 6)])
        cols = np.concatenate([picks, np.random.default_rng(4).integers(
            -N, N + 1, 6)])
        k = np.arange(N + N // 2 + 1)
        prod = np.array([[np.sum(finv(m, k) * fmat(k, n)) for n in cols]
                         for m in rows])
        q = complex(prob.q)
        ref = {
            "K11": np.equal.outer(rows, cols) * (rows >= 0)[:, None] - prod,
            "K12": np.array([[finv(m, n) * q ** n if n >= 0 else 0.0
                              for n in cols] for m in rows]),
            "K21": np.array([[q ** -m * fmat(m, n) if m < 0 else 0.0
                              for n in cols] for m in rows]),
        }
        scale = np.max(np.abs(blocks.K))
        for name, block in (("K11", blocks.K11), ("K12", blocks.K12),
                            ("K21", blocks.K21)):
            got = block[np.ix_(rows + N, cols + N)]
            err = np.max(np.abs(got - ref[name].astype(complex)))
            assert err < 1e-13 * scale, name

    def test_truncation_alarm(self, kink, box):
        xi = build_xi(kink, box, 2.0)
        grid = make_grid(64)
        f = flow_family(xi, [0.25], grid)[0]
        with pytest.raises(TruncationTooCoarse):
            assemble_K(TorusWeldProblem(f, 0.1j, 64, tail_tol=1e-12))

    def test_tail_check_tracks_convergence(self, kink, box):
        # L = 40, t = 2, s = -0.3 at tail_tol 2e-3: N = 32 is rejected
        # (tau_eff there is 5e-7 off its converged value); N = 128 and 192
        # pass and agree to 4e-12, although K11's band-edge corner grows
        # over that range (9.9e-3 and 1.07e-2)
        xi = build_xi(kink, box, 2.0)
        s = -0.3
        tau = 1j * box.gammaL / L - box.gammaL * s / L

        def solve(N):
            f = flow_family(xi, [s], make_grid(N))[0]
            return solve_Y1(TorusWeldProblem(f, tau, N, tail_tol=2e-3))

        with pytest.raises(TruncationTooCoarse, match="raise n_modes"):
            solve(32)
        sol_192 = solve(192)
        assert abs(solve(128).tau_eff - sol_192.tau_eff) < 1e-11
        # a kernel whose two tau_eff routes disagree is rejected by the solve
        blocks = sol_192.blocks
        blocks.K12 = 2.0 * blocks.K12
        with pytest.raises(TruncationTooCoarse, match="two-route"):
            solve_Y1(sol_192.problem, blocks)


class TestSolve:
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
