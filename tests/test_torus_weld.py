import numpy as np
import pytest
import scipy.linalg as sla

from weldfcs import (Diffeo, Numerics, TorusWeldProblem, VolumeContext,
                     assemble_K, build_xi, effective_tau, flow_family,
                     residual_diagnostics, solve_Y1, torus_nodes, torus_weld)
from weldfcs.errors import QOnUnitCircle, SingularSystem, TruncationTooCoarse
from weldfcs.fcs import _gl_nodes, _torus_bytes
from weldfcs.spectral import PeriodicGrid
from weldfcs.torus_weld import TorusOperator

L = 40.0


def make_grid(n_modes, x0=-0.75 * L, factor=4):
    return PeriodicGrid(L, factor * n_modes, x0=x0)


def kink_problem(kink, N, t, s, tail_tol=1.0, length=L):
    """The pipeline's torus problem of the box field at flow time s (an
    L = 40 box by default), with the map and its inverse from the flows."""
    ctx = VolumeContext(kink, length, 1.0)
    xi = build_xi(kink, ctx, t)
    grid = PeriodicGrid(length, 4 * N, x0=-0.75 * length)
    f, finv = flow_family(xi, [s, -s], grid)
    tau = 1j * ctx.gammaL / length - ctx.gammaL * s / length
    return TorusWeldProblem(f, tau, N, finv, tail_tol)


def dense_blocks(prob):
    """K11, K12 and K21 formed from the dense substitution matrices
    Finv[m, n] = (1/M) sum_j e^{i p_m x_j} e^{-i p_n f(x_j)} and F, the same
    sum over f^{-1}, by direct exponentials: the oracle of the factored
    operator."""
    N, grid = prob.n_modes, prob.f.grid
    band, low = np.arange(-N, N + 1), np.arange(N + N // 2 + 1)

    def sub(g, rows, cols):
        return (np.exp(1j * grid.dp * np.outer(rows, grid.x))
                @ np.exp(-1j * grid.dp * np.outer(g.samples, cols)) / grid.M)

    finv = sub(prob.f, band, low)
    F = sub(prob.f_inverse, np.arange(-N, N + N // 2 + 1), band)
    qn = prob.q ** np.arange(N + 1, dtype=float)
    K11 = np.diag((band >= 0).astype(float)) - finv @ F[N:]
    K12 = np.zeros_like(K11)
    K12[:, N:] = finv[:, :N + 1] * qn[None, :]
    K21 = np.zeros_like(K11)
    K21[:N] = qn[N:0:-1, None] * F[:N]
    return K11, K12, K21


def factored_blocks(op):
    """K11, K12 and K21 as the factored operator applies them, column by
    column, through the residuals of the two boundary relations."""
    n = len(op.modes)
    eye, zero = np.eye(n, dtype=complex), np.zeros(n, dtype=complex)
    first = [op.residuals(e, zero) for e in eye]
    K11 = np.diag((op.modes >= 0).astype(float)) \
        - np.stack([r1 for r1, _ in first], axis=1)
    K21 = np.zeros((n, n), dtype=complex)
    K21[:n // 2] = -np.stack([r2 for _, r2 in first], axis=1)
    K12 = -np.stack([op.residuals(zero, e)[0] for e in eye], axis=1)
    return K11, K12, K21


def union_support(prob):
    """The grid points the map or its inverse moves."""
    return np.nonzero(np.logical_or(*prob.displacements))[0]


def tail_slabs(op, prob):
    """Per coupling block, the largest weighted entry of each of its two
    edge slabs from a scan of all four, and each slab's bound."""
    union = union_support(prob)
    slabs = torus_weld._edge_slabs(op, abs(prob.q),
                                   [d[union] for d in prob.displacements])
    return {name: [(scan(), bound) for bound, scan in pair]
            for name, pair in slabs.items()}


def held_arrays(op):
    """The arrays an operator holds, its phase factor's included."""
    return {name: a for obj in (op, op.phase) for name, a in vars(obj).items()
            if isinstance(a, np.ndarray)}


@pytest.fixture(scope="module")
def oracle_problems(kink):
    """A node of the benchmark's L = 40 box (t = 4, lambda = 0.04) and a
    node of criterion 9's t = 30 set (lambda = 0.2), at L = 40, N = 192."""
    probs = []
    for t, lam in ((4.0, 0.04), (30.0, 0.2)):
        s = _gl_nodes(lam / kink.delta_beta, 4, 1)[0][-1]
        probs.append(kink_problem(kink, 192, t, s))
    return probs


class TestAssembly:
    def test_identity_gives_free_operator(self):
        N = 64
        grid = make_grid(N)
        f0 = Diffeo(grid, grid.x.copy())
        op = assemble_K(TorusWeldProblem(f0, 0.1j, N, f0))
        K11, K12, K21 = factored_blocks(op)
        K = K11 + K12 + K21
        q = np.exp(2j * np.pi * 0.1j)
        ref = q ** np.abs(op.modes)
        assert np.max(np.abs(np.diag(K) - ref)) < 1e-13
        offdiag = K - np.diag(np.diag(K))
        assert np.max(np.abs(offdiag)) < 1e-13
        assert np.max(np.abs(K11)) < 1e-13

    def test_translation_gives_phase_matrix(self, lattice_phase):
        N = 64
        b = 2.0
        grid = make_grid(N)
        ft = Diffeo(grid, grid.x - b)
        prob = TorusWeldProblem(ft, 0.1j, N, Diffeo(grid, grid.x + b))
        op = assemble_K(prob)
        pn = 2 * np.pi * op.modes / L
        # F = (I + P_B V_B) conj(D_c) from the factors, on the band, with P
        # formed in extended precision
        n = 2 * N + 1
        P = lattice_phase(grid, union_support(prob), -N, n)
        F = (np.eye(n) + P @ op.vb) * op.dc[:n].conj()
        assert np.max(np.abs(np.diag(F) - np.exp(-1j * pn * b))) < 1e-12
        assert np.max(np.abs(factored_blocks(op)[0])) < 1e-12

    def test_refinement_consistency_on_shared_modes(self):
        eps = 0.02 * L / (2 * np.pi)
        entries = {}
        for N in (48, 96):
            grid = make_grid(N)
            f = Diffeo(grid, grid.x + eps * np.sin(2 * np.pi * grid.x / L))
            op = assemble_K(TorusWeldProblem(f, 0.15j, N, f.inverse()))
            K = sum(factored_blocks(op))
            sel = op.modes.searchsorted(np.arange(-16, 17))
            entries[N] = K[np.ix_(sel, sel)]
        assert np.max(np.abs(entries[48] - entries[96])) < 1e-10

    def test_q_on_unit_circle_rejected(self):
        N = 16
        grid = make_grid(N)
        f0 = Diffeo(grid, grid.x.copy())
        with pytest.raises(QOnUnitCircle):
            TorusWeldProblem(f0, 1e-14j, N, f0)

    def test_blocks_match_longdouble_sums(self, kink, box):
        # Finv[m, n] = (1/L) int e^{i p_m x} e^{-i p_n f(x)} dx,
        # F[m, n] = (1/L) int e^{i p_m x} e^{-i p_n f^{-1}(x)} dx and
        # K11 = delta_mn e0p - sum_{k=0}^{N+b} Finv[m, k] F[k, n], as
        # extended-precision lattice sums at sampled (m, n); the band-edge
        # samples reach into the buffer
        N, s = 64, -0.3
        prob = kink_problem(kink, N, 2.0, s)
        grid = prob.f.grid
        K11, K12, K21 = factored_blocks(assemble_K(prob))
        ld = np.longdouble
        x = ld(grid.x0) + ld(L) / grid.M * np.arange(grid.M, dtype=ld)
        fx, fix = (g.samples.astype(ld) for g in (prob.f, prob.f_inverse))
        two_pi_l = 8 * np.arctan(ld(1)) / ld(L)

        def e(ph):
            return np.cos(ph) + 1j * np.sin(ph)

        def sub(gx, m, n):
            return e(two_pi_l * (np.multiply.outer(m, x)
                                 - np.multiply.outer(n, gx))).mean(axis=-1)

        picks = np.array([-N, -N + 1, -1, 0, 1, N // 2, N - 1, N])
        rows = np.concatenate([picks, np.random.default_rng(3).integers(
            -N, N + 1, 6)])
        cols = np.concatenate([picks, np.random.default_rng(4).integers(
            -N, N + 1, 6)])
        k = np.arange(N + N // 2 + 1)
        prod = np.array([[np.sum(sub(fx, m, k) * sub(fix, k, n)) for n in cols]
                         for m in rows])
        q = complex(prob.q)
        ref = {
            "K11": np.equal.outer(rows, cols) * (rows >= 0)[:, None] - prod,
            "K12": np.array([[sub(fx, m, n) * q ** n if n >= 0 else 0.0
                              for n in cols] for m in rows]),
            "K21": np.array([[q ** -m * sub(fix, m, n) if m < 0 else 0.0
                              for n in cols] for m in rows]),
        }
        scale = np.max(np.abs(K11 + K12 + K21))
        for name, block in (("K11", K11), ("K12", K12), ("K21", K21)):
            got = block[np.ix_(rows + N, cols + N)]
            err = np.max(np.abs(got - ref[name].astype(complex)))
            assert err < 1e-13 * scale, name

    def test_truncation_alarm(self, kink, box):
        xi = build_xi(kink, box, 2.0)
        grid = make_grid(64)
        f, finv = flow_family(xi, [0.25, -0.25], grid)
        with pytest.raises(TruncationTooCoarse):
            assemble_K(TorusWeldProblem(f, 0.1j, 64, finv, tail_tol=1e-12))

    def test_tail_check_tracks_convergence(self, kink, box, monkeypatch):
        # L = 40, t = 2, s = -0.3 at tail_tol 2e-3: N = 32 is rejected
        # (tau_eff there is 5e-7 off its converged value); N = 128 and 192
        # pass and agree to 4e-12, although K11's band-edge corner grows
        # over that range (9.9e-3 and 1.07e-2)
        def solve(N):
            return solve_Y1(kink_problem(kink, N, 2.0, -0.3,
                                         tail_tol=2e-3))

        with pytest.raises(TruncationTooCoarse, match="raise n_modes"):
            solve(32)
        sol_192 = solve(192)
        assert abs(solve(128).tau_eff - sol_192.tau_eff) < 1e-11
        # a kernel whose two tau_eff routes disagree is rejected by the solve
        assemble = torus_weld.assemble_K

        def tampered(problem):
            op = assemble(problem)
            op.qn = 2.0 * op.qn
            return op

        monkeypatch.setattr(torus_weld, "assemble_K", tampered)
        with pytest.raises(TruncationTooCoarse, match="two-route"):
            solve_Y1(sol_192.problem)


class TestFactored:
    def test_tails_skip_is_exact(self, kink, oracle_problems):
        # the reported tails equal a scan of all four slabs bit for bit: on
        # the benchmark node, where the bound skips a slab of each block; at
        # N = 12, below assemble_K's gate, where no slab is skipped and K12's
        # slab with the smaller bound holds the larger entry; and on the
        # identity, whose union support is empty.  Every bound holds.
        grid = make_grid(64)
        f0 = Diffeo(grid, grid.x.copy())
        cases = ((oracle_problems[0], True),
                 (kink_problem(kink, 12, 30.0, -1.0), False),
                 (TorusWeldProblem(f0, 0.1j, 64, f0), False))
        for prob, skips in cases:
            op = TorusOperator(prob)
            for name, pair in tail_slabs(op, prob).items():
                worst = max(w for w, _ in pair)
                assert op.tails[name] == worst
                assert all(w <= b for w, b in pair)
                assert any(b < 0.5 * worst for _, b in pair) == skips
        assert op.va.shape[0] == op.vb.shape[0] == 0

    def test_memory_formula_bounds_the_operator(self, kink, oracle_problems):
        # _torus_bytes against the arrays the operator holds, on the
        # benchmark L = 40 node and on a node of criterion 9's t = 30,
        # L = 80 set (N = 512); the phase factor is not among them: the
        # only arrays over the union support are V_A and V_B
        s = _gl_nodes(0.2 / kink.delta_beta, 6, 1)[0][-1]
        for prob in (oracle_problems[0],
                     kink_problem(kink, 512, 30.0, s, length=80.0)):
            op = TorusOperator(prob)
            arrays = held_arrays(op)
            held = sum(a.nbytes for a in arrays.values())
            union = len(union_support(prob))
            assert sorted(name for name, a in arrays.items()
                          if a.ndim > 1) == ["va", "vb"]
            assert op.va.shape[0] == op.vb.shape[0] == union
            assert held <= _torus_bytes(prob.n_modes, union) <= 2 * held

    def test_factored_operator_matches_dense_oracle(self, oracle_problems):
        for prob in oracle_problems:
            op = assemble_K(prob)
            dense = dense_blocks(prob)
            scale = np.max(np.abs(sum(dense)))
            for got, ref in zip(factored_blocks(op), dense):
                assert np.max(np.abs(got - ref)) < 1e-13 * scale
            # the composed operator, as GMRES applies it
            a = np.stack([op.matvec(e) for e in np.eye(len(op.modes))],
                         axis=1)
            assert np.max(np.abs(a - (np.eye(len(op.modes)) - sum(dense)))) \
                < 1e-13 * scale
            # the band-edge tails, against a scan of the dense blocks
            w = max(1, prob.n_modes // 16)
            edge = np.zeros(a.shape, dtype=bool)
            edge[:w] = edge[-w:] = edge[:, :w] = edge[:, -w:] = True
            for name, block in (("K12", dense[1]), ("K21", dense[2])):
                ref = np.max(np.abs(block[edge]))
                assert abs(op.tails[name] - ref) < 1e-13 * scale

    def test_condition_estimate_against_zgecon(self, oracle_problems):
        # the Hessenberg estimate times cond(Dg) against LAPACK's 1-norm
        # estimate of the dense projected I - K
        for prob in oracle_problems:
            sol = solve_Y1(prob)
            sel = sol.modes != 0
            a = (np.eye(len(sel)) - sum(dense_blocks(prob)))[np.ix_(sel, sel)]
            lu, _ = sla.lu_factor(a)
            cond = 1.0 / sla.lapack.zgecon(lu, np.linalg.norm(a, 1))[0]
            assert 0.5 < sol.cond_estimate / cond < 2.0
            assert sol.solve_residual < 1e-13

    def test_unsolvable_system_refused_at_the_cap(self, kink, monkeypatch):
        # the scaled projected operator a cyclic shift: well conditioned, but
        # GMRES gains nothing before the shift's period, so the iteration
        # cap refuses it
        assemble = torus_weld.assemble_K

        def tampered(problem):
            op = assemble(problem)
            sel = op.modes != 0

            def shift(x):
                out = np.zeros_like(x)
                out[sel] = op.dg[sel] * np.roll(x[sel], 1)
                return out

            op.matvec = shift
            return op

        monkeypatch.setattr(torus_weld, "assemble_K", tampered)
        with pytest.raises(SingularSystem, match="100 GMRES iterations"):
            solve_Y1(kink_problem(kink, 96, 2.0, 0.25))


class TestSolve:
    def test_sine_matches_fine_reference(self):
        eps = 0.02 * L / (2 * np.pi)
        sols = {}
        for N, factor in ((64, 4), (256, 4)):
            grid = make_grid(N, factor=factor)
            f = Diffeo(grid, grid.x + eps * np.sin(2 * np.pi * grid.x / L))
            sols[N] = solve_Y1(TorusWeldProblem(f, 0.15j, N, f.inverse()))
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
