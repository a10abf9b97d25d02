import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import LinearOperator

from weldfcs import (CylinderWeldProblem, Diffeo, InfiniteVolume,
                     Numerics, assemble_sigma, build_xi, cylinder_nodes,
                     cylinder_weld, flow_family, realspace_crosscheck,
                     solve_cylinder)
from weldfcs.cylinder_weld import _inverse_displacement
from weldfcs.fredholm import _substitution_kernel
from weldfcs.errors import NearSingular, WindowTooSmall
from weldfcs.fcs import (_NODE_BYTES_MAX, _cylinder_size, _gl_nodes,
                         cylinder_grid)
from weldfcs.spectral import LineGrid

# the benchmark's cylinder numerics (perfbench infinite-moments)
BENCH = Numerics(dx=0.08, window_pad_gamma=5.0, window_factor=3.5,
                 p_max_gamma=26.0, s_nodes=4)


def kink_nodes(kink, t, s_values, mover="+", p_max_gamma=33.0):
    return cylinder_nodes(kink, 1.0, t, mover, s_values, Numerics(
        dx=0.02, window_pad_gamma=6.0, window_factor=4.0,
        p_max_gamma=p_max_gamma))


def solve_kink(kink, t, s, p_max_gamma=33.0):
    welds = kink_nodes(kink, t, [s], p_max_gamma=p_max_gamma)
    sol = next(welds.solutions())
    return welds.xi, sol.problem, sol


def dense_sigma(op, lattice_phase):
    """The recast Nystrom matrix formed from the dense kernel blocks DA and
    DB, with the phase factor formed in extended precision: the oracle of
    the factored product (p < 0 block first)."""
    prob, psol = op.problem, op.psol
    grid, gamma = prob.grid, prob.gamma
    W = grid.dp / (2.0 * np.pi)
    (va, vb), union = _substitution_kernel(
        grid, (prob.g.displacement(), _inverse_displacement(prob)), psol, W)
    phase = lattice_phase(grid, union, psol[0] / grid.dp, len(psol))
    DA, DB = phase @ va, phase @ vb
    n2 = len(psol)
    m, p = slice(0, n2 // 2), slice(n2 // 2, n2)
    eqp, eqm = np.exp(-gamma * psol[p]), np.exp(gamma * psol[m])
    Tp, Tm = 1.0 / -np.expm1(-gamma * psol[p]), 1.0 / -np.expm1(gamma * psol[m])
    Inn = np.eye(n2 // 2)
    sigma = np.zeros((n2, n2), dtype=complex)
    sigma[p, p] = -(DA[p, m] @ DB[m, p] + DA[p, p] * eqp) * Tp
    sigma[p, m] = ((Inn + DA[p, p]) @ DB[p, m]) * Tm
    sigma[m, p] = -((Inn + DA[m, m]) @ DB[m, p] + DA[m, p] * eqp
                    + eqm[:, None] * DB[m, p]) * Tp
    sigma[m, m] = (DA[m, p] @ DB[p, m] - eqm[:, None] * DB[m, m]) * Tm
    return sigma


def factored_sigma(op):
    """Sigma as the factored product gives it, column by column."""
    return op.sigma.matmat(np.eye(op.sigma.shape[0], dtype=complex))


@pytest.fixture(scope="module")
def oracle_nodes(kink, lean_numerics):
    """Solved nodes of the benchmark set (t=4, lambda=0.04) and of a LEAN
    set (t=4, lambda=0.2, its two ends), both movers."""
    sols = []
    for num, lam, which in ((BENCH, 0.04, None),
                            (lean_numerics, 0.2, [0, 5])):
        s_nodes, _ = _gl_nodes(lam / kink.delta_beta, num.s_nodes, 1)
        for mover in "+-":
            welds = cylinder_nodes(kink, 1.0, 4.0, mover, s_nodes, num)
            sols += list(welds.solutions(which))
    return sols


class TestAssembly:
    def test_identity_gives_zero_operator(self, kink, lattice_phase):
        grid = LineGrid(-20.0, 40.0, 512)
        g0 = Diffeo(grid, grid.x.copy())
        op = assemble_sigma(CylinderWeldProblem(g0, kink.beta0, 20.0, g0))
        assert np.max(np.abs(factored_sigma(op))) == 0.0
        assert np.max(np.abs(dense_sigma(op, lattice_phase))) == 0.0
        assert np.max(np.abs(op.z12_ext)) == 0.0

    def test_entries_stable_under_pmax_doubling(self, kink, lattice_phase):
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
        dense_small, dense_big = (dense_sigma(op, lattice_phase)
                                  for op in (small, big))
        pos = np.searchsorted(big.psol, small.psol)
        sub = dense_big[np.ix_(pos, pos)]
        # entries well inside the smaller cutoff; the outermost rows are the
        # ones the extension is meant to improve
        inner = np.abs(small.psol) <= 24.0
        assert np.max(np.abs((sub - dense_small)[np.ix_(inner, inner)])) < 1e-10
        # the factored product of both operators against its oracle
        for op, dense in ((small, dense_small), (big, dense_big)):
            assert (np.max(np.abs(factored_sigma(op) - dense))
                    < 1e-13 * np.max(np.abs(dense)))

    def test_size_estimate_matches_the_lattice(self, kink):
        # the estimated M and Nystrom order against the lattice and the
        # momenta assemble_sigma would select, under the benchmark's cylinder
        # numerics; only s = 1e3 (M = 131072, 130 GiB of kernel factors) is
        # over budget
        xi = build_xi(kink, InfiniteVolume(1.0), 4.0, "+")
        num = BENCH
        p_max = num.p_max_gamma / xi.gamma
        for s in (0.2, 10.0, 1e3):
            grid = cylinder_grid(xi, s, num)
            m, order, nbytes = _cylinder_size(grid, p_max, num.window_factor)
            n_sel = np.count_nonzero(np.abs(grid.p) <= p_max)
            assert (m, order) == (grid.M, n_sel - n_sel % 2)
            assert (nbytes > _NODE_BYTES_MAX) == (s == 1e3)
        assert (m, order) == (131072, 58322)

    def test_kernel_blocks_match_longdouble_sum(self, kink, lattice_phase):
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
            (v,), union = _substitution_kernel(grid, (disp,), psol, 1.0)
            block = lattice_phase(grid, union, psol[0] / grid.dp,
                                  len(psol)) @ v
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

    def test_source_matches_per_column_definition(self, kink):
        # z12 = -sum_{q>0} W A(p, q) e^{-gamma q} ghat(q) - e^{-gamma p} ghat
        # (p > 0) or + ghat (p < 0), with every column of A summed over the
        # whole lattice; g and g^{-1} are a kink flow on a coarse lattice
        grid = LineGrid(-16.0, 32.0, 256)
        xi = build_xi(kink, InfiniteVolume(1.0), 1.0, "+")
        g, gi = (flow_family(xi, [0.3], grid, inverse=inverse)[0]
                 for inverse in (False, True))
        x, disp, gamma = grid.x, g.displacement(), xi.gamma
        op = assemble_sigma(CylinderWeldProblem(g, gamma, 10.0, gi))
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
        g, gi = (flow_family(xi, [0.2], grid, inverse=inverse)[0]
                 for inverse in (False, True))
        with pytest.raises(WindowTooSmall):
            CylinderWeldProblem(g, xi.gamma, 10.0, gi)


class TestMatrixFree:
    def test_factored_product_matches_dense_oracle(self, oracle_nodes,
                                                   lattice_phase):
        for sol in oracle_nodes:
            dense = dense_sigma(sol.operator, lattice_phase)
            err = np.max(np.abs(factored_sigma(sol.operator) - dense))
            assert err < 1e-13 * np.max(np.abs(dense))
            # no phase table is held: the only arrays over the union
            # support with two axes are V_A and V_B
            sigma = sol.operator.sigma
            union = sigma.va.shape[0]
            assert sorted(
                name for obj in (sigma, sigma.phase)
                for name, a in vars(obj).items()
                if isinstance(a, np.ndarray) and a.ndim > 1
                and union in a.shape) == ["va", "vb"]

    def test_condition_estimate_against_zgecon(self, oracle_nodes,
                                               lattice_phase):
        # the Hessenberg estimate (2-norm, on the Krylov space) against
        # LAPACK's 1-norm estimate of the dense I + Sigma
        for sol in oracle_nodes:
            a = np.eye(len(sol.operator.psol)) + dense_sigma(sol.operator,
                                                             lattice_phase)
            lu, _ = sla.lu_factor(a)
            cond = 1.0 / sla.lapack.zgecon(lu, np.linalg.norm(a, 1))[0]
            assert 0.5 < sol.cond_estimate / cond < 2.0
            assert sol.solve_residual < 1e-14

    def test_unsolvable_system_refused_at_the_cap(self, kink, monkeypatch):
        # I + Sigma a cyclic shift and a source that makes the right-hand
        # side e_0 - e_1: well conditioned, but the GMRES residual falls only
        # as 1 / sqrt(iterations), so the iteration cap refuses it
        assemble = cylinder_weld.assemble_sigma

        def tampered(problem):
            op = assemble(problem)
            n2 = len(op.psol)
            op.sigma = LinearOperator(
                (n2, n2), matvec=lambda x: np.roll(x, 1, axis=0) - x,
                dtype=complex)
            op.z12_ext = np.zeros_like(op.z12_ext)
            op.z12_ext[op.sel[0]] = 1.0
            return op

        monkeypatch.setattr(cylinder_weld, "assemble_sigma", tampered)
        with pytest.raises(NearSingular, match="100 GMRES iterations"):
            solve_kink(kink, 2.0, 0.25)


class TestSolve:
    def test_linear_response_of_schwarzian(self, kink):
        # third-derivative version of the same response
        welds = kink_nodes(kink, 2.0, [1e-4, -1e-4])
        xi, grid = welds.xi, welds.grid
        up, down = (sol.schwarzian for sol in welds.solutions())
        d_num = (up - down) / 2e-4
        xihat = grid.ft(welds.xi_values)
        kern = grid.p ** 3 / -np.expm1(-xi.gamma * grid.p)
        d_ref = grid.ift(-1j * kern * xihat)
        lo, hi = xi.support
        m = (grid.x > lo - 3) & (grid.x < hi + 3)
        assert np.max(np.abs(d_num[m] - d_ref[m])) < 2e-4

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
        g0 = Diffeo(grid, grid.x.copy())
        prob = CylinderWeldProblem(g0, kink.beta0, 20.0, g0)
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
