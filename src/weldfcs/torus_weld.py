"""Annulus-to-torus conformal welding: the finite-volume Fredholm solve.

The welding data is a lifted circle diffeomorphism ``f``, its inverse and a
modular parameter ``tau`` (Im tau > 0).  Boundary values of the uniformizing
map are recovered from a second-kind Fredholm system in the Fourier basis
``e_n(x) = exp(-i p_n x)``, ``p_n = 2 pi n / L``:

* ``Finv`` is the substitution operator of ``X -> X o f`` and ``F`` that of
  ``X -> X o f^{-1}``;
* ``K11 = E0p - Finv E0p F``, ``K12 = Finv Q E0p``, ``K21 = Em Q^{-1} F`` with
  ``Q = diag(q^n)``, ``q = exp(2 pi i tau)``;
* the zero mode is projected out (the kernel of ``I - K`` is the constants)
  and the solution is fixed by the mean-zero convention.

With c = L Re tau, f = id + c + d and f^{-1} = id - c + d~, where d and d~
live on the grid points the twist moves.  On the grid, exactly,
``Finv = (I + P_A V_A) D_c`` and ``F = (I + P_B V_B) conj(D_c)`` with
``D_c = diag(e^{-i p_n c})`` and the support factors of d and d~, which
share one phase factor P_B over the union of their supports (P_A is its
band rows), so ``I - K`` is applied from them and never formed.  P is a
slice of the DFT of the 4N-point assembly grid, so each product with it
is one FFT and no phase table is stored.  The diagonal of ``I - K`` is
``Dg_n = 1 - e^{-L Im tau |p_n|}``, the torus form of the cylinder's
T+-^{-1}, and GMRES solves the Dg-scaled projected system.

The effective modular parameter of the welded torus follows from the
integrated jump datum, and independently from the zero-mode boundary
equation.  The difference of the two routes and the band-edge tails of
``K12`` and ``K21`` fall as N grows; each is checked against ``tail_tol``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import QOnUnitCircle, SingularSystem, TruncationTooCoarse
from .fredholm import PhaseFactor, _gmres, _substitution_kernel
from .profile import Diffeo
from .spectral import PeriodicGrid, schwarzian_from_derivatives

__all__ = [
    "TorusWeldProblem",
    "TorusWeldSolution",
    "assemble_K",
    "solve_Y1",
    "residual_diagnostics",
]


# the solve refuses a projected system whose condition estimate exceeds this
_COND_LIMIT = 1e14


@dataclass(frozen=True, eq=False)
class TorusWeldProblem:
    """Welding problem on the annulus with spectral truncation ``n_modes``,
    assembled on the grid of ``f``, which needs M >= 4 N points;
    ``f_inverse`` holds f^{-1} on the same grid."""

    f: Diffeo
    tau: complex
    n_modes: int
    f_inverse: Diffeo
    tail_tol: float = 1e-12

    def __post_init__(self):
        if abs(self.q) >= 1.0 - 1e-12:
            raise QOnUnitCircle(f"|q| = {abs(self.q):.15f} too close to 1")
        if self.f.grid.M < 4 * self.n_modes:
            raise ValueError("assembly grid must satisfy M >= 4 N")

    @property
    def L(self) -> float:
        return self.f.grid.L

    @property
    def q(self) -> complex:
        return complex(np.exp(2j * np.pi * self.tau))

    @cached_property
    def displacements(self) -> tuple[np.ndarray, np.ndarray]:
        """d and d~ on the grid; entries of round-off size (1e-13) are zero,
        so the support factors skip them."""
        c = self.L * self.tau.real
        out = (self.f.displacement() - c, self.f_inverse.displacement() + c)
        for d in out:
            d[np.abs(d) <= 1e-13] = 0.0
        return out


class TorusOperator:
    """``I - K`` applied from the support factors; never formed.

    One phase factor P over the union U of the two supports, and over the
    modes -N..N+b, b = N // 2 (row j is mode j - N), serves both maps:
    P_A is its band rows and P_B all of it; it is applied by FFT and never
    stored (``fredholm.PhaseFactor``).  V_A spans the modes 0..N+b that the
    K11 product sums over and V_B the band -N..N."""

    def __init__(self, problem: TorusWeldProblem):
        N, grid, L, tau = problem.n_modes, problem.f.grid, problem.L, problem.tau
        p = grid.dp * np.arange(-N, N + N // 2 + 1)
        (self.va, self.vb), union = _substitution_kernel(
            grid, problem.displacements, p, 1.0 / L,
            cols=((N, len(p)), (0, 2 * N + 1)))
        self.phase = PhaseFactor(grid, union, p)
        self.N, self.modes = N, np.arange(-N, N + 1)
        self.dc = np.exp(-1j * p * (L * tau.real))
        self.dg = -np.expm1(-L * tau.imag * np.abs(p[:2 * N + 1]))
        self.qn = problem.q ** np.arange(N + 1, dtype=float)
        self.tails = _tail_diagnostics(
            self, abs(problem.q), [d[union] for d in problem.displacements])

    def residuals(self, y1: np.ndarray, y2: np.ndarray):
        """The residuals ``E0p y1 - K11 y1 - K12 y2`` (band) and
        ``Em y2 - K21 y1`` (modes < 0) of the two boundary relations, with
        ``F = (I + P_B V_B) conj(D_c)`` and ``Finv = (I + P_A V_A) D_c``."""
        N, n = self.N, len(y1)
        z = self.dc[:n].conj() * y1
        fy = self.phase(self.vb @ z)                        # F y1
        fy[:n] += z
        # r1 = Finv (E0 F y1 - Q E0p y2), over the modes 0..N+b
        u = self.dc[N:] * fy[N:]
        u[:N + 1] -= self.dc[N:n] * self.qn * y2[N:]
        r1 = self.phase(self.va @ u, slice(0, n))
        r1[N:] += u[:N + 1]
        return r1, y2[:N] - self.qn[:0:-1] * fy[:N]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``(I - K) x``."""
        r1, r2 = self.residuals(x, x)
        r1[:self.N] += r2
        return r1


def assemble_K(problem: TorusWeldProblem) -> TorusOperator:
    """Factor the truncated Fredholm operator in the Fourier basis.

    The ``K11`` product sums over the modes 0..N+b, extended past the band by
    the buffer b = N // 2, which keeps its band-edge entries spectrally
    accurate (the substitution operators scatter modes by a finite bandwidth
    factor).  M >= 4 N keeps N + b below the grid's Nyquist mode.
    """
    op = TorusOperator(problem)
    worst = max(op.tails.values())
    if worst > problem.tail_tol:
        raise TruncationTooCoarse(
            f"kernel band-edge magnitude {worst:.2e} exceeds "
            f"tail_tol={problem.tail_tol:.2e} at N={problem.n_modes}; "
            f"raise n_modes")
    return op


def _band_to_grid(grid: PeriodicGrid, modes: np.ndarray, coeff: np.ndarray,
                  order: int) -> np.ndarray:
    """The ``order``-th derivative of the band series ``sum c_n e_n`` on the
    grid, by one FFT."""
    pn = 2.0 * np.pi * modes / grid.L
    full = np.zeros(grid.M, dtype=complex)
    full[modes % grid.M] = coeff * (-1j * pn) ** order \
        * np.exp(-1j * pn * grid.x0)
    return np.fft.fft(full)


def _slab_max(op: TorusOperator, rects, v: np.ndarray, c0: int,
              rw: np.ndarray, cw: np.ndarray) -> float:
    """Largest entry of ``I + P V``, weighted by rw (rows) and cw (columns),
    over rectangles ``((r0, r1), (a, b))`` of band rows and columns, where
    column j of ``v`` is band column c0 + j.  A rectangle of a few rows
    takes them from ``PhaseFactor.table``; one of a few columns is one FFT
    batch."""
    worst = 0.0
    for (r0, r1), (a, b) in rects:
        vs = v[:, a - c0:b - c0]
        blk = (op.phase.table(r0, r1) @ vs if r1 - r0 < b - a
               else op.phase(vs, slice(r0, r1)))
        diag = np.arange(max(r0, a), min(r1, b))
        blk[diag - r0, diag - a] += 1.0
        worst = max(worst, float(np.max(np.abs(blk) * rw[r0:r1, None]
                                        * cw[a:b])))
    return worst


def _edge_slabs(op: TorusOperator, qabs: float, disps) -> dict:
    """Per coupling block, its two slabs in the outermost mode band (N // 16
    wide), edge rows and edge columns, as ``(bound, scan)`` pairs: scan()
    is the slab's largest weighted entry, and bound is at least that.

    |K12[m, n]| is |(I + P_A V_A)[m, n]| |q|^n on n >= 0 and |K21[m, n]| is
    |q|^|m| |(I + P_B V_B)[m, n]| on m < 0, so a slab holds the contiguous
    rows and columns of positive weight.  Every entry of P has modulus 1
    and |expm1(i theta)| <= min(2, |theta|), so with ``disps`` the
    displacements d on U, |(I + P V)[m, n]| <= 1 + min(2 |S|, |q_n| |d|_1)
    / M, S the points d moves, which times the weights bounds a slab.
    """
    N = op.N
    n, w = 2 * N + 1, max(1, N // 16)
    power, one = qabs ** np.abs(op.modes), np.ones(n)

    def edges(lo, hi):
        return [e for e in ((lo, min(hi, w)), (max(lo, n - w), hi))
                if e[0] < e[1]]

    out = {}
    for name, v, c0, d, rw, cw, rows, cols in (
            ("K12", op.va, N, disps[0], one, power * (op.modes >= 0),
             (0, n), (N, n)),
            ("K21", op.vb, 0, disps[1], power * (op.modes < 0), one,
             (0, N), (0, n))):
        cbound = cw * (1.0 + np.minimum(
            2.0 * np.count_nonzero(d),
            op.phase.dp * np.abs(op.modes) * np.sum(np.abs(d)))
            / op.phase.size)
        out[name] = []
        for rects in ([(r, cols) for r in edges(*rows)],
                      [(rows, c) for c in edges(*cols)]):
            bound = max(float(np.max(rw[r0:r1]) * np.max(cbound[a:b]))
                        for (r0, r1), (a, b) in rects)
            out[name].append((bound, partial(_slab_max, op, rects, v, c0,
                                             rw, cw)))
    return out


def _tail_diagnostics(op: TorusOperator, qabs: float, disps) -> dict:
    """Largest entries in the outermost mode band of the coupling blocks,
    read off the factors a slab at a time (``_edge_slabs``).  The slab with
    the larger bound is scanned first and the other only if its bound
    reaches half the largest entry found, so it is skipped only when it
    cannot hold the maximum, rounding included.

    Both fall as N grows.  K11's band edge is left out: its corner holds the
    part of the product that the buffer cuts off, which is the same share of
    the band-edge modes at every N, and the solve does not feel it (dropping
    the buffer raises it tenfold but moves tau_eff within its truncation
    error).
    """
    tails = {}
    for name, slabs in _edge_slabs(op, qabs, disps).items():
        worst = 0.0
        for bound, scan in sorted(slabs, key=lambda slab: -slab[0]):
            if bound >= 0.5 * worst:
                worst = max(worst, scan())
        tails[name] = worst
    return tails


@dataclass(eq=False)
class TorusWeldSolution:
    problem: TorusWeldProblem
    modes: np.ndarray
    y1_coeff: np.ndarray          # band coefficients, mean fixed to zero
    tau_eff: complex
    tau_eff_boundary: complex
    cond_estimate: float
    solve_residual: float
    operator: TorusOperator
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def grid(self) -> PeriodicGrid:
        return self.problem.f.grid

    @property
    def xprime(self) -> np.ndarray:
        return self.xderiv(1)

    def xderiv(self, order: int) -> np.ndarray:
        """The ``order``-th derivative of X = f - Y1 on the assembly grid."""
        if order not in self._cache:
            self._cache[order] = self.problem.f.deriv_samples(order) \
                - _band_to_grid(self.grid, self.modes, self.y1_coeff, order)
        return self._cache[order]

    @property
    def schwarzian(self) -> np.ndarray:
        """S X on the assembly grid (X' never vanishes for solvable data)."""
        return schwarzian_from_derivatives(
            self.xderiv(1), self.xderiv(2), self.xderiv(3))

    def lemma1_defects(self) -> dict:
        """Stokes identities relating X-integrals across the two boundaries."""
        grid = self.grid
        fp = self.problem.f.deriv_samples(1)
        xp2 = self.xprime ** 2
        i_a = grid.integral(xp2)
        i_b = grid.integral(xp2 / fp)
        sf = schwarzian_from_derivatives(fp, self.problem.f.deriv_samples(2),
                                         self.problem.f.deriv_samples(3))
        sx = self.schwarzian
        j_a = grid.integral(sx)
        j_b = grid.integral((sx - sf) / fp)
        return {
            "xprime_sq_rel": abs(i_a - i_b) / abs(i_a),
            "schwarzian_abs": abs(j_a - j_b),
        }


def solve_Y1(problem: TorusWeldProblem) -> TorusWeldSolution:
    """Solve the projected system and fix the effective modular parameter."""
    op = assemble_K(problem)
    N, modes, grid, L = problem.n_modes, op.modes, problem.f.grid, problem.L

    fm_band = grid.band_coefficients(problem.f.samples - grid.x, N)
    # the residuals at Y1 = 0, Y2 = f - id are -K12 fm and Em fm
    rhs, em_fm = op.residuals(np.zeros_like(fm_band), fm_band)
    rhs[:N] += em_fm
    # GMRES on the Dg-scaled projected system, gated by the Hessenberg
    # estimate times cond(Dg), which bounds the unscaled condition
    sel = modes != 0
    dg = op.dg[sel]
    y, cond = _gmres(lambda y: op.matvec(np.insert(y, N, 0.0))[sel] / dg - y,
                     rhs[sel] / dg, _COND_LIMIT, SingularSystem,
                     scale=float(dg.max() / dg.min()))
    y1 = np.insert(y, N, 0.0)
    # the residual of the unprojected system: its projection gives the
    # solve's true relative residual, its zero mode the second tau route
    resid = op.matvec(y1) - rhs
    res = float(np.linalg.norm(resid[sel])
                / max(np.linalg.norm(rhs[sel]), 1e-300))

    # direct effective modular parameter from the integrated jump datum
    xp = problem.f.deriv_samples(1) - _band_to_grid(grid, modes, y1, 1)
    tau_eff = problem.tau - grid.integral((problem.f.samples - grid.x) * xp) \
        / L ** 2

    # independent route: zero mode of the unprojected boundary equation
    tau_eff_b = problem.tau - resid[N] / L
    two_route = abs(tau_eff - tau_eff_b)
    if two_route > problem.tail_tol:
        raise TruncationTooCoarse(
            f"two-route tau_eff difference {two_route:.2e} exceeds "
            f"tail_tol={problem.tail_tol:.2e} at N={N}; raise n_modes")

    return TorusWeldSolution(problem, modes, y1, complex(tau_eff),
                             complex(tau_eff_b), cond, res, op,
                             _cache={1: xp})


def residual_diagnostics(sol: TorusWeldSolution) -> dict:
    """Unprojected boundary-relation residuals plus integrability defects."""
    problem, grid = sol.problem, sol.grid
    N, L = problem.n_modes, problem.L

    fm_band = grid.band_coefficients(problem.f.samples - grid.x, N)
    jump = fm_band.copy()
    jump[N] += L * (sol.tau_eff - problem.tau)     # Y12 = (f - id) + L (tau^ - tau)
    r1, r2 = sol.operator.residuals(sol.y1_coeff, sol.y1_coeff - jump)

    # real-space integrability defect (1/L) int Y12(x) X'(x) dx
    jump_vals = (problem.f.samples - grid.x) + L * (sol.tau_eff - problem.tau)
    integr = grid.integral(jump_vals * sol.xprime) / L

    out = {
        "boundary_eq_1": float(np.max(np.abs(r1))),
        "boundary_eq_2": float(np.max(np.abs(r2))),
        "integrability": abs(integr),
        "tau_two_route": abs(sol.tau_eff - sol.tau_eff_boundary),
        "solve_residual": sol.solve_residual,
        "cond_estimate": sol.cond_estimate,
    }
    out.update({f"tail_{k}": v for k, v in sol.operator.tails.items()})
    out.update(sol.lemma1_defects())
    return out
