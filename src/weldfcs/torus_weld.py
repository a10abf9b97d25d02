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

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import QOnUnitCircle, SingularSystem, TruncationTooCoarse
from .fredholm import PhaseFactor, WeldSolution, _gmres
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
    def grid(self) -> PeriodicGrid:
        return self.f.grid

    @property
    def L(self) -> float:
        return self.grid.L

    @property
    def q(self) -> complex:
        return complex(np.exp(2j * np.pi * self.tau))

    @cached_property
    def displacements(self) -> tuple[np.ndarray, np.ndarray]:
        """d and d~ on the grid, zero where the map moves no point
        (``Diffeo.moved``), so the support factors skip those points."""
        c = self.L * self.tau.real
        return self.f.moved(c), self.f_inverse.moved(-c)


class TorusOperator:
    """``I - K`` applied from the support factors; never formed.

    One phase factor P over the union U of the two supports, and over the
    modes -N..N+b, b = N // 2 (row j is mode j - N), serves both maps:
    P_A is its band rows and P_B all of it; it is applied by FFT and never
    stored (``fredholm.PhaseFactor``).  V_A spans the modes 0..N+b that the
    K11 product sums over and V_B the band -N..N."""

    def __init__(self, problem: TorusWeldProblem):
        N, grid, L, tau = problem.n_modes, problem.grid, problem.L, problem.tau
        p = grid.dp * np.arange(-N, N + N // 2 + 1)
        self.phase = PhaseFactor(grid, problem.displacements, p, 1.0 / L,
                                 cols=((N, len(p)), (0, 2 * N + 1)))
        self.va, self.vb = self.phase.v
        self.N, self.modes = N, np.arange(-N, N + 1)
        self.dc = np.exp(-1j * p * (L * tau.real))
        self.dg = -np.expm1(-L * tau.imag * np.abs(p[:2 * N + 1]))
        self.qn = problem.q ** np.arange(N + 1, dtype=float)
        self.dcc = self.dc[:2 * N + 1].conj()
        self.tails = _tail_diagnostics(self, abs(problem.q))

    def residuals(self, y1: np.ndarray, y2: np.ndarray):
        """The residuals ``E0p y1 - K11 y1 - K12 y2`` (band) and
        ``Em y2 - K21 y1`` (modes < 0) of the two boundary relations, with
        ``F = (I + P_B V_B) conj(D_c)`` and ``Finv = (I + P_A V_A) D_c``."""
        N, n = self.N, len(y1)
        z = self.dcc * y1
        fy = self.phase(self.vb @ z)                        # F y1
        fy[:n] += z
        u = self.dc[N:] * fy[N:]
        return self._first_residual(u, y2), y2[:N] - self.qn[:0:-1] * fy[:N]

    def _first_residual(self, u: np.ndarray, y2: np.ndarray) -> np.ndarray:
        """The band residual r1 = Finv (E0 F y1 - Q E0p y2) from
        u = D_c E0 F y1 over the modes 0..N+b, which it overwrites."""
        N, n = self.N, 2 * self.N + 1
        u[:N + 1] -= self.dc[N:n] * self.qn * y2[N:]
        r1 = self.phase(self.va @ u, slice(0, n))
        r1[N:] += u[:N + 1]
        return r1

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


def _piece_max(product, rows: np.ndarray, a: int, rw: np.ndarray,
               cw: np.ndarray) -> float:
    """Largest entry of ``I + product()``, weighted by rw (rows) and cw
    (columns), where product() holds the band rows ``rows`` of P V over the
    band columns a, a + 1, ..."""
    blk = product()
    i = np.nonzero((rows >= a) & (rows < a + blk.shape[1]))[0]
    blk[i, rows[i] - a] += 1.0
    return float(np.max(np.abs(blk) * rw[:, None] * cw))


def _edge_pieces(op: TorusOperator, qabs: float) -> dict:
    """Per coupling block, its outermost mode band (w = N // 16 wide) in
    pieces, as ``(bound, scan)`` pairs: scan() is the piece's largest
    weighted entry, and bound is at least that.

    |K12[m, n]| is |(I + P_A V_A)[m, n]| |q|^n on n >= 0 and |K21[m, n]| is
    |q|^|m| |(I + P_B V_B)[m, n]| on m < 0.  Every entry of P has modulus 1
    and |expm1(i theta)| <= min(2, |theta|), so with d the displacement on
    U (``PhaseFactor.disps``), |(I + P V)[m, n]| <= 1 + min(2 |S|, |q_n|
    |d|_1) / M, S the points d moves, which times the weights bounds a
    piece.

    A block's edge rows are a few rows of P (``PhaseFactor.table``) applied
    to V, one piece; K12's, whose column weights |q|^n fall, in column
    blocks w wide, one piece each.  Its edge columns are one piece, one FFT
    batch of w columns: K12's lie at the top of its columns, and K21's two
    rectangles come from one batch, since V_B is conjugate-symmetric
    (q_{-j} = -q_j on the band), so (P V_B)[-m, -j] = conj((P V_B)[m, j]):
    the columns of modes N - w + 1..N on the rows m < 0 are those of modes
    -N..-N + w - 1 on the rows -m > 0, at the same weight |q|^|m|.
    """
    N, modes = op.N, op.modes
    n, w = 2 * N + 1, max(1, N // 16)
    power, one = qabs ** np.abs(modes), np.ones(n)
    band = np.arange(n)
    out = {}
    d_a, d_b = op.phase.disps
    for name, v, c0, d, rows, rw, cw, step, (ea, eb), erw in (
            ("K12", op.va, N, d_a, np.concatenate((band[:w], band[-w:])),
             one, power * (modes >= 0), w, (n - w, n), one),
            ("K21", op.vb, 0, d_b, band[:w], power * (modes < 0),
             one, n, (0, w), power * (modes != 0))):
        cbound = cw * (1.0 + np.minimum(
            2.0 * np.count_nonzero(d),
            op.phase.dp * np.abs(modes) * np.sum(np.abs(d)))
            / op.phase.size)
        cols = partial(op.phase, v[:, ea - c0:eb - c0], slice(0, n))
        pieces = [(float(np.max(erw) * np.max(cbound[ea:eb])),
                   partial(_piece_max, cols, band, ea, erw, cw[ea:eb]))]
        table, rwr = op.phase.table(rows), rw[rows]
        starts = range(c0, n, step)
        bounds = np.max(rwr) * np.maximum.reduceat(cbound, starts)
        for a, bound in zip(starts, bounds.tolist()):
            block = partial(np.matmul, table, v[:, a - c0:a - c0 + step])
            pieces.append((bound, partial(_piece_max, block, rows, a, rwr,
                                          cw[a:a + step])))
        out[name] = pieces
    return out


def _tail_diagnostics(op: TorusOperator, qabs: float) -> dict:
    """Largest entries in the outermost mode band of the coupling blocks,
    read off the factors a piece at a time (``_edge_pieces``).  The pieces
    are scanned in order of decreasing bound, and the scan stops at the
    first whose bound is below half the largest entry found, so a piece is
    skipped only when it cannot hold the maximum, rounding included, and
    the tails are those of a scan of every piece bit for bit.

    Both fall as N grows.  K11's band edge is left out: its corner holds the
    part of the product that the buffer cuts off, which is the same share of
    the band-edge modes at every N, and the solve does not feel it (dropping
    the buffer raises it tenfold but moves tau_eff within its truncation
    error).
    """
    tails = {}
    for name, pieces in _edge_pieces(op, qabs).items():
        worst = 0.0
        for bound, scan in sorted(pieces, key=lambda piece: -piece[0]):
            if bound < 0.5 * worst:
                break
            worst = max(worst, scan())
        tails[name] = worst
    return tails


@dataclass(eq=False)
class TorusWeldSolution(WeldSolution):
    """X = f - Y1 on the assembly grid, with Y1's band coefficients on
    ``modes`` and the effective modular parameter by its two routes."""

    solve_residual: float
    modes: np.ndarray
    y1_coeff: np.ndarray          # band coefficients, mean fixed to zero
    tau_eff_boundary: complex     # zero mode of the boundary equation

    # own names for the shared reconstruction, which a tracer wraps per class
    xprime, schwarzian = WeldSolution.xprime, WeldSolution.schwarzian

    @cached_property
    def tau_eff(self) -> complex:
        """The effective modular parameter from the integrated jump datum."""
        jump = self.grid.integral(self.problem.f.displacement() * self.xprime)
        return complex(self.problem.tau - jump / self.problem.L ** 2)

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
    N, modes, grid = problem.n_modes, op.modes, problem.grid
    band = modes % grid.M
    # X - id = (f - id) - Y1, from f - id's coefficients once Y1 is solved
    xm = grid.coefficients(problem.f.displacement())
    # the residuals at Y1 = 0, Y2 = f - id are -K12 fm and Em fm, where
    # F Y1 = 0
    fm = xm[band]
    rhs = op._first_residual(np.zeros_like(op.dc[N:]), fm)
    rhs[:N] += fm[:N]
    # GMRES on the Dg-scaled projected system, gated by the Hessenberg
    # estimate times cond(Dg), which bounds the unscaled condition
    sel = modes != 0
    dg = op.dg[sel]
    y1 = np.zeros(len(modes), dtype=complex)

    def scaled(y):
        y1[sel] = y
        return op.matvec(y1)[sel] / dg - y

    y, cond = _gmres(scaled, rhs[sel] / dg, _COND_LIMIT, SingularSystem,
                     scale=float(dg.max() / dg.min()))
    y1[sel] = y
    # the residual of the unprojected system: its projection gives the
    # solve's true relative residual, its zero mode the second tau route
    resid = op.matvec(y1) - rhs
    res = float(np.linalg.norm(resid[sel])
                / max(np.linalg.norm(rhs[sel]), 1e-300))

    xm[band] -= y1
    # the second tau route: zero mode of the unprojected boundary equation
    sol = TorusWeldSolution(problem, op, xm, cond, res, modes, y1,
                            complex(problem.tau - resid[N] / problem.L))
    two_route = abs(sol.tau_eff - sol.tau_eff_boundary)
    if two_route > problem.tail_tol:
        raise TruncationTooCoarse(
            f"two-route tau_eff difference {two_route:.2e} exceeds "
            f"tail_tol={problem.tail_tol:.2e} at N={N}; raise n_modes")
    return sol


def residual_diagnostics(sol: TorusWeldSolution) -> dict:
    """Unprojected boundary-relation residuals plus the solve's diagnostics."""
    problem, grid = sol.problem, sol.grid
    N, L = problem.n_modes, problem.L

    # Y12 = (f - id) + L (tau^ - tau), with f - id = (X - id) + Y1
    jump = sol.xm_coeff[sol.modes % grid.M] + sol.y1_coeff
    jump[N] += L * (sol.tau_eff - problem.tau)
    r1, r2 = sol.operator.residuals(sol.y1_coeff, sol.y1_coeff - jump)

    out = {
        "boundary_eq_1": float(np.max(np.abs(r1))),
        "boundary_eq_2": float(np.max(np.abs(r2))),
        "tau_two_route": abs(sol.tau_eff - sol.tau_eff_boundary),
        "solve_residual": sol.solve_residual,
        "cond_estimate": sol.cond_estimate,
    }
    out.update({f"tail_{k}": v for k, v in sol.operator.tails.items()})
    out.update(sol.lemma1_defects())
    return out
