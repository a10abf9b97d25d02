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
The tail check forms only the band-edge entries whose bound exceeds
``tail_tol``; the tails themselves are taken only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import QOnUnitCircle, SingularSystem, TruncationTooCoarse
from .fredholm import _GMRES_CAP, PhaseFactor, WeldSolution, _gmres
from .profile import Diffeo
from .spectral import PeriodicGrid

__all__ = [
    "TorusWeldProblem",
    "TorusWeldSolution",
    "assemble_K",
    "node_bytes",
    "solve_Y1",
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
        self.qabs = abs(problem.q)

    def band_edges(self, tol: float | None = None) -> dict:
        """Per coupling block, the largest weighted entry of its outermost
        mode band, w = N // 16 wide: K12's 2 w edge rows over the columns
        n >= 0 and its last w columns; K21's first w rows and its rows
        m < 0 over both edge-column bands.

        |K12[m, n]| is |(I + P_A V_A)[m, n]| |q|^n on n >= 0 and |K21[m, n]|
        is |q|^|m| |(I + P_B V_B)[m, n]| on m < 0; each rectangle is a few
        rows of P (``PhaseFactor.table``, 2 w at a time) applied to V, plus
        the identity where the row mode is the column mode.  Every entry of
        P has modulus 1 and |expm1| <= 2, so an entry at weight |q|^|k| is
        at most |q|^|k| (1 + 2 |S| / M), S the points its block's
        displacement moves.  With ``tol`` only the modes k whose bound
        exceeds it are formed, so the result exceeds ``tol`` exactly when
        the whole band does; without, the band is scanned whole.

        K11's band edge is left out: its corner holds the part of the
        product that the buffer cuts off, which is the same share of the
        band-edge modes at every N, and the solve does not feel it (dropping
        the buffer raises it tenfold but moves tau_eff within its truncation
        error).
        """
        N, n, w = self.N, 2 * self.N + 1, max(1, self.N // 16)
        power, one = self.qabs ** np.abs(self.modes), np.ones(n)
        band = np.arange(n)
        edge = np.concatenate((band[:w], band[-w:]))
        out = {}
        # per block: V, the band index of its first column, the block's
        # displacement, its row and column weights, and its rectangles as
        # rows over column ranges (first column, end column); the ranges
        # slice V, so no part of it is copied
        for name, v, c0, d, rw, cw, rects in (
                ("K12", self.va, N, self.phase.disps[0], one, power,
                 ((edge, [(N, n)]), (band, [(n - w, n)]))),
                ("K21", self.vb, 0, self.phase.disps[1], power, one,
                 ((band[:w], [(0, n)]), (band[:N], [(0, w), (n - w, n)])))):
            g = 1.0 + 2.0 * np.count_nonzero(d) / self.phase.size
            worst = 0.0
            for rows, ranges in rects:
                if tol is not None:
                    # no column weight rises along a range, so the columns
                    # kept are its first ones
                    rows = rows[g * rw[rows] > tol]
                    ranges = [(a, a + np.count_nonzero(g * cw[a:b] > tol))
                              for a, b in ranges]
                    ranges = [(a, b) for a, b in ranges if b > a]
                    if not ranges:
                        continue
                for k in range(0, len(rows), 2 * w):
                    r = rows[k:k + 2 * w]
                    table = self.phase.table(r)
                    for a, b in ranges:
                        blk = table @ v[:, a - c0:b - c0]
                        i = np.nonzero((r >= a) & (r < b))[0]
                        blk[i, r[i] - a] += 1.0
                        blk = np.abs(blk) * rw[r, None] * cw[a:b]
                        worst = max(worst, float(np.max(blk)))
            out[name] = worst
        return out

    @cached_property
    def tails(self) -> dict:
        """The band-edge tails of K12 and K21 (``band_edges``), computed
        only when read (``TorusWeldSolution.diagnostics``)."""
        return self.band_edges()

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

    A node whose band-edge tails exceed ``tail_tol`` is refused
    (``TruncationTooCoarse``).  The check forms only the entries whose
    bound exceeds ``tail_tol`` (``TorusOperator.band_edges``), so it
    refuses exactly when the whole band does; the message reports the
    exact worst tail.
    """
    op = TorusOperator(problem)
    if max(op.band_edges(problem.tail_tol).values()) > problem.tail_tol:
        worst = max(op.tails.values())
        raise TruncationTooCoarse(
            f"kernel band-edge magnitude {worst:.2e} exceeds "
            f"tail_tol={problem.tail_tol:.2e} at N={problem.n_modes}; "
            f"raise n_modes")
    return op


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

    @cached_property
    def diagnostics(self) -> dict:
        """The solve's diagnostics (``WeldSolution.diagnostics``) with
        ``tau_eff``, the largest unprojected residuals of the two boundary
        relations, the two-route tau difference, the band-edge tails of K12
        and K21 and the defects of the Stokes identities relating
        X-integrals across the two boundaries (lemma 1)."""
        problem, grid = self.problem, self.grid
        N, f = problem.n_modes, problem.f
        # Y12 = (f - id) + L (tau^ - tau), with f - id = (X - id) + Y1
        jump = self.xm_coeff[self.modes % grid.M] + self.y1_coeff
        jump[N] += problem.L * (self.tau_eff - problem.tau)
        r1, r2 = self.operator.residuals(self.y1_coeff, self.y1_coeff - jump)
        fp = f.deriv_samples(1)
        xp2 = self.xprime ** 2
        i_a, i_b = grid.integral(xp2), grid.integral(xp2 / fp)
        sx = self.schwarzian
        j_a, j_b = grid.integral(sx), grid.integral((sx - f.schwarzian) / fp)
        own = {
            "tau_eff": self.tau_eff,
            "boundary_eq_1": float(np.max(np.abs(r1))),
            "boundary_eq_2": float(np.max(np.abs(r2))),
            "tau_two_route": abs(self.tau_eff - self.tau_eff_boundary),
            **{f"tail_{k}": v for k, v in self.operator.tails.items()},
            "xprime_sq_rel": abs(i_a - i_b) / abs(i_a),
            "schwarzian_abs": abs(j_a - j_b),
        }
        return {**super().diagnostics, **own}


def node_bytes(n: int, support: int) -> int:
    """Complex bytes of the working set of a torus node with n modes whose
    map and inverse move ``support`` grid points between them (the union
    support U): V_A over the modes 0..n + n // 2 and V_B over -n..n, both
    on U, the GMRES basis, the FFT input and output of one phase-factor
    product on the 4n-point lattice, and the band-edge scan (README
    "Command line").  That scan takes at most 2 w rows of P over U at a
    time, with their gather index (3 w |U| complex in all), and forms
    products of at most w (2 n + 2) entries, with their modulus and its
    weighted copy; the formula counts 4 w (|U| + n + 1)."""
    b, w, m = n // 2, max(1, n // 16), 4 * n
    return 16 * ((n + b + 1 + 2 * n + 1) * support
                 + (_GMRES_CAP + 1) * 2 * n + 2 * m
                 + 4 * w * (support + n + 1))


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

