"""Annulus-to-torus conformal welding: the finite-volume Fredholm solve.

The welding data is a lifted circle diffeomorphism ``f`` and a modular
parameter ``tau`` (Im tau > 0).  Boundary values of the uniformizing map are
recovered from a second-kind Fredholm system in the Fourier basis
``e_n(x) = exp(-i p_n x)``, ``p_n = 2 pi n / L``:

* ``F`` is the substitution matrix of ``X -> X o f^{-1}`` and ``Finv`` that of
  ``X -> X o f``, both assembled by FFT quadrature on a grid of M >= 4N
  points (the ``f^{-1}`` matrix uses the change of variables ``x = f(y)``,
  so the inverse map itself is never sampled);
* ``K11 = E0p - Finv E0p F``, ``K12 = Finv Q E0p``, ``K21 = Em Q^{-1} F`` with
  ``Q = diag(q^n)``, ``q = exp(2 pi i tau)``;
* the zero mode is projected out (the kernel of ``I - K`` is the constants)
  and the solution is fixed by the mean-zero convention.

The effective modular parameter of the welded torus follows from the
integrated jump datum, and independently from the zero-mode boundary
equation.  The difference of the two routes and the band-edge tails of
``K12`` and ``K21`` fall as N grows; each is checked against ``tail_tol``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import QOnUnitCircle, SingularSystem, TruncationTooCoarse
from .profile import Diffeo
from .spectral import (PeriodicGrid, progression_phases,
                       schwarzian_from_derivatives)

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
    assembled on the grid of ``f``, which needs M >= 4 N points."""

    f: Diffeo
    tau: complex
    n_modes: int
    tail_tol: float = 1e-12

    def __post_init__(self):
        q = np.exp(2j * np.pi * self.tau)
        if abs(q) >= 1.0 - 1e-12:
            raise QOnUnitCircle(f"|q| = {abs(q):.15f} too close to 1")
        if self.f.grid.M < 4 * self.n_modes:
            raise ValueError("assembly grid must satisfy M >= 4 N")

    @property
    def L(self) -> float:
        return self.f.grid.L

    @property
    def q(self) -> complex:
        return complex(np.exp(2j * np.pi * self.tau))


@dataclass(eq=False)
class KBlocks:
    modes: np.ndarray
    K11: np.ndarray
    K12: np.ndarray
    K21: np.ndarray
    F: np.ndarray
    tails: dict

    @property
    def K(self) -> np.ndarray:
        return self.K11 + self.K12 + self.K21


def _substitution_matrices(f, n_modes: int, buffer: int):
    """The parts of X -> X o f (``Finv``) and X -> X o f^{-1} (``F``) that
    the cropped system reads.

    ``Finv`` comes on the band rows -N..N x the columns 0..N+b, ``F`` on the
    rows -N..N+b x the band columns.  Both are read off one phase table
    e^{-i p_n f(x_j)}, n = 0..N+b, by one FFT batch each: f is real, so the
    negative modes are its conjugates.  The f^{-1} matrix comes from the
    change of variables x = f(y), so the inverse map is never sampled.
    """
    grid = f.grid
    N = n_modes
    band = np.arange(-N, N + 1)
    pb = 2.0 * np.pi * band / grid.L
    # rows n >= 0, from the modes' block phase tables
    phase = progression_phases(0.0, 2.0 * np.pi / grid.L, N + buffer + 1,
                               -f.samples)

    # Finv[m, n] = (1/L) int e^{i p_m x} e^{-i p_n f(x)} dx   (batch FFT over x)
    cols = np.fft.ifft(phase, axis=1)[:, band % grid.M]               # [n, m]
    Finv = (cols * np.exp(1j * pb * grid.x0)[None, :]).T              # [m, n]

    # F[m, n] = (1/L) int f'(y) e^{i p_m f(y)} e^{-i p_n y} dy  (batch FFT over
    # y); f' is real, so a row m >= 0 is the conjugate forward transform, and
    # a row m < 0 is the forward transform of row -m at the mirrored modes;
    # Finv has read the phase table, so it takes the weight f' in place
    phase *= f.deriv_samples(1)[None, :]
    gt = np.fft.fft(phase, axis=1)
    rows = np.concatenate([gt[N:0:-1][:, band % grid.M],
                           gt[:, (-band) % grid.M].conj()]) / grid.M
    F = rows * np.exp(-1j * pb * grid.x0)[None, :]                    # [m, n]
    return F, Finv


def assemble_K(problem: TorusWeldProblem) -> KBlocks:
    """Assemble the truncated Fredholm blocks in the Fourier basis.

    The ``K11`` product sums over the modes 0..N+b, extended past the band by
    the buffer b = N // 2, which keeps its band-edge entries spectrally
    accurate (the substitution operators scatter modes by a finite bandwidth
    factor); ``E0p`` zeroes the negative modes of that sum.  M >= 4 N keeps
    N + b below the grid's Nyquist mode.
    """
    N = problem.n_modes
    modes = np.arange(-N, N + 1)
    F, Finv = _substitution_matrices(problem.f, N, N // 2)
    K11 = np.diag((modes >= 0).astype(float)) - Finv @ F[N:]

    qn = problem.q ** np.arange(N + 1, dtype=float)
    K12 = np.zeros_like(K11)
    K12[:, N:] = Finv[:, :N + 1] * qn[None, :]
    K21 = np.zeros_like(K11)
    K21[:N] = qn[N:0:-1, None] * F[:N]

    tails = _tail_diagnostics(problem, K12, K21)
    worst = max(tails.values())
    if worst > problem.tail_tol:
        raise TruncationTooCoarse(
            f"kernel band-edge magnitude {worst:.2e} exceeds "
            f"tail_tol={problem.tail_tol:.2e} at N={N}; raise n_modes")
    return KBlocks(modes, K11, K12, K21, F[:2 * N + 1], tails)


def _band_to_grid(grid: PeriodicGrid, modes: np.ndarray, coeff: np.ndarray,
                  order: int) -> np.ndarray:
    """The ``order``-th derivative of the band series ``sum c_n e_n`` on the
    grid, by one FFT."""
    pn = 2.0 * np.pi * modes / grid.L
    full = np.zeros(grid.M, dtype=complex)
    full[modes % grid.M] = coeff * (-1j * pn) ** order \
        * np.exp(-1j * pn * grid.x0)
    return np.fft.fft(full)


def _tail_diagnostics(problem, K12, K21) -> dict:
    """Largest entries in the outermost mode band of the coupling blocks.

    Both fall as N grows.  K11's band edge is left out: its corner holds the
    part of the product that the buffer cuts off, which is the same share of
    the band-edge modes at every N, and the solve does not feel it (dropping
    the buffer raises it tenfold but moves tau_eff within its truncation
    error).
    """
    N = problem.n_modes
    w = max(1, N // 16)

    def edge_max(K):
        edge = np.zeros_like(K, dtype=bool)
        edge[:w, :] = True
        edge[-w:, :] = True
        edge[:, :w] = True
        edge[:, -w:] = True
        return float(np.max(np.abs(K[edge])))

    return {"K12": edge_max(K12), "K21": edge_max(K21)}


@dataclass(eq=False)
class TorusWeldSolution:
    problem: TorusWeldProblem
    modes: np.ndarray
    y1_coeff: np.ndarray          # band coefficients, mean fixed to zero
    tau_eff: complex
    tau_eff_boundary: complex
    cond_estimate: float
    solve_residual: float
    blocks: KBlocks
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def grid(self) -> PeriodicGrid:
        return self.problem.f.grid

    def y1_values(self, order: int) -> np.ndarray:
        """The ``order``-th derivative of Y1 on the assembly grid."""
        key = ("y1", order)
        if key not in self._cache:
            self._cache[key] = _band_to_grid(self.grid, self.modes,
                                             self.y1_coeff, order)
        return self._cache[key]

    @property
    def xprime(self) -> np.ndarray:
        return self.problem.f.deriv_samples(1) - self.y1_values(1)

    def xderiv(self, order: int) -> np.ndarray:
        if order == 1:
            return self.xprime
        return (self.problem.f.deriv_samples(order) - self.y1_values(order))

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


def solve_Y1(problem: TorusWeldProblem,
             blocks: KBlocks | None = None) -> TorusWeldSolution:
    """Solve the projected system and fix the effective modular parameter."""
    if blocks is None:
        blocks = assemble_K(problem)
    N = problem.n_modes
    modes = blocks.modes
    grid = problem.f.grid
    L = problem.L

    fm_band = grid.band_coefficients(problem.f.samples - grid.x, N)
    K = blocks.K
    sel = modes != 0
    A = np.eye(2 * N + 1, dtype=complex) - K
    A = A[np.ix_(sel, sel)]
    rhs_full = (np.where(modes < 0, 1.0, 0.0) * fm_band) - blocks.K12 @ fm_band
    b = rhs_full[sel]

    # LU solve gated by LAPACK's 1-norm condition estimate
    lu, piv = sla.lu_factor(A)
    rcond = sla.lapack.zgecon(lu, np.linalg.norm(A, 1))[0]
    cond = 1.0 / max(rcond, 1e-300)
    if cond > _COND_LIMIT:
        raise SingularSystem(f"projected system condition estimate {cond:.2e}")
    y = sla.lu_solve((lu, piv), b)
    res = float(np.linalg.norm(A @ y - b) / max(np.linalg.norm(b), 1e-300))

    y1 = np.zeros(2 * N + 1, dtype=complex)
    y1[sel] = y

    # direct effective modular parameter from the integrated jump datum
    y1p = _band_to_grid(grid, modes, y1, 1)
    fm = problem.f.samples - grid.x
    fp = problem.f.deriv_samples(1)
    tau_eff = problem.tau - grid.integral(fm * (fp - y1p)) / L ** 2

    # independent route: zero mode of the unprojected boundary equation
    tau_eff_b = problem.tau + ((K @ y1)[N] - (blocks.K12 @ fm_band)[N]) / L
    two_route = abs(tau_eff - tau_eff_b)
    if two_route > problem.tail_tol:
        raise TruncationTooCoarse(
            f"two-route tau_eff difference {two_route:.2e} exceeds "
            f"tail_tol={problem.tail_tol:.2e} at N={N}; raise n_modes")

    return TorusWeldSolution(problem, modes, y1, complex(tau_eff),
                             complex(tau_eff_b), cond, res, blocks,
                             _cache={("y1", 1): y1p})


def residual_diagnostics(sol: TorusWeldSolution) -> dict:
    """Unprojected boundary-relation residuals plus integrability defects."""
    problem = sol.problem
    blocks = sol.blocks
    modes = sol.modes
    grid = sol.grid
    N = problem.n_modes
    L = problem.L

    fm_band = grid.band_coefficients(problem.f.samples - grid.x, N)
    jump = fm_band.copy()
    jump[N] += L * (sol.tau_eff - problem.tau)     # Y12 = (f - id) + L (tau^ - tau)
    y2 = sol.y1_coeff - jump

    e0p = (modes >= 0).astype(float)
    em = (modes < 0).astype(float)
    r1 = e0p * sol.y1_coeff - blocks.K11 @ sol.y1_coeff - blocks.K12 @ y2
    r2 = em * y2 - blocks.K21 @ sol.y1_coeff

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
    out.update({f"tail_{k}": v for k, v in sol.blocks.tails.items()})
    out.update(sol.lemma1_defects())
    return out
