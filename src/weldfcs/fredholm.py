"""The core of both welding solvers: one lattice object per welding node
(``PhaseFactor``), which holds the support factors of the substitution
kernels, on a lattice a sum over the points the displacement moves, since
``expm1(0) == 0`` makes every other term exactly zero, and applies the
phase factor that maps them back to momenta, a slice of the lattice DFT,
by one FFT (Cooley and Tukey, Math. Comp. 19 (1965)); GMRES,
which takes a few steps on the identity plus a compact part (Campbell,
Ipsen, Kelley and Meyer, BIT 36 (1996)); and the welded map both solutions
reconstruct, X = f - Y1 on the circle or g - Y1 on the line."""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import (LatticePoints, lattice_roots, progression_phases,
                       schwarzian_from_derivatives)

# GMRES stops once its least-squares residual estimate is this fraction of
# the right-hand side; unlike the true residual, that estimate keeps falling
# past round-off, so the stop is reached
_GMRES_TOL = 1e-15
# and refuses a system it has not solved in this many iterations
_GMRES_CAP = 100


class PhaseFactor:
    """The lattice of one welding node: the union U of the supports of
    ``disps`` (``support``), held as ``union`` with the displacements on it
    (``disps``), the phase factor ``P[j, k] = e^{i p_j x_{U_k}}`` over the
    momenta ``p_j = (j0 + j) dp`` of ``p``, consecutive from a multiple of
    dp / 2, applied by FFT and never stored, and the support factors ``v``.

    The kernel block ``weight * (e^{-i q d} - 1)^(p, q)`` of the k-th
    displacement d, for q in ``p[a:b]`` with ``cols[k] = (a, b)`` (all of
    ``p`` by default), is ``P @ V_k`` with
    ``V_k[m, j] = weight dx expm1(-i q_j d_m) e^{-i q_j x_m}``: one table
    of ``progression_phases`` at (-x_U, -d), the conjugate of
    ``e^{i q x} expm1(i q d)``, whose rows at the points d does not move
    are exact zeros.

    With m_c the lattice point nearest x = 0 (x_c = x_0 + m_c span / M in
    exact arithmetic, |x_c| <= dx / 2) and m' = m - m_c,
    ``p_j x_m = p_j x_c + 2 pi (j0 + j) m' / M``, so the phases of x in P
    and the V_k are roots of unity times a twiddle (``LatticePoints``).
    ``P w`` scatters w onto the lattice at m' mod M, pre-twiddles it by
    ``e^{2 pi i f m' / M}`` for the fractional part f of j0 (1/2 on the
    line's half-offset lattice, 0 on the circle), takes one unscaled
    inverse FFT, reads the rows ``floor(j0) + j`` mod M and post-twiddles
    them by ``e^{i p_j x_c}``.  Every twiddle angle is at most pi, so the
    product errs by the FFT's round-off, not by the rounding of p x.
    """

    def __init__(self, grid, disps, p: np.ndarray, weight: float,
                 cols=None):
        from fractions import Fraction  # not loaded by a warm fcs rerun
        M, n = grid.M, len(p)
        self.union = union = self.support(disps)
        self.disps = [d[union] for d in disps]
        mc = int(round(-grid.x0 / grid.dx))
        xc = float(Fraction(grid.x0) + mc * Fraction(grid.span) / M)
        mp = union - mc
        self.dp, self.lattice = grid.dp, LatticePoints(xc, mp, M)
        self.j0 = j0 = round(2.0 * p[0] / grid.dp) / 2
        x = LatticePoints(-xc, -mp, M)
        self.v = [progression_phases(j0 + a, grid.dp, b - a, x, -d,
                                     weight * grid.dx).T
                  for d, (a, b) in zip(self.disps,
                                       cols or [(0, n)] * len(disps))]
        self.size, self.scatter = M, mp % M
        k0 = math.floor(j0)
        # e^{i pi m' / M}, a root of unity
        self.pre = lattice_roots(M)[mp % (2 * M)] if j0 != k0 else None
        self.rows = (k0 + np.arange(n)) % M
        # none where x_c = 0, as on the torus's assembly grid
        self.post = np.exp(1j * p * xc) if xc != 0.0 else None

    @staticmethod
    def support(disps) -> np.ndarray:
        """The union U of the supports: the grid points any of the
        displacements moves."""
        return np.nonzero(np.logical_or.reduce([d != 0 for d in disps]))[0]

    def __call__(self, w: np.ndarray, rows=slice(None)) -> np.ndarray:
        """``P[rows] @ w`` for w of shape (|U|,) or (|U|, k), by one FFT of
        M points per column."""
        wt = w.T if self.pre is None else w.T * self.pre
        a = np.zeros(wt.shape[:-1] + (self.size,), dtype=complex)
        a[..., self.scatter] = wt
        y = np.fft.ifft(a, norm="forward")[..., self.rows[rows]]
        if self.post is not None:
            y *= self.post[rows]
        return y.T

    def table(self, rows: np.ndarray) -> np.ndarray:
        """The rows ``rows`` (indices) of P, gathered from the lattice's
        roots of unity (``LatticePoints.phases``)."""
        return self.lattice.phases(self.j0 + np.asarray(rows), self.dp)


def _gmres(sigma, b: np.ndarray, limit: float, error: type,
           scale: float = 1.0):
    """Solve ``(I + sigma) x = b`` by full-orthogonalization GMRES from x = 0,
    where ``sigma(x)`` applies the compact part.

    The Arnoldi basis is orthogonalized twice per step (classical
    Gram-Schmidt, repeated).  Returns ``(x, condition estimate)``: the
    estimate is ``scale`` times the ratio of the extreme singular values of
    the Arnoldi Hessenberg matrix, which are those of I + sigma on the Krylov
    space.  A zero ``b`` has the zero solution and reads ``scale``.  Raises
    ``error`` past ``_GMRES_CAP`` iterations or an estimate over ``limit``.
    """
    n = len(b)
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), scale
    cap = min(_GMRES_CAP, n)
    # one Krylov vector per row, so each is written and read contiguously
    basis = np.empty((cap + 1, n), dtype=complex)
    hess = np.zeros((cap + 1, cap), dtype=complex)
    # Givens rotations (cs real, sn complex) reduce hess to the
    # upper-triangular r column by column; g is the rotated right-hand
    # side, |g[j + 1]| the residual estimate.  The rotations and the
    # back-substitution run on Python scalars
    r, cs, sn, g = [], [], [], [complex(beta)]
    basis[0] = b / beta
    for j in range(cap):
        v = basis[:j + 1]
        w = basis[j] + sigma(basis[j])
        for _ in range(2):
            h = (v @ w.conj()).conj()
            w -= h @ v
            hess[:j + 1, j] += h
        norm = math.sqrt(np.vdot(w, w).real)
        hess[j + 1, j] = norm
        col = hess[:j + 1, j].tolist()
        for i in range(j):
            c, s = cs[i], sn[i]
            col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                  -s.conjugate() * col[i] + c * col[i + 1])
        a = col[j]
        rho = math.hypot(abs(a), norm)
        if rho == 0.0:
            raise error("system singular on its Krylov space")
        cs.append(abs(a) / rho)
        sn.append(norm / rho * (a / abs(a) if a != 0 else 1.0))
        col[j] = cs[j] * a + sn[j] * norm
        r.append(col)
        g.append(-sn[j].conjugate() * g[j])
        g[j] *= cs[j]
        if abs(g[j + 1]) <= _GMRES_TOL * beta:
            break
        basis[j + 1] = w / norm
    else:
        raise error(f"system not solved in {cap} GMRES iterations "
                    f"(residual estimate {abs(g[cap]) / beta:.2e})")
    k = j + 1
    sv = np.linalg.svd(hess[:k + 1, :k], compute_uv=False)
    cond = scale * float(sv[0] / max(sv[-1], 1e-300))
    if cond > limit:
        raise error(f"system condition estimate {cond:.2e}")
    # back-substitution on the triangular factor, a column at a time
    y = g[:k]
    for i in range(k - 1, -1, -1):
        y[i] /= r[i][i]
        for m in range(i):
            y[m] -= r[i][m] * y[i]
    return np.array(y) @ basis[:k], cond


@dataclass(eq=False)
class WeldSolution:
    """The welded map X of a solved welding problem, held as X - id in its
    grid's spectrum (``coefficients`` on a ``PeriodicGrid``, ``ft`` on a
    ``LineGrid``); each derivative on the grid is one ``grid.series``."""

    problem: object
    operator: object
    xm_coeff: np.ndarray          # X - id in the grid's spectrum
    cond_estimate: float
    _derivs: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def grid(self):
        return self.problem.grid

    @cached_property
    def diagnostics(self) -> dict:
        """The solve's condition estimate and true relative residual; each
        solution class adds its own checks of the welded map.  Taken on first
        read, so a solve that nobody reports on pays nothing for them."""
        return {"cond_estimate": self.cond_estimate,
                "solve_residual": self.solve_residual}

    def xderiv(self, order: int) -> np.ndarray:
        """The ``order``-th derivative of X on the grid, kept once made."""
        if order not in self._derivs:
            d = self.grid.series(self.xm_coeff, order)
            self._derivs[order] = d + 1.0 if order == 1 else d
        return self._derivs[order]

    @property
    def xprime(self) -> np.ndarray:
        return self.xderiv(1)

    def xprime_at(self, points) -> np.ndarray:
        """X' at arbitrary points: the interpolant of ``xprime``, the X'
        the action integrates, over all of its grid's modes."""
        return 1.0 + self.grid.interpolate(self.xprime - 1.0, points)

    @property
    def schwarzian(self) -> np.ndarray:
        """S X on the grid (X' never vanishes for solvable data)."""
        return schwarzian_from_derivatives(
            self.xderiv(1), self.xderiv(2), self.xderiv(3))
