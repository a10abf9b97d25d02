"""The core of both welding solvers: support factors of the substitution
kernels, on a lattice a sum over the points the displacement moves, since
``expm1(0) == 0`` makes every other term exactly zero; the phase factor
that maps them back to momenta, which is a slice of the lattice DFT and is
applied by one FFT (Cooley and Tukey, Math. Comp. 19 (1965)); and GMRES,
which takes a few steps on the identity plus a compact part (Campbell,
Ipsen, Kelley and Meyer, BIT 36 (1996))."""

import math
from fractions import Fraction

import numpy as np
import scipy.fft
from scipy.linalg import solve_triangular

from .spectral import progression_phases

# GMRES stops once its least-squares residual estimate is this fraction of
# the right-hand side; unlike the true residual, that estimate keeps falling
# past round-off, so the stop is reached
_GMRES_TOL = 1e-15
# and refuses a system it has not solved in this many iterations
_GMRES_CAP = 100


def _substitution_kernel(grid, disps, p: np.ndarray, weight: float,
                         cols=None):
    """Support factors of the weighted kernel blocks
    ``weight * (e^{-i q d} - 1)^(p, q)`` of each displacement d in
    ``disps``, for p in ``p``, consecutive momenta of the grid's spacing dp
    from a multiple of dp / 2, and q in ``p[a:b]`` for its pair
    ``cols[k] = (a, b)`` (all of ``p`` by default).

    Only the union U of the supports contributes, so block k is the product
    ``P @ V_k`` of the phase factor ``P = e^{i p x_U}`` (``PhaseFactor``) and
    ``V_k[m, j] = weight dx expm1(-i q_j d_m) e^{-i q_j x_m}``, whose rows at
    the points d does not move are exact zeros.  V_k is one table of
    ``progression_phases`` at (-x_U, -d), the conjugate of
    ``e^{i q x} expm1(i q d)``, weight included.  Returns the list of the
    V_k and U.
    """
    union = np.nonzero(np.logical_or.reduce([d != 0 for d in disps]))[0]
    j0, n = round(2.0 * p[0] / grid.dp) / 2, len(p)     # p_j = (j0 + j) dp
    x = grid.x[union]
    vs = [progression_phases(j0 + a, grid.dp, b - a, -x, -d[union],
                             weight * grid.dx).T
          for d, (a, b) in zip(disps, cols or [(0, n)] * len(disps))]
    return vs, union


class PhaseFactor:
    """``P[j, k] = e^{i p_j x_{U_k}}`` over momenta ``p_j = (j0 + j) dp``,
    consecutive from a multiple of dp / 2, and lattice points U of a
    periodic or line grid; applied by FFT and never stored.

    With m_c the lattice point nearest x = 0 (x_c = x_0 + m_c span / M in
    exact arithmetic, |x_c| <= dx / 2) and m' = m - m_c,
    ``p_j x_m = p_j x_c + 2 pi (j0 + j) m' / M``.  So ``P w`` scatters w
    onto the lattice at m' mod M, pre-twiddles it by ``e^{2 pi i f m' / M}``
    for the fractional part f of j0 (1/2 on the line's half-offset lattice,
    0 on the circle), takes one unscaled inverse FFT, reads the rows
    ``floor(j0) + j`` mod M and post-twiddles them by ``e^{i p_j x_c}``.
    Every twiddle angle is at most pi, so the product errs by the FFT's
    round-off, not by the rounding of p x.
    """

    def __init__(self, grid, union: np.ndarray, p: np.ndarray):
        M, n = grid.M, len(p)
        self.dp, self.x = grid.dp, grid.x[union]
        self.j0 = round(2.0 * p[0] / grid.dp) / 2
        mc = int(round(-grid.x0 / grid.dx))
        xc = float(Fraction(grid.x0) + mc * Fraction(grid.span) / M)
        mp = union - mc
        self.size, self.scatter = M, mp % M
        k0 = math.floor(self.j0)
        # e^{i pi m' / M} at m' reduced mod 2M into [-M, M)
        self.pre = (np.exp(1j * np.pi * ((mp + M) % (2 * M) - M) / M)
                    if self.j0 != k0 else None)
        self.rows = (k0 + np.arange(n)) % M
        self.post = np.exp(1j * p * xc)

    def __call__(self, w: np.ndarray, rows=slice(None)) -> np.ndarray:
        """``P[rows] @ w`` for w of shape (|U|,) or (|U|, k), by one FFT of
        M points per column."""
        wt = w.T if self.pre is None else w.T * self.pre
        a = np.zeros(wt.shape[:-1] + (self.size,), dtype=complex)
        a[..., self.scatter] = wt
        y = scipy.fft.ifft(a, norm="forward", overwrite_x=True)
        return (y[..., self.rows[rows]] * self.post[rows]).T

    def table(self, start: int, stop: int) -> np.ndarray:
        """The rows ``start:stop`` of P, by ``progression_phases``; rows whose
        momenta are all negative are the rows at -p of the table at -x, in
        reverse order."""
        j0, n = self.j0 + start, stop - start
        if j0 + n - 1 < 0:
            return progression_phases(-(j0 + n - 1), self.dp, n,
                                      -self.x)[::-1]
        return progression_phases(j0, self.dp, n, self.x)


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
    basis = np.empty((n, cap + 1), dtype=complex)
    hess = np.zeros((cap + 1, cap), dtype=complex)
    # Givens rotations reduce hess to upper-triangular r column by column;
    # g is the rotated right-hand side, |g[j + 1]| the residual estimate
    r = np.zeros((cap, cap), dtype=complex)
    cs, sn = np.zeros(cap), np.zeros(cap, dtype=complex)
    g = np.zeros(cap + 1, dtype=complex)
    g[0] = beta
    basis[:, 0] = b / beta
    for j in range(cap):
        v = basis[:, :j + 1]
        w = basis[:, j] + sigma(basis[:, j])
        for _ in range(2):
            h = v.conj().T @ w
            w -= v @ h
            hess[:j + 1, j] += h
        hess[j + 1, j] = np.linalg.norm(w)
        col = hess[:j + 2, j].copy()
        for i in range(j):
            col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                  -np.conj(sn[i]) * col[i] + cs[i] * col[i + 1])
        a, rho = col[j], np.hypot(abs(col[j]), col[j + 1].real)
        if rho == 0.0:
            raise error("system singular on its Krylov space")
        cs[j] = abs(a) / rho
        sn[j] = col[j + 1].real / rho * (a / abs(a) if a != 0 else 1.0)
        r[:j + 1, j] = col[:j + 1]
        r[j, j] = cs[j] * a + sn[j] * col[j + 1]
        g[j + 1] = -np.conj(sn[j]) * g[j]
        g[j] *= cs[j]
        if abs(g[j + 1]) <= _GMRES_TOL * beta:
            break
        basis[:, j + 1] = w / hess[j + 1, j].real
    else:
        raise error(f"system not solved in {cap} GMRES iterations "
                    f"(residual estimate {abs(g[cap]) / beta:.2e})")
    k = j + 1
    sv = np.linalg.svd(hess[:k + 1, :k], compute_uv=False)
    cond = scale * float(sv[0] / max(sv[-1], 1e-300))
    if cond > limit:
        raise error(f"system condition estimate {cond:.2e}")
    y = solve_triangular(r[:k, :k], g[:k])
    return basis[:, :k] @ y, cond
