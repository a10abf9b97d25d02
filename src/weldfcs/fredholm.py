"""The core of both welding solvers: support factors of the substitution
kernels, on a lattice a sum over the points the displacement moves, since
``expm1(0) == 0`` makes every other term exactly zero; and GMRES, which
takes a few steps on the identity plus a compact part (Campbell, Ipsen,
Kelley and Meyer, BIT 36 (1996))."""

import numpy as np
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
    """Factors of the weighted kernel blocks ``weight * (e^{-i q d} - 1)^(p, q)``
    of each displacement d in ``disps``, for p in ``p``, consecutive momenta
    of the grid's spacing dp from a multiple of dp / 2, and q in ``p[a:b]``
    for its pair ``cols[k] = (a, b)`` (all of ``p`` by default).

    Only the union U of the supports contributes, so block k is the product
    ``P @ V_k`` of the one table ``P = e^{i p x_U}`` and ``V_k[m, j] =
    weight dx expm1(-i q_j d_m) e^{-i q_j x_m}``, whose rows at the points d
    does not move are exact zeros.  Both come from the lattice's block phase
    tables.  Returns P, the list of the V_k and U.
    """
    union = np.nonzero(np.logical_or.reduce([d != 0 for d in disps]))[0]
    j0, n = round(2.0 * p[0] / grid.dp) / 2, len(p)     # p_j = (j0 + j) dp
    phase = progression_phases(j0, grid.dp, n, grid.x[union])
    vs = []
    for d, (a, b) in zip(disps, cols or [(0, n)] * len(disps)):
        # V^T = conj(expm1(i q d) e^{i q x}): e^{-i q x} is the conjugate
        # of P, and both conjugates are exact
        v = progression_phases(j0 + a, grid.dp, b - a, d[union], expm1=True)
        v *= phase[a:b]
        np.conjugate(v, out=v)
        v *= weight * grid.dx
        vs.append(v.T)
    return phase, vs, union


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
