"""Band-to-cylinder conformal welding: the infinite-volume Nystrom solve.

The data is a line diffeomorphism ``g`` (identity outside a bounded
interval) and a band height ``gamma``.  The second-kind integral equation
for the boundary correction is recast through the free operator
``K0 = Q E+ + E- Q^{-1}`` into ``(I + Sigma) Z = Z12`` whose kernel blocks
decay rapidly in both momenta, so a Nystrom discretization on the
half-offset lattice converges fast.

The source ``Z12`` is known in closed form from the Fourier transform of
``g - id``; it decays only as fast as that transform, so the unknown is
split as ``Z = Z12 + dZ``.  Only the rapidly decaying correction ``dZ`` is
solved for on the truncated lattice ``|p| <= p_max``; the ``Z12`` part is
carried on the full fine lattice, keeping the reconstructed boundary
derivatives consistent with plain spectral differentiation of ``g``.

Momentum-space kernels of the substitution operators::

    (G^{-1} - I)^(p, q) = int e^{i(p-q)x} (e^{-i q (g(x)-x)} - 1) dx
    (G - I)^(p, q)      = int e^{i(p-q)x} (e^{+i p (g(x)-x)} g'(x) - 1) dx

where the second form comes from the change of variables x = g(y).  On the
lattice the first form is a sum over the points the displacement d moves,
since ``expm1(0) == 0`` makes every other term exactly zero.  Restricted to
that support S it factors into two small matrices,

    A(p, q) = sum_{m in S} e^{i p x_m} * [dx (e^{-i q d_m} - 1) e^{-i q x_m}],

so the whole block is one (n x |S|) @ (|S| x n) product; B comes from the
inverse displacement in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NearSingular, WindowTooSmall
from .profile import LineDiffeo
from .spectral import (LineGrid, lu_solve_conditioned,
                       schwarzian_from_derivatives)

__all__ = [
    "CylinderWeldProblem",
    "CylinderWeldSolution",
    "assemble_sigma",
    "solve_cylinder",
    "realspace_crosscheck",
]


# the support of g must keep this many band heights from the window edges
_MIN_EDGE_GAP = 5.0
# the solve refuses a Nystrom system whose condition estimate exceeds this
_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class CylinderWeldProblem:
    """Welding problem on the band, discretized on ``g``'s window grid;
    ``g_inverse`` holds g^{-1} on the same grid."""

    g: LineDiffeo
    gamma: float
    p_max: float
    g_inverse: LineDiffeo

    def __post_init__(self):
        grid = self.g.grid
        lo, hi = self.g.support
        if lo != hi:  # nontrivial support
            gap = min(lo - grid.x0, grid.x0 + grid.span - hi)
            if gap < _MIN_EDGE_GAP * self.gamma:
                raise WindowTooSmall(
                    f"support gap {gap:.3f} below "
                    f"{_MIN_EDGE_GAP} * gamma = {_MIN_EDGE_GAP * self.gamma:.3f}")
        if self.p_max > np.pi / grid.dx:
            raise ValueError("p_max exceeds the fine-lattice Nyquist momentum")

    @property
    def grid(self) -> LineGrid:
        return self.g.grid


@dataclass(eq=False)
class CylinderOperator:
    problem: CylinderWeldProblem
    sel: np.ndarray               # extended-lattice indices of the solve lattice
    psol: np.ndarray
    sigma: np.ndarray             # (2n, 2n) Nystrom matrix (weights included)
    z12_ext: np.ndarray           # source on the full fine lattice
    ghat_ext: np.ndarray
    diagnostics: dict


def _inverse_displacement(problem: CylinderWeldProblem) -> np.ndarray:
    """Displacement of g^{-1} on the lattice, exactly zero where it must be.

    g maps the hull of the points it moves onto itself, so g^{-1} fixes every
    lattice point outside that hull.  A computed inverse leaves round-off
    there, which would put those points in B's support.  When g moves no
    point, the inverse is not read.
    """
    x = problem.grid.x
    moved = np.nonzero(problem.g.displacement())[0]
    disp = np.zeros_like(x)
    if len(moved):
        hull = slice(moved[0], moved[-1] + 1)
        disp[hull] = problem.g_inverse.samples[hull] - x[hull]
    return disp


def _substitution_kernel(grid: LineGrid, disp: np.ndarray, p: np.ndarray,
                         weight: float):
    """Weighted kernel block ``weight * (e^{-i q d} - 1)^(p, q)`` for p, q in ``p``.

    Only the support S of ``disp`` contributes, so the block is the product
    ``e^{i p x_S} @ V`` with ``V[m, j] = weight dx expm1(-i p_j d_m)
    e^{-i p_j x_m}``.  Returns the block, S and V.
    """
    supp = np.nonzero(disp)[0]
    x = grid.x[supp]
    v = np.expm1(-1j * np.outer(disp[supp], p))
    v *= np.exp(-1j * np.outer(x, p))
    v *= weight * grid.dx
    return np.exp(1j * np.outer(p, x)) @ v, supp, v


def assemble_sigma(problem: CylinderWeldProblem) -> CylinderOperator:
    """Assemble the recast Nystrom matrix and the closed-form source."""
    grid = problem.grid
    gamma = problem.gamma
    pext = grid.p
    sel = np.where(np.abs(pext) <= problem.p_max)[0]
    if len(sel) % 2:
        sel = sel[:-1]
    psol = pext[sel]
    n2 = len(psol)
    nn = n2 // 2
    W = grid.dp / (2.0 * np.pi)

    gm = problem.g.displacement()
    ghat_ext = grid.ft(gm)
    # the quadrature weight W is folded into V, so A and B are never formed
    DA, supp_a, va = _substitution_kernel(grid, gm, psol, W)
    DB, _, _ = _substitution_kernel(grid, _inverse_displacement(problem),
                                    psol, W)

    # sum_q W A(p, q) e^{-gamma q} ghat(q) over q > 0, for every lattice p:
    # the transform of a field that lives on the support of the displacement
    eqp_cols = np.where(psol > 0, np.exp(-gamma * np.clip(psol, 0.0, None)), 0.0)
    u = np.zeros(grid.M, dtype=complex)
    u[supp_a] = va @ (eqp_cols * ghat_ext[sel]) / grid.dx
    daq_ghat_ext = grid.ft(u)

    sl_m, sl_p = slice(0, nn), slice(nn, n2)
    pp, pm = psol[sl_p], psol[sl_m]
    eqp = np.exp(-gamma * pp)
    eqm = np.exp(gamma * pm)
    Tp = 1.0 / -np.expm1(-gamma * pp)
    Tm = 1.0 / -np.expm1(gamma * pm)
    Inn = np.eye(nn)

    DApp, DApm = DA[sl_p, sl_p], DA[sl_p, sl_m]
    DAmp, DAmm = DA[sl_m, sl_p], DA[sl_m, sl_m]
    DBpp, DBpm = DB[sl_p, sl_p], DB[sl_p, sl_m]
    DBmp, DBmm = DB[sl_m, sl_p], DB[sl_m, sl_m]

    s_pp = -(DApm @ DBmp + DApp * eqp[None, :]) * Tp[None, :]
    s_pm = ((Inn + DApp) @ DBpm) * Tm[None, :]
    s_mp = -((Inn + DAmm) @ DBmp + DAmp * eqp[None, :]
             + eqm[:, None] * DBmp) * Tp[None, :]
    s_mm = (DAmp @ DBpm - eqm[:, None] * DBmm) * Tm[None, :]
    sigma = np.zeros((n2, n2), dtype=complex)
    sigma[sl_p, sl_p] = s_pp
    sigma[sl_p, sl_m] = s_pm
    sigma[sl_m, sl_p] = s_mp
    sigma[sl_m, sl_m] = s_mm

    z12_ext = -daq_ghat_ext - np.where(
        pext > 0, np.exp(-gamma * np.clip(pext, 0.0, None)), -1.0) * ghat_ext

    diagnostics = _assembly_diagnostics(problem, sigma, psol, ghat_ext, pext, W)
    return CylinderOperator(problem, sel, psol, sigma, z12_ext, ghat_ext,
                            diagnostics)


def _assembly_diagnostics(problem, sigma, psol, ghat_ext, pext, W) -> dict:
    # Schwartz-type bound: sampled |Sigma^(p,q)| (1+p^2)(1+q^2)
    ssub = sigma[::7, ::7] / W
    pp = psol[::7]
    wgt = (1.0 + pp[:, None] ** 2) * (1.0 + pp[None, :] ** 2)
    schwartz = float(np.max(np.abs(ssub) * wgt))
    src = np.abs(ghat_ext)
    peak = float(np.max(src))
    ncut = max(2, len(pext) // 20)
    edge = float(np.max(src[np.argsort(np.abs(pext))[-ncut:]]))
    return {
        "schwartz_bound": schwartz,
        "source_tail": edge / peak if peak > 0 else 0.0,
        "sigma_max": float(np.max(np.abs(sigma))),
    }


@dataclass(eq=False)
class CylinderWeldSolution:
    problem: CylinderWeldProblem
    operator: CylinderOperator
    zhat_ext: np.ndarray          # Z on the full lattice (source + correction)
    cond_estimate: float
    solve_residual: float
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def grid(self) -> LineGrid:
        return self.problem.grid

    def y1p_hat(self) -> np.ndarray:
        """Fourier transform of the boundary-correction derivative."""
        if "y1p_hat" not in self._cache:
            p = self.grid.p
            todd = p / -np.expm1(-self.problem.gamma * np.abs(p))
            self._cache["y1p_hat"] = -1j * todd * self.zhat_ext
        return self._cache["y1p_hat"]

    def _xm1_hat(self) -> np.ndarray:
        # transform of X' - 1 = (g' - 1) - Y1'
        if "xm1" not in self._cache:
            self._cache["xm1"] = (-1j * self.grid.p * self.operator.ghat_ext
                                  - self.y1p_hat())
        return self._cache["xm1"]

    def y1p(self, order: int = 0) -> np.ndarray:
        return self.grid.ift((-1j * self.grid.p) ** order * self.y1p_hat())

    @property
    def xprime(self) -> np.ndarray:
        key = "xprime"
        if key not in self._cache:
            self._cache[key] = 1.0 + self.grid.ift(self._xm1_hat())
        return self._cache[key]

    def xderiv(self, order: int) -> np.ndarray:
        if order == 1:
            return self.xprime
        return self.grid.ift((-1j * self.grid.p) ** (order - 1) * self._xm1_hat())

    def xprime_at(self, points) -> np.ndarray:
        return 1.0 + self.grid.eval_ft(self._xm1_hat(), points)

    @property
    def schwarzian(self) -> np.ndarray:
        return schwarzian_from_derivatives(
            self.xderiv(1), self.xderiv(2), self.xderiv(3))

    def decay_diagnostics(self) -> dict:
        """Exponential falloff of X' - 1 to the right of the twist support."""
        x = self.grid.x
        tail = np.abs(self.xprime - 1.0)
        lo, hi = self.problem.g.support
        right = x > hi + 0.05 * self.problem.gamma
        floor = max(np.median(tail[-max(8, self.grid.M // 50):]), 1e-300)
        keep = right & (tail > 50.0 * floor)
        if np.count_nonzero(keep) >= 4:
            rate = -float(np.polyfit(x[keep], np.log(tail[keep]), 1)[0])
        else:
            rate = float("nan")
        return {
            "xprime_tail_rate": rate,
            "expected_rate": 2.0 * np.pi / self.problem.gamma,
            "xprime_min_abs": float(np.min(np.abs(self.xprime))),
        }


def solve_cylinder(problem: CylinderWeldProblem) -> CylinderWeldSolution:
    """Solve the recast system for the correction and reconstruct the data."""
    operator = assemble_sigma(problem)
    sigma = operator.sigma
    n2 = sigma.shape[0]
    z12_sol = operator.z12_ext[operator.sel]
    dz, cond, res = lu_solve_conditioned(
        np.eye(n2, dtype=complex) + sigma, -sigma @ z12_sol, _COND_LIMIT,
        NearSingular, "Nystrom system")
    zhat_ext = operator.z12_ext.copy()
    zhat_ext[operator.sel] += dz
    return CylinderWeldSolution(problem, operator, zhat_ext, cond, res)


def _pv_antisym(f, x0: float, radius: float) -> complex:
    """PV int f(y) dy over |y - x0| < radius by symmetric excision.

    ``PV int = int_0^R (f(x0 + r) + f(x0 - r)) dr``: for a simple-pole kernel
    the two one-sided singular parts cancel in the sum, leaving a smooth
    integrand handled by 12 graded 24-point Gauss-Legendre panels (denser
    near r = 0).
    """
    nodes, wts = np.polynomial.legendre.leggauss(24)
    total = 0.0 + 0.0j
    edges = radius * (np.arange(13) / 12) ** 2
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        w = 0.5 * (b - a) * wts
        total += np.sum(w * (f(x0 + r) + f(x0 - r)))
    return total


def realspace_crosscheck(problem: CylinderWeldProblem,
                         sol: CylinderWeldSolution,
                         probes=None) -> dict:
    """Defects of the two real-space boundary relations (derivative form).

    The boundary values of the derivative of the holomorphic correction must
    satisfy, for every x,

        (1/2) Y1'(x)/g'(x) = (1/2 pi i) [ PV int Y1'(y)/(g(y)-g(x)) dy
                                          - int Y2'(y)/(y - g(x) + i gamma) dy ]
        (1/2) Y2'(x)       = (1/2 pi i) [ int Y1'(y)/(g(y) - x - i gamma) dy
                                          - PV int Y2'(y)/(y - x) dy ]

    with Y2' = Y1' - (g' - 1).  Principal values are computed by symmetric
    excision (antisymmetrized integrand) over |y - x| < 2 gamma with graded
    Gauss-Legendre panels; the quadrature route never touches the
    momentum-space solve.
    """
    grid = sol.grid
    gamma = problem.gamma
    g = problem.g
    ghat = grid.ft(g.displacement())
    y1p_hat = sol.y1p_hat()

    def y1p(y):
        return grid.eval_ft(y1p_hat, y)

    def gval(y):
        return y + grid.eval_ft(ghat, y).real

    def gp(y):
        return 1.0 + grid.eval_ft(ghat, y, deriv=1).real

    def y2p(y):
        return y1p(y) - (gp(y) - 1.0)

    if probes is None:
        lo, hi = g.support
        probes = np.linspace(lo - 0.5 * gamma, hi + 0.5 * gamma, 7)
    pv_radius = 2.0 * gamma

    xlo, xhi = grid.x0 + grid.dx, grid.x0 + grid.span - grid.dx
    nodes, wts = np.polynomial.legendre.leggauss(24)

    def smooth_int(f, a, b):
        if b <= a:
            return 0.0 + 0.0j
        # resolve the gamma-scale structure of the boundary data
        n_panels = max(8, int(np.ceil(2.0 * (b - a) / gamma)))
        total = 0.0 + 0.0j
        edges = np.linspace(a, b, n_panels + 1)
        for aa, bb in zip(edges[:-1], edges[1:]):
            r = 0.5 * (bb - aa) * nodes + 0.5 * (aa + bb)
            w = 0.5 * (bb - aa) * wts
            total += np.sum(w * f(r))
        return total

    d1 = []
    d2 = []
    for xt in np.atleast_1d(probes):
        gx = float(gval(np.array([xt]))[0])
        gpx = float(gp(np.array([xt]))[0])
        y1px = complex(y1p(np.array([xt]))[0])
        y2px = complex(y2p(np.array([xt]))[0])

        f1 = lambda y: y1p(y) / (gval(y) - gx)
        pv1 = _pv_antisym(f1, xt, pv_radius)
        pv1 += smooth_int(f1, xlo, xt - pv_radius)
        pv1 += smooth_int(f1, xt + pv_radius, xhi)
        t1 = smooth_int(lambda y: y2p(y) / (y - gx + 1j * gamma), xlo, xhi)
        d1.append(abs(0.5 * y1px / gpx - (pv1 - t1) / (2j * np.pi)))

        f2 = lambda y: y2p(y) / (y - xt)
        pv2 = _pv_antisym(f2, xt, pv_radius)
        pv2 += smooth_int(f2, xlo, xt - pv_radius)
        pv2 += smooth_int(f2, xt + pv_radius, xhi)
        t2 = smooth_int(lambda y: y1p(y) / (gval(y) - xt - 1j * gamma),
                        xlo, xhi)
        d2.append(abs(0.5 * y2px - (t2 - pv2) / (2j * np.pi)))

    return {
        "boundary_eq_1": float(np.max(d1)),
        "boundary_eq_2": float(np.max(d2)),
    }
