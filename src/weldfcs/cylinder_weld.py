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
lattice A, and B from the inverse displacement in the first form, factor
through the union of the two supports into one shared phase factor and a V
factor each (``fredholm._substitution_kernel``).  The phase factor is a
slice of the lattice DFT, applied by FFT and never stored
(``fredholm.PhaseFactor``).  Sigma is a short chain of these blocks, so it
is never formed: ``(I + Sigma) dZ = -Sigma Z12`` is solved from the
factors by ``fredholm._gmres``, in a few iterations, since Sigma is a
compact perturbation of the identity of low numerical rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import LinearOperator

from .errors import NearSingular, WindowTooSmall
from .fredholm import PhaseFactor, _gmres, _substitution_kernel
from .profile import Diffeo
from .spectral import LineGrid, schwarzian_from_derivatives

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

    g: Diffeo
    gamma: float
    p_max: float
    g_inverse: Diffeo

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


class FactoredSigma(LinearOperator):
    """The recast Nystrom operator Sigma (weights included), applied from the
    substitution-kernel factors DA = P V_A and DB = P V_B, which share one
    phase factor P (written P_A and P_B below), applied by FFT
    (``fredholm.PhaseFactor``).

    Rows and columns run over the p < 0 half of the solve lattice first.
    With T+- = 1 / (1 - e^{-+gamma p}), u+- = T+- x+-, c+- = V_B[:, +-] u+-,
    b1 = P_B[-] c+, b2 = P_B[+] c-, b3 = P_B[-] c- and
    z = (-b1, b2 - e^{-gamma p+} u+),

        Sigma x = (-(1 + e^{gamma p-}) b1 - e^{gamma p-} b3, b2) + P_A V_A z,

    at about 2 n |U| multiply-adds and two FFT batches of the lattice for
    order n and union support U: one over (c+, c-), which gives b1, b3 and
    b2, and one over V_A z.
    """

    def __init__(self, phase, va, vb, psol, gamma: float):
        n2 = len(psol)
        super().__init__(complex, (n2, n2))
        self.nn = nn = n2 // 2
        self.phase, self.va, self.vb = phase, va, vb
        pm, pp = psol[:nn], psol[nn:]
        self.eqp = np.exp(-gamma * pp)[:, None]
        self.eqm = np.exp(gamma * pm)[:, None]
        self.tp = 1.0 / -np.expm1(-gamma * pp)[:, None]
        self.tm = 1.0 / -np.expm1(gamma * pm)[:, None]

    def _matmat(self, x):
        nn, k = self.nn, x.shape[1]
        up = self.tp * x[nn:]
        um = self.tm * x[:nn]
        b = self.phase(np.hstack([self.vb[:, nn:] @ up,
                                  self.vb[:, :nn] @ um]))
        b1, b3, b2 = b[:nn, :k], b[:nn, k:], b[nn:, k:]
        out = self.phase(self.va @ np.vstack([-b1, b2 - self.eqp * up]))
        out[:nn] -= (1.0 + self.eqm) * b1 + self.eqm * b3
        out[nn:] += b2
        return out


@dataclass(eq=False)
class CylinderOperator:
    problem: CylinderWeldProblem
    sel: np.ndarray               # extended-lattice indices of the solve lattice
    psol: np.ndarray
    sigma: FactoredSigma          # (2n, 2n) Nystrom operator, never formed
    z12_ext: np.ndarray           # source on the full fine lattice
    ghat_ext: np.ndarray

    @cached_property
    def diagnostics(self) -> dict:
        """Sampled Schwartz-type bound ``|Sigma^(p, q)| (1+p^2)(1+q^2)`` over
        ``Sigma[::7, ::7]``, the largest |Sigma| entry and the source's tail.

        Computed on first read from Sigma's columns, a block at a time, so the
        solve pays nothing for it and no n x n array is held.
        """
        n2, grid = len(self.psol), self.problem.grid
        step, block = 7, 70       # blocks start on a sampled column
        sigma_max, sampled = 0.0, []
        for j0 in range(0, n2, block):
            s = self.sigma.matmat(np.eye(n2, min(block, n2 - j0), -j0,
                                         dtype=complex))
            sigma_max = max(sigma_max, float(np.max(np.abs(s))))
            sampled.append(s[::step, ::step])
        ssub = np.hstack(sampled) / (grid.dp / (2.0 * np.pi))
        pp = self.psol[::step]
        wgt = (1.0 + pp[:, None] ** 2) * (1.0 + pp[None, :] ** 2)
        src = np.abs(self.ghat_ext)
        peak = float(np.max(src))
        pext = grid.p
        ncut = max(2, len(pext) // 20)
        edge = float(np.max(src[np.argsort(np.abs(pext))[-ncut:]]))
        return {
            "schwartz_bound": float(np.max(np.abs(ssub) * wgt)),
            "source_tail": edge / peak if peak > 0 else 0.0,
            "sigma_max": sigma_max,
        }


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


def assemble_sigma(problem: CylinderWeldProblem) -> CylinderOperator:
    """Factor the recast Nystrom operator and assemble the closed-form source."""
    grid = problem.grid
    gamma = problem.gamma
    pext = grid.p
    sel = np.where(np.abs(pext) <= problem.p_max)[0]
    if len(sel) % 2:
        sel = sel[:-1]
    psol = pext[sel]
    W = grid.dp / (2.0 * np.pi)

    gm = problem.g.displacement()
    ghat_ext = grid.ft(gm)
    # the quadrature weight W is folded into V; both factors share the
    # phase factor over the union of the two supports
    (va, vb), union = _substitution_kernel(
        grid, (gm, _inverse_displacement(problem)), psol, W)

    # sum_q W A(p, q) e^{-gamma q} ghat(q) over q > 0, for every lattice p:
    # the transform of a field that lives on the support of the displacement
    eqp_cols = np.where(psol > 0, np.exp(-gamma * np.clip(psol, 0.0, None)), 0.0)
    u = np.zeros(grid.M, dtype=complex)
    u[union] = va @ (eqp_cols * ghat_ext[sel]) / grid.dx
    daq_ghat_ext = grid.ft(u)

    z12_ext = -daq_ghat_ext - np.where(
        pext > 0, np.exp(-gamma * np.clip(pext, 0.0, None)), -1.0) * ghat_ext
    return CylinderOperator(problem, sel, psol,
                            FactoredSigma(PhaseFactor(grid, union, psol),
                                          va, vb, psol, gamma),
                            z12_ext, ghat_ext)


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
    rhs = -sigma.matvec(operator.z12_ext[operator.sel])
    dz, cond = _gmres(sigma.matvec, rhs, _COND_LIMIT, NearSingular)
    # the true relative residual, one more product
    res = (np.linalg.norm(dz + sigma.matvec(dz) - rhs)
           / max(np.linalg.norm(rhs), 1e-300))
    zhat_ext = operator.z12_ext.copy()
    zhat_ext[operator.sel] += dz
    return CylinderWeldSolution(problem, operator, zhat_ext, cond, float(res))


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
    lo, hi = problem.g.support
    ghat = grid.ft(problem.g.displacement())
    # Y1', g - id and g' - 1 as three series, evaluated from one phase matrix
    series = np.stack([sol.y1p_hat(), ghat, -1j * grid.p * ghat], axis=1)

    def fields(y):
        """Y1', g, g' and Y2' at the points ``y``."""
        f = grid.eval_ft(series, y)
        y1p, gp = f[:, 0], 1.0 + f[:, 2].real
        return y1p, y + f[:, 1].real, gp, y1p - (gp - 1.0)

    nodes, wts = np.polynomial.legendre.leggauss(24)

    def panels(edges):
        """Nodes and weights of a 24-point Gauss-Legendre rule per panel."""
        half = 0.5 * np.diff(edges)[:, None]
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        return (half * nodes + mid).ravel(), (half * wts).ravel()

    def smooth_rule(a, b):
        # panels resolve the gamma-scale structure of the boundary data
        if b <= a:
            return np.empty(0), np.empty(0)
        return panels(np.linspace(a, b, max(8, int(np.ceil(2.0 * (b - a)
                                                            / gamma))) + 1))

    if probes is None:
        probes = np.linspace(lo - 0.5 * gamma, hi + 0.5 * gamma, 7)
    pv_radius = 2.0 * gamma
    xlo, xhi = grid.x0 + grid.dx, grid.x0 + grid.span - grid.dx
    # PV int f over |y - x| < R = int_0^R (f(x + r) + f(x - r)) dr: for a
    # simple-pole kernel the one-sided singular parts cancel in the sum, so
    # 12 panels graded towards r = 0 integrate it
    r, w_pv = panels(pv_radius * (np.arange(13) / 12) ** 2)
    n = len(r)
    y_all, w_all = smooth_rule(xlo, xhi)
    y1p_all, g_all, _, y2p_all = fields(y_all)

    d1 = []
    d2 = []
    for xt in np.atleast_1d(probes):
        y_lo, w_lo = smooth_rule(xlo, xt - pv_radius)
        y_hi, w_hi = smooth_rule(xt + pv_radius, xhi)
        w_out = np.concatenate([w_lo, w_hi])
        # the probe, then x + r, x - r and the panels outside the excision
        y = np.concatenate([[xt], xt + r, xt - r, y_lo, y_hi])
        y1p, gval, gp, y2p = fields(y)
        gx, gpx, y1px, y2px = gval[0], gp[0], y1p[0], y2p[0]

        def pv(f):
            # f on y[1:]: x + r, x - r, then the outside panels
            return (np.sum(w_pv * (f[:n] + f[n:2 * n]))
                    + np.sum(w_out * f[2 * n:]))

        pv1 = pv(y1p[1:] / (gval[1:] - gx))
        t1 = np.sum(w_all * (y2p_all / (y_all - gx + 1j * gamma)))
        d1.append(abs(0.5 * y1px / gpx - (pv1 - t1) / (2j * np.pi)))

        pv2 = pv(y2p[1:] / (y[1:] - xt))
        t2 = np.sum(w_all * (y1p_all / (g_all - xt - 1j * gamma)))
        d2.append(abs(0.5 * y2px - (t2 - pv2) / (2j * np.pi)))

    return {
        "boundary_eq_1": float(np.max(d1)),
        "boundary_eq_2": float(np.max(d2)),
    }
