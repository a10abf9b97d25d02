"""Counting-statistics generating functions, moments, and large deviations.

Infinite volume: ``ln Psi = sum over movers`` of a flow-time integral of the
welding action against the transport field, plus a profile counterterm.  The
central charge enters the log only as an overall factor, so results are
computed at c = 1 and scaled.

Finite volume: the same flow-time integral over torus weldings, a Virasoro
character ratio at the effective modular parameter, and the finite-volume
counterterm difference.

Closed forms for the first two cumulants, the long-time rates, the Legendre
rate function, and the jump-rate representation provide the oracles the
welding pipeline is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import profile as profile_mod
from .characters import Theory, log_character
from .cylinder_weld import CylinderWeldProblem, node_size, solve_cylinder
from .errors import (ConfigInvalid, DeltaBetaZero, NodeTooLarge, OutOfRange,
                     PoleHit)
from .fredholm import PhaseFactor
from .profile import (InfiniteVolume, TemperatureProfile, VolumeContext,
                      XiField, build_h, build_xi, periodize_profile)
# flow_family is not called here, but perfbench's tracer wraps this name
from .profile import flow_family  # noqa: F401
from .spectral import (LineGrid, PeriodicGrid, bose_weight,
                       gauss_legendre_panels)
from .torus_weld import TorusWeldProblem, node_bytes, solve_Y1

__all__ = [
    "Numerics",
    "psi_infinite",
    "psi_finite",
    "counterterm_mover",
    "counterterm_finite",
    "torus_nodes",
    "cylinder_nodes",
    "moments_closed_form",
    "appendix_b_check",
    "ldf",
    "levitov_lesovik",
    "rate_function",
    "levy_jump_rates",
    "levy_khintchine_check",
    "longtime_approach",
]


@dataclass(frozen=True)
class Numerics:
    """Resolution and tolerance knobs; defaults match the documented scheme."""

    # torus (finite volume); the assembly grid has 4 * n_modes points
    n_modes: int = 256
    tail_tol: float = 1e-3
    # cylinder (infinite volume)
    # in units of the kink half-width; cylinder_grid rounds the lattice up
    # to a power of two, so the real spacing is at most dx
    dx: float = 0.02
    window_pad_gamma: float = 12.0
    window_factor: float = 8.0     # full FFT span / padded support window
    p_max_gamma: float = 40.0      # P_max = p_max_gamma / gamma
    # flow-time quadrature
    s_nodes: int = 8
    s_panels: int = 1

    def key(self) -> tuple:
        return ("numerics", *(getattr(self, f.name) for f in fields(self)))


def cylinder_grid(xi_field: XiField, s_extent: float,
                  numerics: Numerics) -> LineGrid:
    """Deterministic window grid for all flow times up to ``s_extent``."""
    lo, hi = xi_field.support
    gamma = xi_field.gamma
    drift = abs(gamma * s_extent)
    pad = numerics.window_pad_gamma * gamma
    wlo = lo - pad - drift
    whi = hi + pad + drift
    span = (whi - wlo) * numerics.window_factor
    dx = numerics.dx * xi_field.profile.half_width
    points = span / dx
    if points <= 1.0:
        raise ConfigInvalid("numerics.dx", f"spacing {dx:.6g} leaves at most "
                            f"one lattice point in the {span:.6g} window")
    if math.isinf(points):
        raise NodeTooLarge(f"cylinder window of span {span:.6g} has no finite "
                           f"lattice at spacing {dx:.6g}; lower |lambda| or "
                           f"coarsen the cylinder numerics")
    m = 1 << math.ceil(math.log2(points))
    x0 = 0.5 * (wlo + whi) - 0.5 * span
    return LineGrid(x0=x0, span=span, M=m)


# a welding node whose working set (``cylinder_weld.node_size``,
# ``torus_weld.node_bytes``) would take more bytes than this is refused
# before any of it is allocated
_NODE_BYTES_MAX = 2 ** 30


def _refuse_over_budget(nbytes: int, needs: str, advice: str):
    """Raise ``NodeTooLarge`` when a node ``needs`` more than the budget."""
    if nbytes > _NODE_BYTES_MAX:
        # a size near the float limit does not divide into a float: give
        # its power of two
        bits = nbytes.bit_length()
        size = (f"{nbytes / 2 ** 30:.3g}" if bits < 1000
                else f"2^{bits - 31}")
        raise NodeTooLarge(
            f"{needs}, about {size} GiB, over the "
            f"{_NODE_BYTES_MAX / 2 ** 30:.3g} GiB budget; {advice}")


def _count(n: int) -> str:
    """``n`` in full below 2^64, past it as a power of two."""
    return str(n) if n.bit_length() <= 64 else f"2^{math.log2(n):.4g}"


def _refuse_torus(n: int, support: int):
    """Refuse a torus node with n modes and union support of ``support``
    points if its working set is over the budget."""
    _refuse_over_budget(
        node_bytes(n, support),
        f"torus node with {n} modes and {support} moved grid points",
        "lower numerics.n_modes")


def _flow_rule(s_end: float, numerics: Numerics):
    """Nodes and weights of the flow-time rule, ``numerics.s_nodes``-point
    Gauss-Legendre on each of ``numerics.s_panels`` equal panels of
    [0, s_end].  The rule is refused before it is built when its arrays
    would pass the budget: the n x n companion matrix whose eigenvalues
    are the n nodes (``numpy.polynomial.legendre.leggauss``), and the
    nodes and weights of all panels."""
    n, panels = numerics.s_nodes, numerics.s_panels
    _refuse_over_budget(8 * n * n + 16 * n * panels,
                        f"flow-time rule of numerics.s_nodes = {n} on "
                        f"numerics.s_panels = {panels}",
                        "lower numerics.s_nodes or numerics.s_panels")
    return gauss_legendre_panels(n, np.linspace(0.0, s_end, panels + 1))


def _line_flow_family(xi_field: XiField, s_values, grid):
    """``flow_family`` through its module, so a traced run counts one flows
    call per node set."""
    return profile_mod.flow_family(xi_field, s_values, grid)


@dataclass(frozen=True, eq=False)
class WeldNodes:
    """Welding nodes of one transport field at the flow times ``s_values``.

    One grid serves the whole set and the flows are taken over the whole
    set.
    """

    xi: XiField
    grid: PeriodicGrid | LineGrid
    s_values: np.ndarray
    numerics: Numerics

    @cached_property
    def xi_values(self) -> np.ndarray:
        try:
            return self.xi(self.grid.x)
        except MemoryError as exc:
            raise self._out_of_memory(f"field at t = {self.xi.t:.6g}") from exc

    def _out_of_memory(self, what: str) -> NodeTooLarge:
        volume = "torus" if self.xi.finite else "cylinder"
        return NodeTooLarge(
            f"{volume} {what} on a {self.grid.M}-point grid ran out of memory "
            f"below the {_NODE_BYTES_MAX / 2 ** 30:.3g} GiB budget")

    def solutions(self):
        """Welding solutions at ``s_values``, in order, solved one at a time
        as they are asked for.  A torus set is refused when its largest
        node's factors, sized by the supports of the flows, would be over
        the budget."""
        s_values, num, xi = self.s_values, self.numerics, self.xi
        try:
            pairs = _line_flow_family(xi, s_values, self.grid)
            if xi.finite:
                tau0, n = 1j * xi.gamma / xi.L, num.n_modes
                problems = [TorusWeldProblem(f, tau0 - xi.gamma * s / xi.L, n,
                                             finv, num.tail_tol)
                            for (f, finv), s in zip(pairs, s_values)]
                _refuse_torus(n, max(
                    (len(PhaseFactor.support(p.displacements))
                     for p in problems), default=0))
            else:
                problems = [CylinderWeldProblem(
                    g, xi.gamma, num.p_max_gamma / xi.gamma, ginv)
                    for g, ginv in pairs]
        except MemoryError as exc:
            raise self._out_of_memory(f"flows at t = {xi.t:.6g}") from exc
        solve = solve_Y1 if xi.finite else solve_cylinder
        for problem, s in zip(problems, s_values):
            try:
                sol = solve(problem)
            except MemoryError as exc:
                raise self._out_of_memory(f"node at t = {xi.t:.6g}, "
                                          f"s = {s:.6g}") from exc
            yield sol
            del sol             # the next node is solved without its factors


def torus_nodes(profile: TemperatureProfile, ctx: VolumeContext, t: float,
                s_values, numerics: Numerics) -> WeldNodes:
    """Torus weldings of the box field at the drifted modular parameters
    ``tau_s = i gamma_L / L - gamma_L s / L``, on the 4N-point assembly
    grid."""
    n = numerics.n_modes
    _refuse_torus(n, 0)                 # the flows fix the supports later
    grid = PeriodicGrid(ctx.L, 4 * n, x0=-0.75 * ctx.L)
    return WeldNodes(build_xi(profile, ctx, t), grid,
                     np.asarray(s_values, dtype=float), numerics)


def cylinder_nodes(profile: TemperatureProfile, v: float, t: float,
                   mover: str, s_values, numerics: Numerics) -> WeldNodes:
    """Cylinder weldings of one mover's field, on the window grid sized by
    the largest |s| of the whole set."""
    xi_field = build_xi(profile, InfiniteVolume(v), t, mover)
    s_values = np.asarray(s_values, dtype=float)
    grid = cylinder_grid(xi_field, float(np.max(np.abs(s_values),
                                                initial=0.0)), numerics)
    p_max = numerics.p_max_gamma / xi_field.gamma
    if p_max > np.pi / grid.dx:
        raise ConfigInvalid("numerics.p_max_gamma", f"cutoff {p_max:.6g} is "
                            f"over the Nyquist momentum {np.pi / grid.dx:.6g}")
    if p_max < 0.5 * grid.dp:
        raise ConfigInvalid("numerics.p_max_gamma", f"cutoff {p_max:.6g} is "
                            f"below the first solve momentum "
                            f"{0.5 * grid.dp:.6g}, so the Nystrom system "
                            f"would be empty")
    m, order, nbytes = node_size(grid, p_max, numerics.window_factor)
    _refuse_over_budget(nbytes, f"cylinder node needs a {_count(m)}-point "
                        f"lattice and a Nystrom system of order "
                        f"{_count(order)}",
                        "lower |lambda| or coarsen the cylinder numerics")
    return WeldNodes(xi_field, grid, s_values, numerics)


def _cached(cache, key: tuple, compute):
    """``compute()``, stored in and served from ``cache`` when there is one."""
    value = None if cache is None else cache.get_scalar(key)
    if value is None:
        value = compute()
        if cache is not None:
            cache.put_scalar(key, value)
    return value


def _node_records(welds: WeldNodes) -> np.ndarray:
    """Welding record ``(int xi SX dx, int xi X'^2 dx)`` at each node of
    ``welds`` (c-independent), one row per node, in either volume.  No
    solution is held past its record, so a node is solved while the one
    before it, with its factors, is already freed."""
    xiv, grid = welds.xi_values, welds.grid

    def record(sol):
        return (complex(grid.integral(xiv * sol.schwarzian)),
                complex(grid.integral(xiv * sol.xprime ** 2)))

    return np.array(list(map(record, welds.solutions())), dtype=complex)


def _flow_integrals(welds, s_end: float, numerics: Numerics):
    """``int_0^s_end ds`` of each entry of the node record on the
    Gauss-Legendre panels of ``numerics``: ``(a_SX, a_X'^2)``.  ``welds``
    builds the node set at the rule's flow times."""
    nodes, weights = _flow_rule(s_end, numerics)
    a_sx, a_xp2 = np.dot(weights, _node_records(welds(nodes)))
    return complex(a_sx), complex(a_xp2)


def _fixed_rule(integrand, edges) -> float:
    """``int integrand(x) dx`` over the span of ``edges``, by 8 panels of
    32-point Gauss-Legendre on each piece between consecutive edges.

    ``integrand`` takes an array.  Cut at its kinks, the pieces are smooth;
    the counterterms' Schwarzian factor vanishes with all its derivatives at
    the ends of its window.  The rule meets adaptive quadrature within 1e-14.
    """
    edges = np.unique(edges)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        nodes, weights = gauss_legendre_panels(32,
                                               np.linspace(0.0, b - a, 9))
        total += float(np.dot(weights, integrand(a + nodes)))
    return total


def counterterm_mover(profile: TemperatureProfile, t: float, v: float,
                      c: float, mover: str) -> float:
    """Infinite-volume counterterm of one mover,
    ``(c v / 24 pi) int (beta(x + sigma vt) - beta(x)) Sh(x) dx`` with
    sigma = +1 for '+' and -1 for '-'; the Schwarzian of the reparameterizing
    map restricts the integrand to the kink interval."""
    sign = 1.0 if mover == "+" else -1.0
    h = build_h(profile)
    val = _fixed_rule(lambda x: (profile.beta(x + sign * v * t)
                                 - profile.beta(x)) * h.schwarzian(x),
                      profile.support)
    return c * v / (24.0 * np.pi) * val


def counterterm_finite(profile: TemperatureProfile, ctx: VolumeContext,
                       t: float, c: float) -> float:
    """Finite-volume counterterm ``(c v/24 pi) int_I beta_L(x+vt) Sh_L(x) dx``.

    The Schwarzian of the lifted map is supported on the kink image and its
    reflection, so the integral reduces to two short windows.
    """
    h = build_h(profile, ctx)
    beta_L = periodize_profile(profile, ctx)
    v = ctx.v
    lo, hi = profile.support
    windows = [(lo, hi), (-0.5 * ctx.L - hi, -0.5 * ctx.L - lo)]
    val = sum(_fixed_rule(lambda x: beta_L(x + v * t) * h.schwarzian(x), w)
              for w in windows)
    return c * v / (24.0 * np.pi) * val


def _flow_time(profile: TemperatureProfile, lam: float | None,
               by_s: float | None) -> float:
    """End flow time: ``by_s`` if given, else ``lam / delta_beta``."""
    if by_s is not None:
        return by_s
    if lam is None:
        raise ValueError("one of lam / by_s is required")
    if profile.delta_beta == 0.0:
        raise DeltaBetaZero("equal asymptotic temperatures; pass by_s")
    return lam / profile.delta_beta


@dataclass
class PsiValue:
    """One evaluation of the log generating function."""

    lam: float | None
    s_end: float
    ln_psi: complex
    ln_psi_plus: complex | None = None
    ln_psi_minus: complex | None = None
    meta: dict = field(default_factory=dict)


def psi_infinite(profile: TemperatureProfile, c: float, t: float,
                 lam: float | None = None, v: float = 1.0,
                 numerics: Numerics | None = None, cache=None,
                 by_s: float | None = None) -> PsiValue:
    """Thermodynamic-limit log generating function at one counting parameter.

    ``lam`` parameterizes by the counting variable (flow time
    ``s = lam / delta_beta``); the equal-temperature limit must use ``by_s``.
    The ``c``-dependence is an exact overall factor.  Each mover's welding
    action is ``a_SX - (2 pi^2 / gamma^2) a_X'^2``.
    """
    numerics = numerics or Numerics()
    s_end = _flow_time(profile, lam, by_s)
    if s_end == 0.0:
        return PsiValue(lam, 0.0, 0.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j)

    gamma = v * profile.beta0
    pkey = profile.key()
    # one record holds both movers' flow integrals and one their
    # counterterms, which include v/(24 pi) and do not depend on lam
    flows = _cached(cache, ("cyl_flows", pkey, v, t, s_end, numerics.key()),
                    lambda: tuple(_flow_integrals(
                        lambda s, m=m: cylinder_nodes(profile, v, t, m, s,
                                                      numerics),
                        s_end, numerics) for m in ("+", "-")))
    cts = _cached(cache, ("ct_movers", pkey, t, v),
                  lambda: tuple(counterterm_mover(profile, t, v, 1.0, m)
                                for m in ("+", "-")))
    plus, minus = [-1j * c / (24.0 * np.pi)
                   * (a_sx - (2.0 * np.pi ** 2 / gamma ** 2) * a_xp2)
                   - 1j * c * s_end * ct
                   for (a_sx, a_xp2), ct in zip(flows, cts)]
    return PsiValue(lam, s_end, plus + minus, plus, minus)


def psi_finite(profile: TemperatureProfile, theory: Theory, ctx: VolumeContext,
               t: float, lam: float | None = None,
               numerics: Numerics | None = None, cache=None,
               by_s: float | None = None) -> PsiValue:
    """Finite-volume log generating function via torus welding.

    Needs an evaluable character, i.e. a free-boson or free-fermion theory.
    """
    numerics = numerics or Numerics()
    s_end = _flow_time(profile, lam, by_s)
    c = theory.c
    if s_end == 0.0:
        return PsiValue(lam, 0.0, 0.0 + 0.0j)

    # tau_0 (its beta_{0,L} takes both kink tables) and the counterterms at
    # t and at 0, which do not depend on lam, in one record
    bkey = ctx.key()
    tau0, ct = _cached(cache, ("box_terms", bkey, t, c),
                       lambda: (1j * ctx.gammaL / ctx.L,
                                counterterm_finite(profile, ctx, t, c)
                                - counterterm_finite(profile, ctx, 0.0, c)))
    action, a_xp2 = _cached(
        cache, ("torus_flow", bkey, t, s_end, numerics.key()),
        lambda: _flow_integrals(
            lambda s: torus_nodes(profile, ctx, t, s, numerics), s_end,
            numerics))
    # tau^ = tau_0 + L^-2 int ds int xi X'^2 dx
    tau_hat = tau0 + a_xp2 / ctx.L ** 2
    log_ratio = log_character(theory, tau_hat) - log_character(theory, tau0)
    ln_psi = (-1j * c / (24.0 * np.pi) * action + log_ratio
              - 1j * s_end * ct)
    return PsiValue(lam, s_end, ln_psi,
                    meta={"tau_hat": tau_hat, "tau0": tau0,
                          "log_char_ratio": log_ratio})


# ----------------------------------------------------------------------
# closed-form moments and the quadrature oracle behind the variance kernel
# ----------------------------------------------------------------------

def moments_closed_form(profile: TemperatureProfile, c: float, t: float,
                        v: float = 1.0) -> dict:
    """First two cumulants of the energy transfer from the closed forms."""
    dbeta = profile.delta_beta
    if dbeta == 0.0:
        raise DeltaBetaZero("moments are parameterized by delta beta")
    beta0 = profile.beta0
    gamma = v * beta0
    if not np.finfo(float).tiny <= gamma * gamma < math.inf:
        # both cumulants carry 1 / gamma^2
        raise OutOfRange(f"gamma = v beta0 = {gamma:.6g} squares outside "
                         f"the double range; bring profile.v nearer 1")
    h = build_h(profile)
    lo, hi = profile.support

    mean = 0.0
    for mover, sign in (("+", 1.0), ("-", -1.0)):
        # int xi dy by the substitution y = h(x); both movers give the same
        # value.  The integrand has kinks where x or x + sign vt crosses an
        # edge of the kink
        def igr(x):
            b = profile.beta(x)
            return (profile.beta(x + sign * v * t) / b - 1.0) * beta0 / b
        shift = sign * v * t
        xi_int = gamma * _fixed_rule(igr, (lo, hi, lo - shift, hi - shift))
        ct = counterterm_mover(profile, t, v, c, mover)
        mean += (np.pi * c / (12.0 * gamma ** 2 * dbeta) * xi_int
                 - ct / dbeta)

    # variance: momentum quadrature of the transport-field power spectrum
    var = 0.0
    for mover in ("+", "-"):
        xi_field = build_xi(profile, InfiniteVolume(v), t, mover)
        slo, shi = xi_field.support
        pad = 8.0 * gamma
        span = 4.0 * ((shi - slo) + 2 * pad)
        m = 1 << int(math.ceil(math.log2(span / (0.01 * profile.half_width))))
        # x, xi, p and the kernel in doubles, the transform in complex
        _refuse_over_budget(48 * m, f"variance quadrature needs a "
                            f"{_count(m)}-point lattice",
                            "bring profile.v nearer 1 or lower t")
        grid = LineGrid(x0=0.5 * (slo + shi) - span / 2, span=span, M=m)
        xihat = grid.ft(xi_field(grid.x))
        p = grid.p
        # a kernel that overflows leaves var not finite, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            kern = (p ** 2 + 4.0 * np.pi ** 2 / gamma ** 2) \
                * bose_weight(p, gamma)
            var += (c / (48.0 * np.pi ** 2 * dbeta ** 2)
                    * np.sum(kern * np.abs(xihat) ** 2).real * grid.dp)
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise OutOfRange(f"closed-form cumulants at gamma = {gamma:.6g} are "
                         f"not finite; bring profile.v nearer 1")
    return {"mean": mean, "variance": var, "delta_beta": dbeta, "gamma": gamma}


def appendix_b_check(gamma: float, p: float) -> dict:
    """Fourier transform of the inverse fourth-power sinh kernel.

    Quadrature along a contour shifted into the upper half plane (the +i0
    prescription) against the closed form
    ``(gamma^4 / 3 pi^3) p (p^2 + 4 pi^2/gamma^2) / (1 - e^{-gamma p})``.
    """
    from scipy.integrate import quad
    eta = 0.25 * gamma
    span = 12.0 * gamma          # integrand ~ exp(-4 pi |y| / gamma)

    def integrand(y):
        z = y + 1j * eta
        return np.exp(-1j * p * z) / np.sinh(np.pi * z / gamma) ** 4

    value = quad(integrand, -span, span, epsabs=1e-13, epsrel=1e-12,
                 limit=800, complex_func=True)[0]
    closed = (gamma ** 4 / (3.0 * np.pi ** 3) * p
              * (p ** 2 + 4.0 * np.pi ** 2 / gamma ** 2)
              / -np.expm1(-gamma * p))
    return {"quadrature": value, "closed_form": closed,
            "abs_error": abs(value - closed)}


# ----------------------------------------------------------------------
# large deviations
# ----------------------------------------------------------------------

def ldf(beta_left: float, beta_right: float, c: float, lam) -> dict:
    """Long-time rates of the two movers and their sum (closed form)."""
    lam = complex(lam)
    for pole in (-1j * beta_left, 1j * beta_right):
        if abs(lam - pole) < 1e-12 * max(beta_left, beta_right):
            raise PoleHit(f"lambda = {lam} sits on a closed-form pole")
    pref = np.pi * c / 12.0
    xi_p = pref * (1.0 / (beta_left - 1j * lam) - 1.0 / beta_left)
    xi_m = pref * (1.0 / (beta_right + 1j * lam) - 1.0 / beta_right)
    return {"plus": xi_p, "minus": xi_m, "total": xi_p + xi_m}


def levitov_lesovik(beta_left: float, beta_right: float, lam: float) -> complex:
    """Free-fermion (c=1) two-channel pure-transmission rate by quadrature."""
    from scipy.integrate import quad

    def fermi(b, w):
        return 1.0 / (np.exp(b * w) + 1.0)

    def integrand(w):
        fl = fermi(beta_left, w)
        fr = fermi(beta_right, w)
        val = np.log(1.0 + fl * (1.0 - fr) * (np.exp(1j * lam * w) - 1.0)
                     + fr * (1.0 - fl) * (np.exp(-1j * lam * w) - 1.0))
        return val

    span = 60.0 / min(beta_left, beta_right)
    return quad(integrand, -span, span, epsabs=1e-13, epsrel=1e-12,
                limit=800, complex_func=True)[0] / (2.0 * np.pi)


def _ldf_real(beta_left: float, beta_right: float, c: float, nu: float) -> float:
    pref = np.pi * c / 12.0
    return pref * (1.0 / (beta_left - nu) - 1.0 / beta_left
                   + 1.0 / (beta_right + nu) - 1.0 / beta_right)


def _ldf_real_deriv(beta_left, beta_right, c, nu) -> float:
    pref = np.pi * c / 12.0
    return pref * (1.0 / (beta_left - nu) ** 2 - 1.0 / (beta_right + nu) ** 2)


def rate_function(beta_left: float, beta_right: float, c: float,
                  sigma) -> dict:
    """Legendre transform of the long-time rate over the analyticity strip.

    The objective ``nu sigma - Xi(-i nu)`` is strictly concave on
    ``(-beta_right, beta_left)`` and its derivative spans all of R, so the
    stationary point is bracketed and polished to machine accuracy.  The
    bracket stops 1e-12 min(beta) short of the poles; a sigma past the
    slopes it reaches there raises ``OutOfRange``.
    """
    from scipy.optimize import brentq
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    eps = 1e-12 * min(beta_left, beta_right)
    lo, hi = -beta_right + eps, beta_left - eps
    d_lo, d_hi = (_ldf_real_deriv(beta_left, beta_right, c, nu)
                  for nu in (lo, hi))
    out_i = np.empty(len(sigma))
    out_nu = np.empty(len(sigma))
    for k, s in enumerate(sigma):
        if not d_lo <= s <= d_hi:
            raise OutOfRange(f"sigma = {s:.6g} lies outside the slopes "
                             f"[{d_lo:.6g}, {d_hi:.6g}] that the bracket of "
                             f"nu* reaches")
        fun = lambda nu: _ldf_real_deriv(beta_left, beta_right, c, nu) - s
        nu_star = brentq(fun, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        out_nu[k] = nu_star
        out_i[k] = nu_star * s - _ldf_real(beta_left, beta_right, c, nu_star)
    return {"sigma": sigma, "rate": out_i, "nu_star": out_nu}


def levy_jump_rates(beta_left: float, beta_right: float, c: float,
                    x, y) -> np.ndarray:
    """Jump-rate density w(x, y); the measure-zero diagonal uses theta(0)=1/2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    q = y - x
    theta_p = np.where(q > 0, 1.0, np.where(q == 0, 0.5, 0.0))
    theta_m = np.where(q < 0, 1.0, np.where(q == 0, 0.5, 0.0))
    return (np.pi * c / 12.0) * (np.exp(-beta_left * np.clip(q, 0, None)) * theta_p
                                 + np.exp(-beta_right * np.clip(-q, 0, None)) * theta_m)


def levy_khintchine_check(beta_left: float, beta_right: float, c: float,
                          lam: float) -> dict:
    """Jump-measure integral of (e^{i lam q} - 1) against the closed form."""
    from scipy.integrate import quad

    def integrand(q):
        dens = np.exp(-beta_left * q) if q > 0 else np.exp(beta_right * q)
        val = (np.exp(1j * lam * q) - 1.0) * dens
        return val

    span = 60.0 / min(beta_left, beta_right)
    value = (np.pi * c / 12.0) * quad(integrand, -span, span, epsabs=1e-13,
                                      epsrel=1e-12, limit=800,
                                      complex_func=True)[0]
    closed = ldf(beta_left, beta_right, c, lam)["total"]
    return {"quadrature": value, "closed_form": closed,
            "abs_error": abs(value - closed)}


def longtime_approach(profile: TemperatureProfile, c: float, t_grid,
                      lam: float, v: float = 1.0,
                      numerics: Numerics | None = None, cache=None) -> dict:
    """Defects |ln Psi^pm / t - Xi^pm| along a time grid (reported, not asserted)."""
    rates = ldf(profile.beta_left, profile.beta_right, c, lam)
    rows = []
    for t in np.atleast_1d(np.asarray(t_grid, dtype=float)):
        val = psi_infinite(profile, c, t, lam=lam, v=v, numerics=numerics,
                           cache=cache)
        rows.append({
            "t": float(t),
            "lnpsi_plus_over_t": val.ln_psi_plus / t,
            "lnpsi_minus_over_t": val.ln_psi_minus / t,
            "defect_plus": abs(val.ln_psi_plus / t - rates["plus"]),
            "defect_minus": abs(val.ln_psi_minus / t - rates["minus"]),
        })
    return {"lam": lam, "rates": rates, "rows": rows}

