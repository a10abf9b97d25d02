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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import profile as profile_mod
from .characters import Theory, log_character
from .cylinder_weld import CylinderWeldProblem, solve_cylinder
from .errors import ConfigInvalid, DeltaBetaZero, NodeTooLarge, PoleHit
from .fredholm import _GMRES_CAP
# flow_family is not called here, but perfbench's tracer wraps this name
from .profile import (InfiniteVolume, TemperatureProfile, VolumeContext,
                      XiField, build_h, build_xi, flow_family,
                      periodize_profile)
from .spectral import LineGrid, PeriodicGrid, bose_weight
from .torus_weld import TorusWeldProblem, solve_Y1

__all__ = [
    "Numerics",
    "FcsResult",
    "psi_infinite",
    "psi_finite",
    "effective_tau",
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
        return ("numerics", self.n_modes, self.tail_tol,
                self.dx, self.window_pad_gamma, self.window_factor,
                self.p_max_gamma, self.s_nodes, self.s_panels)


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


# a welding node whose working set (see _cylinder_size and _torus_bytes)
# would take more bytes than this is refused before any of it is allocated
_NODE_BYTES_MAX = 2 ** 30


def _refuse_over_budget(nbytes: int, needs: str, advice: str):
    """Raise ``NodeTooLarge`` when a node ``needs`` more than the budget."""
    if nbytes > _NODE_BYTES_MAX:
        raise NodeTooLarge(
            f"{needs}, about {nbytes / 2 ** 30:.3g} GiB, over the "
            f"{_NODE_BYTES_MAX / 2 ** 30:.3g} GiB budget; {advice}")


def _cylinder_size(grid: LineGrid, p_max: float,
                   window_factor: float) -> tuple[int, int, int]:
    """Lattice size, Nystrom order n and complex bytes of the working set of
    a cylinder node on ``grid`` with momentum cutoff ``p_max``; allocates
    nothing.

    The order counts the half-offset momenta |p| <= p_max, as
    ``assemble_sigma`` selects them.  The working set is the two n x |U|
    kernel factors V_A and V_B, the GMRES basis of at most
    ``_GMRES_CAP + 1`` vectors of length n, one lattice array, and the FFT
    scratch of a two-column phase-factor product on the lattice.  Both
    displacements live in the padded window, 1 / ``window_factor`` of the
    lattice, so their union support U has at most M / window_factor + 1
    points.
    """
    order = min(2 * math.floor(p_max / grid.dp + 0.5), grid.M)
    supp = min(grid.M, math.floor(grid.M / window_factor) + 1)
    return grid.M, order, 16 * (2 * order * supp + (_GMRES_CAP + 1) * order
                                + 3 * grid.M)


def _torus_bytes(n: int, support: int) -> int:
    """Complex bytes of the working set of a torus node with n modes whose
    map and inverse move ``support`` grid points between them (the union
    support U): V_A over the modes 0..n + n // 2 and V_B over -n..n, both
    on U, the GMRES basis, the FFT scratch of one phase-factor product on
    the 4n-point lattice, and a band-edge tail slab of 2 w columns with its
    FFT scratch and modulus (README "Command line")."""
    b, w, m = n // 2, max(1, n // 16), 4 * n
    return 16 * ((n + b + 1 + 2 * n + 1) * support
                 + (_GMRES_CAP + 1) * 2 * n + m + 2 * w * (m + 2 * n + 1))


def _refuse_torus(n: int, support: int):
    """Refuse a torus node with n modes and union support of ``support``
    points if its working set is over the budget."""
    _refuse_over_budget(
        _torus_bytes(n, support),
        f"torus node with {n} modes and {support} moved grid points",
        "lower numerics.n_modes")


def _s_extent(s_values) -> float:
    """Largest |s| of a node set; it sizes the set's cylinder window."""
    return float(np.max(np.abs(s_values), initial=0.0))


def _gl_nodes(s_end: float, n_nodes: int, n_panels: int):
    """Gauss-Legendre nodes/weights for int_0^{s_end} ds, panelized."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(0.0, s_end, n_panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * gl_x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * gl_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _line_flow_family(xi_field: XiField, s_values, grid):
    """The flows at several flow times paired with their inverses, in either
    volume (``flow_family`` and its ``inverse``).  In finite volume the
    inverses are the flows at -s, so one call over (s, -s) serves both and
    takes phi on the grid once.

    Calls ``flow_family`` through its module, so a traced run counts one
    flows call per family.
    """
    if xi_field.finite:
        s = np.asarray(s_values, dtype=float)
        flows = profile_mod.flow_family(xi_field, np.concatenate([s, -s]),
                                        grid)
        return list(zip(flows[:len(s)], flows[len(s):]))
    return list(zip(profile_mod.flow_family(xi_field, s_values, grid),
                    profile_mod.flow_family(xi_field, s_values, grid,
                                            inverse=True)))


@dataclass(frozen=True, eq=False)
class WeldNodes:
    """Welding nodes of one transport field at the flow times ``s_values``.

    One grid serves the whole set and the flows are taken over the whole
    set, so a node's solution does not depend on which other nodes are
    solved with it (a partly warm cache gives the cold bits).
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

    def solutions(self, which=None):
        """Welding solutions at ``s_values[which]`` (all by default), in
        order, solved one at a time as they are asked for.  A torus set is
        refused when its largest node's factors, sized by the supports of
        the flows, would be over the budget."""
        s_values, num, xi = self.s_values, self.numerics, self.xi
        try:
            pairs = _line_flow_family(xi, s_values, self.grid)
            if xi.finite:
                tau0, n = 1j * xi.gamma / xi.L, num.n_modes
                problems = [TorusWeldProblem(f, tau0 - xi.gamma * s / xi.L, n,
                                             finv, num.tail_tol)
                            for (f, finv), s in zip(pairs, s_values)]
                _refuse_torus(n, max(
                    (np.count_nonzero(np.logical_or(*p.displacements))
                     for p in problems), default=0))
            else:
                problems = [CylinderWeldProblem(
                    g, xi.gamma, num.p_max_gamma / xi.gamma, ginv)
                    for g, ginv in pairs]
        except MemoryError as exc:
            raise self._out_of_memory(f"flows at t = {xi.t:.6g}") from exc
        solve = solve_Y1 if xi.finite else solve_cylinder
        for i in range(len(s_values)) if which is None else which:
            try:
                sol = solve(problems[i])
            except MemoryError as exc:
                raise self._out_of_memory(f"node at t = {xi.t:.6g}, "
                                          f"s = {s_values[i]:.6g}") from exc
            yield sol


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
    grid = cylinder_grid(xi_field, _s_extent(s_values), numerics)
    p_max = numerics.p_max_gamma / xi_field.gamma
    if p_max > np.pi / grid.dx:
        raise ConfigInvalid("numerics.p_max_gamma", f"cutoff {p_max:.6g} is "
                            f"over the Nyquist momentum {np.pi / grid.dx:.6g}")
    if p_max < 0.5 * grid.dp:
        raise ConfigInvalid("numerics.p_max_gamma", f"cutoff {p_max:.6g} is "
                            f"below the first solve momentum "
                            f"{0.5 * grid.dp:.6g}, so the Nystrom system "
                            f"would be empty")
    m, order, nbytes = _cylinder_size(grid, p_max, numerics.window_factor)
    _refuse_over_budget(nbytes, f"cylinder node needs a {m}-point lattice and "
                        f"a Nystrom system of order {order}",
                        "lower |lambda| or coarsen the cylinder numerics")
    return WeldNodes(xi_field, grid, s_values, numerics)


def _cached_many(cache, keys: list, compute_missing) -> list:
    """Values of ``keys``, served from ``cache`` when there is one.

    The misses are computed in one batch, ``compute_missing(indices)``
    yielding their values in order, and each is stored as it comes.
    """
    values = [None if cache is None else cache.get_scalar(k) for k in keys]
    missing = [i for i, value in enumerate(values) if value is None]
    if missing:
        for i, value in zip(missing, compute_missing(missing)):
            values[i] = value
            if cache is not None:
                cache.put_scalar(keys[i], value)
    return values


def _cached(cache, key: tuple, compute):
    """``compute()``, stored in and served from ``cache`` when there is one."""
    return _cached_many(cache, [key], lambda _: [compute()])[0]


def _mover_action_nodes(profile: TemperatureProfile, t: float, v: float,
                        mover: str, s_nodes, numerics: Numerics,
                        cache=None) -> np.ndarray:
    """Welding action integrand ``int xi (SX - 2 pi^2/gamma^2 X'^2) dx``
    at each flow-time node (c-independent).

    A node's value depends on its set's window, so the key holds the set's
    largest |s| as well as the node's s.
    """
    extent = _s_extent(s_nodes)
    keys = [("cyl_action", profile.key(), v, t, mover, float(s), extent,
             numerics.key()) for s in s_nodes]

    def solve(which):
        welds = cylinder_nodes(profile, v, t, mover, s_nodes, numerics)
        gamma, grid = welds.xi.gamma, welds.grid
        for sol in welds.solutions(which):
            dens = welds.xi_values * (
                sol.schwarzian
                - (2.0 * np.pi ** 2 / gamma ** 2) * sol.xprime ** 2)
            yield complex(grid.integral(dens))

    return np.array(_cached_many(cache, keys, solve), dtype=complex)


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
        nodes, weights = _gl_nodes(b - a, 32, 8)
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
    quad_error: float | None = None
    meta: dict = field(default_factory=dict)


def psi_infinite(profile: TemperatureProfile, c: float, t: float,
                 lam: float | None = None, v: float = 1.0,
                 numerics: Numerics | None = None, cache=None,
                 by_s: float | None = None,
                 error_estimate: bool = False) -> PsiValue:
    """Thermodynamic-limit log generating function at one counting parameter.

    ``lam`` parameterizes by the counting variable (flow time
    ``s = lam / delta_beta``); the equal-temperature limit must use ``by_s``.
    The ``c``-dependence is an exact overall factor.
    """
    numerics = numerics or Numerics()
    s_end = _flow_time(profile, lam, by_s)
    if s_end == 0.0:
        return PsiValue(lam, 0.0, 0.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j, 0.0)

    parts = {}
    errs = []
    for mover in ("+", "-"):
        nodes, weights = _gl_nodes(s_end, numerics.s_nodes, numerics.s_panels)
        vals = _mover_action_nodes(profile, t, v, mover, nodes, numerics, cache)
        action = np.dot(weights, vals)
        if error_estimate:
            nodes2, weights2 = _gl_nodes(s_end, 2 * numerics.s_nodes,
                                         numerics.s_panels)
            vals2 = _mover_action_nodes(profile, t, v, mover, nodes2,
                                        numerics, cache)
            action2 = np.dot(weights2, vals2)
            errs.append(abs(action2 - action) * abs(c) / (24.0 * np.pi))
            action = action2
        # includes v/(24 pi); depends on t but not on lam
        ct = _cached(cache, ("ct_mover", profile.key(), t, v, 1.0, mover),
                     lambda: counterterm_mover(profile, t, v, 1.0, mover))
        parts[mover] = -1j * c / (24.0 * np.pi) * action \
            - 1j * c * s_end * ct
    total = parts["+"] + parts["-"]
    return PsiValue(lam, s_end, total, parts["+"], parts["-"],
                    float(max(errs)) if errs else None)


def effective_tau(profile: TemperatureProfile, ctx: VolumeContext, t: float,
                  s_end: float, numerics: Numerics, cache=None):
    """Welding action and effective modular parameter at flow time ``s_end``.

    Both are flow-time integrals over torus weldings at the drifted modular
    parameter, on the Gauss-Legendre panels of ``numerics``: the action
    ``int ds int xi SX dx`` and ``tau^ = tau_0 + int ds L^-2 int xi X'^2 dx``.
    Returns ``(action, tau_hat)``.
    """
    nodes, weights = _gl_nodes(s_end, numerics.s_nodes, numerics.s_panels)
    # per-node records keyed by (profile, box, t, s, N); the flow-time
    # quadrature then reduces cached scalars
    keys = [("torus_node", profile.key(), ctx.key(), t, float(s),
             numerics.key()) for s in nodes]

    def solve(which):
        welds = torus_nodes(profile, ctx, t, nodes, numerics)
        xiv, grid = welds.xi_values, welds.grid
        for sol in welds.solutions(which):
            yield (complex(grid.integral(xiv * sol.schwarzian)),
                   complex(grid.integral(xiv * sol.xprime ** 2) / ctx.L ** 2))

    recs = _cached_many(cache, keys, solve)
    action = sum(w * rec[0] for w, rec in zip(weights, recs))
    tau_hat = 1j * ctx.gammaL / ctx.L + sum(w * rec[1]
                                           for w, rec in zip(weights, recs))
    return action, tau_hat


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
    tau0 = 1j * ctx.gammaL / ctx.L
    if s_end == 0.0:
        return PsiValue(lam, 0.0, 0.0 + 0.0j)

    action, tau_hat = effective_tau(profile, ctx, t, s_end, numerics, cache)
    log_ratio = log_character(theory, tau_hat) - log_character(theory, tau0)
    # the counterterms at t and at 0 do not depend on lam
    ct_t, ct_0 = [_cached(cache, ("ct_finite", ctx.key(), tt, c),
                          lambda tt=tt: counterterm_finite(profile, ctx, tt, c))
                  for tt in (t, 0.0)]
    ln_psi = (-1j * c / (24.0 * np.pi) * action + log_ratio
              - 1j * s_end * (ct_t - ct_0))
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
        grid = LineGrid(x0=0.5 * (slo + shi) - span / 2, span=span, M=m)
        xihat = grid.ft(xi_field(grid.x))
        p = grid.p
        kern = (p ** 2 + 4.0 * np.pi ** 2 / gamma ** 2) * bose_weight(p, gamma)
        var += (c / (48.0 * np.pi ** 2 * dbeta ** 2)
                * np.sum(kern * np.abs(xihat) ** 2).real * grid.dp)
    return {"mean": mean, "variance": var, "delta_beta": dbeta, "gamma": gamma}


def appendix_b_check(gamma: float, p: float, shift_frac: float = 0.25) -> dict:
    """Fourier transform of the inverse fourth-power sinh kernel.

    Quadrature along a contour shifted into the upper half plane (the +i0
    prescription) against the closed form
    ``(gamma^4 / 3 pi^3) p (p^2 + 4 pi^2/gamma^2) / (1 - e^{-gamma p})``.
    """
    eta = shift_frac * gamma
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
    stationary point is bracketed and polished to machine accuracy.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    eps = 1e-12 * min(beta_left, beta_right)
    out_i = np.empty(len(sigma))
    out_nu = np.empty(len(sigma))
    for k, s in enumerate(sigma):
        fun = lambda nu: _ldf_real_deriv(beta_left, beta_right, c, nu) - s
        lo, hi = -beta_right + eps, beta_left - eps
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


# ----------------------------------------------------------------------
# result container
# ----------------------------------------------------------------------

@dataclass
class FcsResult:
    """Grid of counting-parameter evaluations with provenance metadata."""

    t_values: list
    lam_values: list
    entries: list            # list of dict rows
    metadata: dict

    schema_version = "weldfcs-fcs-1"

    def to_json_dict(self) -> dict:
        def enc(z):
            if isinstance(z, complex):
                return {"re": z.real, "im": z.imag}
            return z
        rows = [{k: enc(v) for k, v in row.items()} for row in self.entries]
        return {
            "schema": self.schema_version,
            "t_values": list(map(float, self.t_values)),
            "lambda_values": list(map(float, self.lam_values)),
            "rows": rows,
            "metadata": self.metadata,
        }

    def csv_rows(self):
        header = ["t", "lambda", "re_lnpsi", "im_lnpsi", "re_lnpsi_plus",
                  "im_lnpsi_plus", "re_lnpsi_minus", "im_lnpsi_minus"]
        yield header
        for row in self.entries:
            ln = row.get("ln_psi", 0j)
            lp = row.get("ln_psi_plus")
            lm = row.get("ln_psi_minus")
            yield [row["t"], row["lambda"],
                   ln.real, ln.imag,
                   "" if lp is None else lp.real,
                   "" if lp is None else lp.imag,
                   "" if lm is None else lm.real,
                   "" if lm is None else lm.imag]
