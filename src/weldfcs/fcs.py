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

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import profile as profile_mod
from .analysis import counterterm_finite, counterterm_mover
from .characters import Theory, log_character
from .cylinder_weld import CylinderWeldProblem, solve_cylinder
from .errors import DeltaBetaZero, PoleHit
from .profile import (InfiniteVolume, TemperatureProfile, VolumeContext,
                      XiField, build_h, build_xi, flow_family)
from .spectral import LineGrid, PeriodicGrid, bose_weight
from .torus_weld import TorusWeldProblem, solve_Y1

__all__ = [
    "Numerics",
    "FcsResult",
    "psi_infinite",
    "psi_finite",
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

    # torus (finite volume)
    n_modes: int = 256
    fine_factor: int = 4
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
    # alarm
    cond_limit: float = 1e14

    def key(self) -> tuple:
        return ("numerics", self.n_modes, self.fine_factor, self.tail_tol,
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
    m = 1 << int(math.ceil(math.log2(span / dx)))
    x0 = 0.5 * (wlo + whi) - 0.5 * span
    return LineGrid(x0=x0, span=span, M=m)


def _gl_nodes(s_end: float, n_nodes: int, n_panels: int):
    """Gauss-Legendre nodes/weights for int_0^{s_end} ds, panelized."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(0.0, s_end, n_panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * gl_x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * gl_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _line_flow_family(xi_field: XiField, s_values, grid: LineGrid):
    """Shifted line flows g_s paired with their inverses at several flow times.

    Calls ``flow_family`` through its module, so a traced run counts one
    flows call per family.
    """
    return list(zip(profile_mod.flow_family(xi_field, s_values, grid),
                    profile_mod.flow_family(xi_field, s_values, grid,
                                            inverse=True)))


def _mover_action_nodes(profile: TemperatureProfile, t: float, v: float,
                        mover: str, s_nodes, numerics: Numerics,
                        cache=None) -> np.ndarray:
    """Welding action integrand ``int xi (SX - 2 pi^2/gamma^2 X'^2) dx``
    at each flow-time node (c-independent)."""
    xi_field = build_xi(profile, InfiniteVolume(v), t, mover)
    gamma = xi_field.gamma
    s_nodes = np.asarray(s_nodes, dtype=float)
    vals = np.empty(len(s_nodes), dtype=complex)
    pending = []
    if cache is not None:
        for i, s in enumerate(s_nodes):
            key = ("cyl_action", profile.key(), v, t, mover, float(s),
                   numerics.key())
            hit = cache.get_scalar(key)
            if hit is None:
                pending.append(i)
            else:
                vals[i] = hit
    else:
        pending = list(range(len(s_nodes)))
    if pending:
        s_extent = float(np.max(np.abs(s_nodes[pending]), initial=0.0))
        grid = cylinder_grid(xi_field, s_extent, numerics)
        diffeos = _line_flow_family(xi_field, s_nodes[pending], grid)
        xiv = xi_field(grid.x)
        p_max = numerics.p_max_gamma / gamma
        for (i, (g, ginv)) in zip(pending, diffeos):
            prob = CylinderWeldProblem(g, gamma, p_max, g_inverse=ginv)
            sol = solve_cylinder(prob)
            dens = xiv * (sol.schwarzian
                          - (2.0 * np.pi ** 2 / gamma ** 2) * sol.xprime ** 2)
            vals[i] = grid.integral(dens)
            if cache is not None:
                key = ("cyl_action", profile.key(), v, t, mover, float(s_nodes[i]),
                       numerics.key())
                cache.put_scalar(key, complex(vals[i]))
    return vals


def _cached(cache, key: tuple, compute):
    """``compute()``, stored in and served from ``cache`` when there is one."""
    if cache is None:
        return compute()
    value = cache.get_scalar(key)
    if value is None:
        value = compute()
        cache.put_scalar(key, value)
    return value


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
    L = ctx.L
    tau0 = 1j * ctx.gammaL / L
    if s_end == 0.0:
        return PsiValue(lam, 0.0, 0.0 + 0.0j)

    xi_field = build_xi(profile, ctx, t)
    gammaL = ctx.gammaL
    grid = PeriodicGrid(L, numerics.fine_factor * numerics.n_modes,
                        x0=-0.75 * L)
    nodes, weights = _gl_nodes(s_end, numerics.s_nodes, numerics.s_panels)

    # per-node records keyed by (profile, box, t, s, N); the flow-time
    # quadrature then reduces cached scalars
    node_vals = [None] * len(nodes)
    pending = []
    for i, s_j in enumerate(nodes):
        if cache is not None:
            key = ("torus_node", profile.key(), ctx.key(), t, float(s_j),
                   numerics.key())
            hit = cache.get_scalar(key)
            if hit is not None:
                node_vals[i] = hit
                continue
        pending.append(i)
    if pending:
        xiv = xi_field(grid.x)
        diffeos = flow_family(xi_field, nodes[pending], grid)
        for i, f_j in zip(pending, diffeos):
            s_j = nodes[i]
            tau_j = tau0 - gammaL * s_j / L
            prob = TorusWeldProblem(f_j, tau_j, numerics.n_modes,
                                    fine=grid.M, tail_tol=numerics.tail_tol)
            sol = solve_Y1(prob, cond_limit=numerics.cond_limit)
            rec = (complex(grid.integral(xiv * sol.schwarzian)),
                   complex(grid.integral(xiv * sol.xprime ** 2) / L ** 2))
            node_vals[i] = rec
            if cache is not None:
                key = ("torus_node", profile.key(), ctx.key(), t,
                       float(s_j), numerics.key())
                cache.put_scalar(key, rec)
    action = sum(w * rec[0] for w, rec in zip(weights, node_vals))
    tau_hat = tau0 + sum(w * rec[1] for w, rec in zip(weights, node_vals))

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
        # int xi dy by the substitution y = h(x); both movers give the same value
        def igr(x):
            xa = np.array([x])
            b = profile.beta(xa)[0]
            bt = profile.beta(xa + sign * v * t)[0]
            return (bt / b - 1.0) * beta0 / b
        span_lo = min(lo, lo - sign * v * t)
        span_hi = max(hi, hi - sign * v * t)
        xi_int = gamma * quad(igr, span_lo, span_hi, epsabs=1e-14,
                              epsrel=1e-13, limit=400)[0]
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

    def fre(y):
        z = y + 1j * eta
        return (np.exp(-1j * p * z) / np.sinh(np.pi * z / gamma) ** 4).real

    def fim(y):
        z = y + 1j * eta
        return (np.exp(-1j * p * z) / np.sinh(np.pi * z / gamma) ** 4).imag

    re = quad(fre, -span, span, epsabs=1e-13, epsrel=1e-12, limit=800)[0]
    im = quad(fim, -span, span, epsabs=1e-13, epsrel=1e-12, limit=800)[0]
    value = re + 1j * im
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
    re = quad(lambda w: integrand(w).real, -span, span, epsabs=1e-13,
              epsrel=1e-12, limit=800)[0]
    im = quad(lambda w: integrand(w).imag, -span, span, epsabs=1e-13,
              epsrel=1e-12, limit=800)[0]
    return (re + 1j * im) / (2.0 * np.pi)


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
    re = quad(lambda q: integrand(q).real, -span, span, epsabs=1e-13,
              epsrel=1e-12, limit=800)[0]
    im = quad(lambda q: integrand(q).imag, -span, span, epsabs=1e-13,
              epsrel=1e-12, limit=800)[0]
    value = (np.pi * c / 12.0) * (re + 1j * im)
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
