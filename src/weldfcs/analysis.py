"""Schwarzian calculus, action integrals, and the profile counterterms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import SupportClipped
from .profile import TemperatureProfile, VolumeContext, build_h, periodize_profile
from .spectral import (LineGrid, PeriodicGrid, fd_derivative,
                       require_resolved, schwarzian_from_derivatives)

__all__ = [
    "SampledField",
    "schwarzian",
    "action_integrand",
    "counterterm",
    "counterterm_finite",
]


@dataclass(frozen=True, eq=False)
class SampledField:
    """Values of a scalar field on a uniform periodic or line grid."""

    grid: PeriodicGrid | LineGrid
    values: np.ndarray

    def integral(self):
        return self.grid.integral(self.values)


def schwarzian(field: SampledField, tail_tol: float = 1e-8) -> SampledField:
    """Schwarzian derivative of a sampled map.

    Periodic grids: the displacement from the identity is differentiated
    spectrally (the input must be a lifted circle map), with a spectral-tail
    check guarding the three derivative orders.  Line grids: high-order
    finite differences with one-sided closure, so arbitrary smooth maps
    (not only compactly supported twists) are accepted.
    """
    grid = field.grid
    if isinstance(grid, PeriodicGrid):
        disp = field.values - grid.x
        require_resolved(np.real(disp) if np.isrealobj(disp) else disp,
                         tail_tol, what="schwarzian input")
        d1 = grid.derivative(disp, 1) + 1.0
        d2 = grid.derivative(disp, 2)
        d3 = grid.derivative(disp, 3)
    else:
        d1 = fd_derivative(field.values, grid.dx, 1)
        d2 = fd_derivative(field.values, grid.dx, 2)
        d3 = fd_derivative(field.values, grid.dx, 3)
    if np.isrealobj(field.values):
        d1, d2, d3 = d1.real, d2.real, d3.real
    return SampledField(grid, schwarzian_from_derivatives(d1, d2, d3))


def action_integrand(xi_values: np.ndarray, xprime: np.ndarray,
                     schwarz: np.ndarray, gamma: float,
                     grid: PeriodicGrid | LineGrid) -> complex:
    """Welding action density integrated against the transport field.

    Returns ``int xi * (SX - (2 pi^2 / gamma^2) X'^2) dx`` on the grid.
    On line windows the field must vanish at the window edges.
    """
    if isinstance(grid, LineGrid):
        edge = max(abs(xi_values[0]), abs(xi_values[-1]))
        peak = np.max(np.abs(xi_values))
        if peak > 0 and edge > 1e-10 * peak:
            raise SupportClipped(
                f"transport field reaches the window edge (|edge|={edge:.2e})")
    dens = xi_values * (schwarz - (2.0 * np.pi ** 2 / gamma ** 2) * xprime ** 2)
    return complex(grid.integral(dens))


def counterterm(profile: TemperatureProfile, t: float, v: float,
                c: float) -> float:
    """Infinite-volume counterterm of the counting-statistics phase.

    ``(c v / 24 pi) * int (beta(x + vt) + beta(x - vt) - 2 beta(x)) Sh(x) dx``;
    the Schwarzian of the reparameterizing map restricts the integrand to the
    kink interval.
    """
    h = build_h(profile)
    lo, hi = profile.support

    def integrand(x):
        xa = np.array([x])
        tot = (profile.beta(xa + v * t) + profile.beta(xa - v * t)
               - 2.0 * profile.beta(xa))
        return float(tot[0] * h.schwarzian(xa)[0])

    val = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
    return c * v / (24.0 * np.pi) * val


def counterterm_mover(profile: TemperatureProfile, t: float, v: float,
                      c: float, mover: str) -> float:
    """Single-mover piece: uses beta(x + vt) for '+' and beta(x - vt) for '-'."""
    sign = 1.0 if mover == "+" else -1.0
    h = build_h(profile)
    lo, hi = profile.support

    def integrand(x):
        xa = np.array([x])
        return float((profile.beta(xa + sign * v * t) - profile.beta(xa))[0]
                     * h.schwarzian(xa)[0])

    val = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
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

    def integrand(x):
        xa = np.array([x])
        return float(beta_L(xa + v * t)[0] * h.schwarzian(xa)[0])

    val = sum(quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
              for a, b in windows)
    return c * v / (24.0 * np.pi) * val
