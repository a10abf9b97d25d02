"""Temperature profiles, reparameterizing maps, vector fields and their flows.

A profile is a smooth inverse-temperature kink: constant ``beta_left`` to the
left of ``[center - half_width, center + half_width]``, constant
``beta_right`` to the right, and a C-infinity monotone transition inside.
Everything downstream (welding data, counting statistics) is generated from
it: the reparameterizing map ``h`` with ``h' = beta0 / beta``, the transport
fields ``xi`` for right (+) and left (-) movers, and the diffeomorphism
flows those fields generate on the circle (finite volume) or line (infinite
volume).

The kink enters through two cumulative-Simpson tables on 2^14 + 1 points:
the smoothstep and, from it, int 1/beta over the kink interval, whose total
fixes beta_{0,L}.  Between their knots each is read through a quintic
Hermite interpolant, whose first and second derivatives at the knots come
from the closed-form bump, so it needs no global solve and is exact at the
knots.  An interpolant is built only when a point off the tables needs it,
so a run that reads every welding node from the cache computes the two
tables and nothing else.  Everything here is numpy alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BoxTooSmall
from .spectral import LineGrid, PeriodicGrid, schwarzian_from_derivatives

__all__ = [
    "TemperatureProfile",
    "ProfileValueError",
    "VolumeContext",
    "InfiniteVolume",
    "ReparamMap",
    "XiField",
    "Diffeo",
    "periodize_profile",
    "build_h",
    "build_xi",
    "flow_family",
]

_SMOOTHSTEP_POINTS = 2 ** 14  # resolution of the cumulative-integral tables
# past this sharpness the bump's peak e^{-sharpness} is below the smallest
# normal double, so the bump underflows and the smoothstep has no norm
_SHARPNESS_MAX = -math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max)
_LOG_TINY = math.log(sys.float_info.min * sys.float_info.epsilon)  # 5e-324


def _cumsimps(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative composite Simpson on a uniform grid of at least 3 points,
    anchored at 0.

    Interval k takes the quadratic through its own points and the next one
    (h1, from the left) when k is even and through the previous one (h2,
    from the right) when k is odd; the last interval always takes h2
    (K. V. Cartwright, J. Math. Sci. Math. Educ. 12 (2), 1-9).  Term for
    term this is ``scipy.integrate.cumulative_simpson`` at equal spacing.
    """
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    h1 = dx / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)
    h2 = dx / 3 * (5 * f3 / 4 + 2 * f2 - f1 / 4)
    pieces = np.empty(len(y))
    pieces[0] = 0.0
    pieces[1:-1:2] = h1[::2]
    pieces[2::2] = h2[::2]
    pieces[-1] = h2[-1]
    return np.cumsum(pieces)


class _QuinticHermite:
    """Piecewise quintic Hermite interpolant of values f and first and
    second derivatives d1, d2 at the knots ``start + k * step`` (the last
    one ``stop``) of a uniform grid, laid out as ``np.linspace`` lays them.

    A point x is expanded about its nearest knot x_k: with H = x_m - x_k
    for the neighbour m on x's side and s = (x - x_k) / H in [0, 1/2],
    the interpolant on [x_k, x_m] is
    ``f_k + s H f'_k + s^2 H^2 f''_k / 2 + a s^3 + b s^4 + c s^5``, whose
    last three coefficients match f, f' and f'' at x_m.  At a knot s = 0,
    so the knot's value comes back exactly.
    """

    def __init__(self, start: float, stop: float, f: np.ndarray,
                 d1: np.ndarray, d2: np.ndarray):
        self.n = len(f) - 1
        self.start, self.stop = start, stop
        self.step = (stop - start) / self.n
        self.f, self.d1, self.d2 = f, d1, d2

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.n
        k = np.clip(np.rint((x - self.start) / self.step), 0, n).astype(int)
        dx = x - np.where(k == n, self.stop, k * self.step + self.start)
        m = np.where(((dx >= 0) & (k < n)) | (k == 0), k + 1, k - 1)
        H = (m - k) * self.step
        s = dx / H
        g0, g1 = H * self.d1[k], H * self.d1[m]
        c0, c1 = H * H * self.d2[k], H * H * self.d2[m]
        r0 = self.f[m] - self.f[k] - g0 - 0.5 * c0
        r1 = g1 - g0 - c0
        r2 = c1 - c0
        a = 10.0 * r0 - 4.0 * r1 + 0.5 * r2
        b = -15.0 * r0 + 7.0 * r1 - r2
        c = 6.0 * r0 - 3.0 * r1 + 0.5 * r2
        return self.f[k] + s * (g0 + s * (0.5 * c0 + s * (a + s * (b + s * c))))


class ProfileValueError(ValueError):
    """A ``TemperatureProfile`` field out of its domain, named by ``key``."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(message)


@dataclass(frozen=True)
class TemperatureProfile:
    """Smooth inverse-temperature kink with exactly constant asymptotes."""

    beta_left: float
    beta_right: float
    center: float = 0.0
    half_width: float = 1.0
    shape: str = "bump"
    sharpness: float = 4.0

    def __post_init__(self):
        if self.beta_left <= 0 or self.beta_right <= 0:
            raise ValueError("inverse temperatures must be positive")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.shape != "bump":
            raise ProfileValueError("shape",
                                    f"unknown profile shape '{self.shape}'")
        if not 0 < self.sharpness <= _SHARPNESS_MAX:
            raise ProfileValueError("sharpness", (
                f"sharpness must lie in (0, {_SHARPNESS_MAX:.4f}], where the "
                f"bump's peak e^-sharpness is a normal double; got "
                f"{self.sharpness!r}"))
        # near that bound the bump's norm is subnormal, and the scale
        # delta_beta / (half_width^k norm) of beta' and beta'' can overflow,
        # which would make them NaN.  The norm is at least
        # 2 e^-(s + 1) / sqrt(s + 1), the bump's least value on
        # |u| < 1 / sqrt(s + 1) times that length, so the bump's table is
        # built here, to check the scale itself, only where that floor
        # leaves the scale within e^8 of the double range
        s, db = self.sharpness, abs(self.delta_beta)
        floor = [k * math.log(self.half_width) + math.log(2.0) - (s + 1.0)
                 - 0.5 * math.log1p(s) for k in (1, 2)]
        if any(f < _LOG_TINY + 8.0 or db and math.log(db) - f > _LOG_MAX - 8.0
               for f in floor):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                scales = [self._deriv_scale(k) for k in (1, 2)]
            if not np.all(np.isfinite(scales)):
                # the sharpness is at fault where 1 / norm overflows alone
                norm = self._step_table[1]
                key = ("sharpness" if norm * sys.float_info.max < 1.0
                       else "half_width")
                raise ProfileValueError(key, (
                    f"delta_beta / (half_width^k norm), the scale of beta' "
                    f"and beta'', overflows at delta_beta {self.delta_beta!r},"
                    f" half_width {self.half_width!r} and sharpness {s!r}, "
                    f"where the bump's norm is {norm:.3g}"))

    # -- smoothstep machinery ------------------------------------------------
    def _bump(self, u: np.ndarray, order: int = 0) -> np.ndarray:
        """The bump b (order 0) or b' (order 1) at u, zero off (-1, 1)."""
        out = np.zeros_like(u, dtype=float)
        m = np.abs(u) < 1.0
        um = u[m]
        out[m] = np.exp(-self.sharpness / (1.0 - um * um))
        if order == 1:
            out[m] *= -self.sharpness * 2.0 * um / (1.0 - um * um) ** 2
        return out

    @staticmethod
    def _knots() -> np.ndarray:
        """The smoothstep table's knots u_k over [-1, 1], made on demand."""
        return np.linspace(-1.0, 1.0, _SMOOTHSTEP_POINTS + 1)

    @cached_property
    def _step_table(self):
        """The smoothstep S_k = cum_k / norm on the uniform grid of
        ``_SMOOTHSTEP_POINTS + 1`` knots over [-1, 1], cum the cumulative
        Simpson integral of the bump, and norm."""
        u = self._knots()
        cum = _cumsimps(self._bump(u), u[1] - u[0])
        return cum / cum[-1], cum[-1]

    @cached_property
    def _step(self):
        """The quintic Hermite interpolant of the smoothstep table, with
        S' = b / norm and S'' = b' / norm at the knots, built on first use,
        and the bump's norm."""
        steps, norm = self._step_table
        u = self._knots()
        return _QuinticHermite(-1.0, 1.0, steps, self._bump(u) / norm,
                               self._bump(u, 1) / norm), norm

    # -- evaluation ------------------------------------------------------------
    def beta(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.half_width
        step, _ = self._step
        # the interpolant only where it is needed: constant outside the kink
        s = np.where(u >= 1.0, 1.0, 0.0)
        m = np.abs(u) < 1.0
        s[m] = step(u[m])
        return self.beta_left + (self.beta_right - self.beta_left) * s

    def beta_deriv(self, x, order: int = 1) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.half_width
        if order not in (1, 2):
            raise ValueError("beta_deriv supports order 1 and 2")
        out = np.zeros_like(u)
        m = np.abs(u) < 1.0
        out[m] = self._deriv_scale(order) * self._bump(u[m], order - 1)
        return out

    def _deriv_scale(self, order: int):
        """delta_beta / (half_width^order norm), which scales the bump (order
        1) or its derivative (order 2) into beta's derivative."""
        norm = self._step_table[1]
        db = self.beta_right - self.beta_left
        return db / (self.half_width ** order * norm)

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.half_width, self.center + self.half_width)

    @property
    def delta_beta(self) -> float:
        return self.beta_right - self.beta_left

    @property
    def beta0(self) -> float:
        """Harmonic-mean inverse temperature of the two asymptotes."""
        return 2.0 / (1.0 / self.beta_left + 1.0 / self.beta_right)

    @cached_property
    def inv_beta_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Points x_k of the kink interval and int_{lo}^{x_k} 1/beta, by
        cumulative Simpson over beta_k = beta_left + delta_beta S_k, the
        smoothstep table on the same grid; no interpolant is built."""
        lo, hi = self.support
        xk = np.linspace(lo, hi, _SMOOTHSTEP_POINTS + 1)
        beta = self.beta_left + self.delta_beta * self._step_table[0]
        return xk, _cumsimps(1.0 / beta, xk[1] - xk[0])

    @cached_property
    def inv_beta_integral(self):
        """The quintic Hermite interpolant of x -> int_{lo}^{x} 1/beta
        through ``inv_beta_table``, built on first use, and its total over
        the kink interval.  Its derivatives at the knots are 1/beta_k and
        -beta'_k / beta_k^2, with beta'_k = delta_beta S'_k / half_width."""
        xk, cum = self.inv_beta_table
        steps, norm = self._step_table
        beta = self.beta_left + self.delta_beta * steps
        slope = self.delta_beta * (self._bump(self._knots()) / norm) \
            / self.half_width
        return (_QuinticHermite(xk[0], xk[-1], cum, 1.0 / beta,
                                -slope / beta ** 2), float(cum[-1]))

    def key(self) -> tuple:
        """Canonical tuple identifying this profile (cache keys)."""
        return ("profile", *(getattr(self, f.name) for f in fields(self)))


@dataclass(frozen=True)
class VolumeContext:
    """Finite box of scale L; the profile lives on [-L/4, L/4]."""

    profile: TemperatureProfile
    L: float
    v: float = 1.0

    def __post_init__(self):
        lo, hi = self.profile.support
        if self.L / 4.0 < max(abs(lo), abs(hi)):
            raise BoxTooSmall(
                f"kink support [{lo}, {hi}] exceeds [-L/4, L/4] with L={self.L}")

    @cached_property
    def beta0L(self) -> float:
        p = self.profile
        lo, hi = p.support
        kink = float(p.inv_beta_table[1][-1])
        total = ((lo + self.L / 4.0) / p.beta_left + kink
                 + (self.L / 4.0 - hi) / p.beta_right)
        return self.L / (2.0 * total)

    @property
    def gammaL(self) -> float:
        return self.v * self.beta0L

    def key(self) -> tuple:
        return self.profile.key() + ("L", self.L, "v", self.v)


@dataclass(frozen=True)
class InfiniteVolume:
    """Thermodynamic-limit marker; only the velocity survives."""

    v: float = 1.0


def _fold(x: np.ndarray, L: float):
    """Write x = k L + xf with xf in [-3L/4, L/4) and reflect [-3L/4, -L/4)
    onto [-L/4, L/4] by xf -> -xf - L/2: the point where the L-periodic
    extension takes the profile's value, the mask of the reflected points,
    and k."""
    k = np.floor((x + 0.75 * L) / L)
    xf = x - k * L
    reflected = xf < -0.25 * L
    return np.where(reflected, -xf - 0.5 * L, xf), reflected, k


def periodize_profile(profile: TemperatureProfile, ctx: VolumeContext) -> Callable:
    """L-periodic extension: beta on [-L/4, L/4], reflected on [-3L/4, -L/4]."""
    if ctx.profile is not profile and ctx.profile != profile:
        raise ValueError("context was built for a different profile")

    def beta_L(x):
        return profile.beta(_fold(np.asarray(x, dtype=float), ctx.L)[0])

    return beta_L


@dataclass(frozen=True)
class ReparamMap:
    """Monotone map with derivative beta0 / beta (finite or infinite volume).

    Finite volume: lifted circle diffeomorphism with h(x + L) = h(x) + L.
    Infinite volume: h(0) = 0, linear outside the kink.
    """

    profile: TemperatureProfile
    ctx: VolumeContext | None = None

    @property
    def beta0(self) -> float:
        return self.ctx.beta0L if self.ctx is not None else self.profile.beta0

    def _beta(self, x):
        if self.ctx is None:
            return self.profile.beta(x)
        return periodize_profile(self.profile, self.ctx)(x)

    def _raw(self, x, left: float) -> np.ndarray:
        """int_{left}^{x} 1/beta of the unperiodized profile, for a ``left``
        at or below the kink: its low edge in infinite volume, -L/4 in
        finite volume."""
        p = self.profile
        (lo, hi), kink_total = p.support, float(p.inv_beta_table[1][-1])
        x = np.asarray(x, dtype=float)
        below = (lo - left) / p.beta_left
        out = np.where(x <= lo, (x - left) / p.beta_left,
                       below + kink_total + (x - hi) / p.beta_right)
        # the interpolant only inside the kink, as in TemperatureProfile.beta,
        # and built only when a point lies there
        m = (x > lo) & (x < hi)
        if np.any(m):
            out[m] = below + p.inv_beta_integral[0](x[m])
        return out

    @cached_property
    def _anchor(self) -> np.ndarray:
        return self._raw(0.0, self.profile.support[0])

    @cached_property
    def kink_image(self) -> tuple[float, float]:
        """(h(lo), h(hi)) for the kink interval [lo, hi], which in finite
        volume lies on the principal branch."""
        lo, hi = self.profile.support
        return (self.__call__(np.array(lo)).item(),
                self.__call__(np.array(hi)).item())

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.ctx is None:
            # h(x) = int_0^x beta0/beta ; anchor so h(0) = 0
            return self.beta0 * (self._raw(x, self.profile.support[0])
                                 - self._anchor)
        L = self.ctx.L
        xf, reflected, k = _fold(x, L)
        # int_{-L/4}^{x} 1/beta_L on the principal branch, where [-3L/4,
        # -L/4) is the reflection of [-L/4, L/4]
        ivals = self._raw(xf, -0.25 * L)
        ivals = np.where(reflected, -ivals, ivals)
        return self.beta0 * ivals - 0.25 * L + k * L

    def _beta_derivs(self, x):
        """beta, beta' and beta'' of the (periodized) profile at x."""
        p = self.profile
        if self.ctx is None:
            return p.beta(x), p.beta_deriv(x, 1), p.beta_deriv(x, 2)
        arg, reflected, _ = _fold(x, self.ctx.L)
        sgn = np.where(reflected, -1.0, 1.0)
        return p.beta(arg), sgn * p.beta_deriv(arg, 1), p.beta_deriv(arg, 2)

    def deriv(self, x) -> np.ndarray:
        """h' = beta0 / beta, analytic."""
        return self.beta0 / self._beta(np.asarray(x, dtype=float))

    def schwarzian(self, x) -> np.ndarray:
        """S h = (beta'/beta)^2 / 2 - beta''/beta, supported on the kink."""
        b, b1, b2 = self._beta_derivs(np.asarray(x, dtype=float))
        return 0.5 * (b1 / b) ** 2 - b2 / b

    def inverse(self, y) -> np.ndarray:
        """h^{-1}, Newton-polished only on the kink image [h(lo), h(hi)]:
        off it h is linear, and h^{-1} is its closed form.  Each point's
        value depends on that point alone, so the inverse of a concatenation
        is the concatenation of the inverses, bit for bit.

        Finite volume first folds y onto the principal branch [-L/4, L/4],
        which h maps onto itself and which the reflection x -> -x - L/2,
        under which h is equivariant, brings [-3L/4, -L/4) onto.
        """
        y = np.asarray(y, dtype=float)
        if self.ctx is None:
            return self._principal_inverse(y)
        L = self.ctx.L
        yf, reflected, k = _fold(y, L)
        x = self._principal_inverse(yf)
        return np.where(reflected, -x - 0.5 * L, x) + k * L

    def _principal_inverse(self, y: np.ndarray) -> np.ndarray:
        p = self.profile
        b0 = self.beta0
        (lo, hi), (A, B) = p.support, self.kink_image
        x = np.where(y < A, lo + (y - A) * p.beta_left / b0,
                     hi + (y - B) * p.beta_right / b0)
        inside = (y >= A) & (y <= B)
        if np.any(inside):
            # h(x) - h(lo) = b0 int_lo^x 1/beta: the tabulated integral,
            # interpolated linearly, starts Newton about 1e-9 off the root
            xk, cum = p.inv_beta_table
            x[inside] = self._newton(np.interp((y[inside] - A) / b0, cum, xk),
                                     y[inside])
        return x

    def _newton(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Newton sweeps on h(x) = y; a point is frozen after the sweep in
        which its residual falls below 1e-13."""
        b0 = self.beta0
        active = np.arange(len(x))
        for _ in range(60):
            xa = x[active]
            r = self.__call__(xa) - y[active]
            x[active] = xa - r * self._beta(xa) / b0
            active = active[np.abs(r) >= 1e-13]
            if not len(active):
                break
        return x


def build_h(profile: TemperatureProfile, ctx: VolumeContext | None = None) -> ReparamMap:
    """Reparameterizing map h (ctx=None) or its finite-volume lift h_L."""
    return ReparamMap(profile, ctx)


@dataclass(frozen=True)
class XiField:
    """Transport field xi (zeta - gamma) for one mover, finite or infinite volume.

    Finite volume (ctx is a VolumeContext): L-periodic field on the circle,
    mover sign ignored (both movers live on the doubled circle).
    Infinite volume: compactly supported field on the line.
    """

    profile: TemperatureProfile
    ctx: VolumeContext | InfiniteVolume
    t: float
    mover: str = "+"

    def __post_init__(self):
        if self.mover not in ("+", "-"):
            raise ValueError("mover must be '+' or '-'")

    @property
    def finite(self) -> bool:
        return isinstance(self.ctx, VolumeContext)

    @property
    def gamma(self) -> float:
        if self.finite:
            return self.ctx.gammaL
        return self.ctx.v * self.profile.beta0

    @property
    def v(self) -> float:
        return self.ctx.v

    @property
    def L(self) -> float:
        return self.ctx.L

    @property
    def sigma(self) -> float:
        """-1 for the minus mover in infinite volume, which is the plus mover
        reflected (y -> -y, t -> -t); 1 otherwise (in finite volume both
        movers live on the doubled circle)."""
        return -1.0 if not self.finite and self.mover == "-" else 1.0

    @cached_property
    def _hmap(self) -> ReparamMap:
        return build_h(self.profile, self.ctx if self.finite else None)

    def zeta(self, y) -> np.ndarray:
        return self.__call__(y) + self.gamma

    def __call__(self, y) -> np.ndarray:
        h = self._hmap
        x = h.inverse(self.sigma * np.asarray(y, dtype=float))
        return self.gamma * (h._beta(x + self.sigma * self.v * self.t)
                             / h._beta(x) - 1.0)

    @property
    def support(self) -> tuple[float, float]:
        """Exact support interval (infinite volume only)."""
        if self.finite:
            raise ValueError("support is an infinite-volume notion here")
        h = self._hmap
        lo, hi = self.profile.support
        vt = self.sigma * self.v * self.t
        a = h(np.array(lo - max(vt, 0.0))).item()
        b = h(np.array(hi - min(vt, 0.0))).item()
        return (a, b) if self.sigma > 0 else (-b, -a)


def build_xi(profile: TemperatureProfile, ctx, t: float, mover: str = "+") -> XiField:
    """Transport field xi_t for the requested mover; ctx may be finite or infinite."""
    return XiField(profile, ctx, t, mover)


@dataclass(frozen=True, eq=False)
class Diffeo:
    """Diffeomorphism sampled on a grid: on a ``PeriodicGrid`` a lifted circle
    map (f(x + L) = f(x) + L), on a ``LineGrid`` a line map equal to the
    identity outside a bounded interval."""

    grid: PeriodicGrid | LineGrid
    samples: np.ndarray           # f(x_j)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def displacement(self) -> np.ndarray:
        return self.samples - self.grid.x

    def moved(self, c: float = 0.0) -> np.ndarray:
        """The displacement less ``c``, exactly zero wherever its magnitude
        is at most 1e-13: the points a map moves by more than round-off,
        which are the only ones its substitution kernel sums over."""
        d = self.displacement() - c
        d[np.abs(d) <= 1e-13] = 0.0
        return d

    @cached_property
    def support(self) -> tuple[float, float]:
        """Outermost grid points ``moved`` leaves nonzero; (0, 0) if none."""
        moved = np.nonzero(self.moved())[0]
        if not len(moved):
            return (0.0, 0.0)
        return (float(self.grid.x[moved[0]]), float(self.grid.x[moved[-1]]))

    def deriv_samples(self, order: int = 1) -> np.ndarray:
        key = ("deriv", order)
        if key not in self._cache:
            d = self.grid.derivative(self.displacement(), order).real
            if order == 1:
                d = d + 1.0
            self._cache[key] = d
        return self._cache[key]

    @cached_property
    def schwarzian(self) -> np.ndarray:
        """S f on the grid, from the spectral derivatives
        (``deriv_samples``)."""
        return schwarzian_from_derivatives(
            *(self.deriv_samples(order) for order in (1, 2, 3)))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x + self.grid.interpolate(self.displacement(), x).real

    def inverse(self) -> "Diffeo":
        """The inverse map on the same grid, by 12 Newton steps on the
        interpolants of the map and its derivative."""
        y = self.grid.x - self.displacement()
        for _ in range(12):
            y = y - (self(y) - self.grid.x) / self.grid.interpolate(
                self.deriv_samples(1), y).real
        return Diffeo(self.grid, y)


def flow_family(xi_field: XiField, s_values, grid) -> list:
    """Flows of the transport field at several flow times on one grid, each
    paired with its inverse: ``[(map, inverse), ...]``.

    With ``phi = h o (shift by v t) o h^{-1}``, ``phi' = gamma / zeta``, so
    the flow of ``-zeta`` is a translation: ``f_s = phi^{-1}(phi - gamma s)``;
    the minus mover is the plus one reflected (``XiField.sigma``).  Finite
    volume: the Diffeos ``f_s`` and ``f_{-s}``, its inverse.  Infinite
    volume: ``g_s = f_s + gamma s`` and ``g_s^{-1}(y) = f_{-s}(y - gamma s)``,
    both exactly the identity off the swept interval
    ``(a + min(0, gamma s), b + max(0, gamma s))``, (a, b) the support of
    xi.  Zero time copies the lattice.  A family takes two h^{-1} calls: one
    for phi over the lattice and, on the line, the inverses' start points,
    and one for phi^{-1} over every moved point of every map and inverse.
    """
    s = np.asarray(s_values, dtype=float)
    if not len(s):
        return []
    gamma, h, x = xi_field.gamma, xi_field._hmap, grid.x
    sigma = xi_field.sigma
    vt = sigma * xi_field.v * xi_field.t
    phi = lambda y: h(h.inverse(sigma * y) + vt)
    phi_inv = lambda w: sigma * h(h.inverse(w) - vt)
    shape = (len(s), len(x))
    gs = np.broadcast_to((gamma * s)[:, None], shape)
    moved = np.broadcast_to((s != 0)[:, None], shape)
    if xi_field.finite:
        # the inverse is the flow at -s, so both start from phi on the lattice
        shift = gs[moved]
        phi_x = start = np.broadcast_to(phi(x), shape)[moved]
    else:
        a, b = xi_field.support
        moved = (moved & (x > a + np.minimum(gs, 0.0))
                 & (x < b + np.maximum(gs, 0.0)))
        shift = gs[moved]
        phi_all = phi(np.concatenate([x, np.broadcast_to(x, shape)[moved]
                                      - shift]))
        phi_x = np.broadcast_to(phi_all[:len(x)], shape)[moved]
        start = phi_all[len(x):]
    fwd, inv = np.split(phi_inv(np.concatenate([phi_x - sigma * shift,
                                                start + sigma * shift])), 2)
    if not xi_field.finite:
        fwd += shift
    samples = np.tile(x, (2, len(s), 1))
    samples[0][moved], samples[1][moved] = fwd, inv
    return [(Diffeo(grid, f), Diffeo(grid, g)) for f, g in zip(*samples)]
