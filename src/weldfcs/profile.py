"""Temperature profiles, reparameterizing maps, vector fields and their flows.

A profile is a smooth inverse-temperature kink: constant ``beta_left`` to the
left of ``[center - half_width, center + half_width]``, constant
``beta_right`` to the right, and a C-infinity monotone transition inside.
Everything downstream (welding data, counting statistics) is generated from
it: the reparameterizing map ``h`` with ``h' = beta0 / beta``, the transport
fields ``xi`` for right (+) and left (-) movers, and the diffeomorphism
flows those fields generate on the circle (finite volume) or line (infinite
volume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import make_interp_spline

from .errors import BoxTooSmall
from .spectral import LineGrid, PeriodicGrid

__all__ = [
    "TemperatureProfile",
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

_SMOOTHSTEP_POINTS = 2 ** 14  # resolution of the cumulative-integral splines


def _cumsimps(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative composite Simpson on a uniform grid, anchored at 0."""
    return np.concatenate(([0.0], cumulative_simpson(y, dx=dx)))


@dataclass(frozen=True)
class TemperatureProfile:
    """Smooth inverse-temperature kink with exactly constant asymptotes."""

    beta_left: float
    beta_right: float
    center: float = 0.0
    half_width: float = 1.0
    shape: str = "bump"
    sharpness: float = 4.0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.beta_left <= 0 or self.beta_right <= 0:
            raise ValueError("inverse temperatures must be positive")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.shape != "bump":
            raise ValueError(f"unknown profile shape '{self.shape}'")

    # -- smoothstep machinery ------------------------------------------------
    def _bump(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u, dtype=float)
        m = np.abs(u) < 1.0
        out[m] = np.exp(-self.sharpness / (1.0 - u[m] * u[m]))
        return out

    def _step(self):
        if "step" not in self._cache:
            n = _SMOOTHSTEP_POINTS + 1
            u = np.linspace(-1.0, 1.0, n)
            b = self._bump(u)
            cum = _cumsimps(b, u[1] - u[0])
            norm = cum[-1]
            self._cache["norm"] = norm
            self._cache["step"] = make_interp_spline(u, cum / norm, k=5)
        return self._cache["step"], self._cache["norm"]

    # -- evaluation ------------------------------------------------------------
    def beta(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.half_width
        step, _ = self._step()
        # the spline only where it is needed: constant outside the kink
        s = np.where(u >= 1.0, 1.0, 0.0)
        m = np.abs(u) < 1.0
        s[m] = step(u[m])
        return self.beta_left + (self.beta_right - self.beta_left) * s

    def beta_deriv(self, x, order: int = 1) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.half_width
        _, norm = self._step()
        db = self.beta_right - self.beta_left
        out = np.zeros_like(u)
        m = np.abs(u) < 1.0
        um = u[m]
        core = np.exp(-self.sharpness / (1.0 - um * um))
        if order == 1:
            out[m] = db / (self.half_width * norm) * core
        elif order == 2:
            d_core = core * (-self.sharpness * 2.0 * um / (1.0 - um * um) ** 2)
            out[m] = db / (self.half_width ** 2 * norm) * d_core
        else:
            raise ValueError("beta_deriv supports order 1 and 2")
        return out

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

    def inv_beta_integral(self):
        """Spline of x -> int_{a-delta}^{x} dx'/beta(x') on the kink interval."""
        if "invint" not in self._cache:
            n = _SMOOTHSTEP_POINTS + 1
            lo, hi = self.support
            xk = np.linspace(lo, hi, n)
            cum = _cumsimps(1.0 / self.beta(xk), xk[1] - xk[0])
            self._cache["invint"] = make_interp_spline(xk, cum, k=5)
            self._cache["invint_total"] = float(cum[-1])
            self._cache["invint_table"] = (xk, cum)
        return self._cache["invint"], self._cache["invint_total"]

    def inv_beta_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The points and values of int 1/beta that ``inv_beta_integral``
        interpolates."""
        self.inv_beta_integral()
        return self._cache["invint_table"]

    def key(self) -> tuple:
        """Canonical tuple identifying this profile (cache keys)."""
        return ("profile", self.beta_left, self.beta_right, self.center,
                self.half_width, self.shape, self.sharpness)


@dataclass(frozen=True)
class VolumeContext:
    """Finite box of scale L; the profile lives on [-L/4, L/4]."""

    profile: TemperatureProfile
    L: float
    v: float = 1.0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.profile.support
        if self.L / 4.0 < max(abs(lo), abs(hi)):
            raise BoxTooSmall(
                f"kink support [{lo}, {hi}] exceeds [-L/4, L/4] with L={self.L}")

    @property
    def beta0L(self) -> float:
        if "beta0L" not in self._cache:
            p = self.profile
            lo, hi = p.support
            _, kink = p.inv_beta_integral()
            total = ((lo + self.L / 4.0) / p.beta_left + kink
                     + (self.L / 4.0 - hi) / p.beta_right)
            self._cache["beta0L"] = self.L / (2.0 * total)
        return self._cache["beta0L"]

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
        (lo, hi), (spl, kink_total) = p.support, p.inv_beta_integral()
        x = np.asarray(x, dtype=float)
        below = (lo - left) / p.beta_left
        out = np.where(x <= lo, (x - left) / p.beta_left,
                       below + kink_total + (x - hi) / p.beta_right)
        # the spline only inside the kink, as in TemperatureProfile.beta
        m = (x > lo) & (x < hi)
        out[m] = below + spl(x[m])
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

    def deriv(self, x, order: int = 1) -> np.ndarray:
        """Analytic derivatives: h' = beta0/beta and its chain rule."""
        b0 = self.beta0
        b, b1, b2 = self._beta_derivs(np.asarray(x, dtype=float))
        if order == 1:
            return b0 / b
        if order == 2:
            return -b0 * b1 / b ** 2
        if order == 3:
            return b0 * (2.0 * b1 ** 2 - b * b2) / b ** 3
        raise ValueError("deriv supports orders 1..3")

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
            xk, cum = p.inv_beta_table()
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

    @cached_property
    def support(self) -> tuple[float, float]:
        """Outermost grid points moved by more than 1e-13; (0, 0) if none."""
        moved = np.nonzero(np.abs(self.displacement()) > 1e-13)[0]
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


def flow_family(xi_field: XiField, s_values, grid,
                inverse: bool = False) -> list:
    """Flows of the transport field at several flow times, on one grid.

    With ``phi = h o (shift by v t) o h^{-1}``, ``phi' = gamma / zeta``, so
    the flow of ``-zeta`` is a translation: ``f_s = phi^{-1}(phi - gamma s)``;
    the minus mover is the plus one reflected (``XiField.sigma``).  Finite
    volume: the Diffeos ``f_s``, whose inverses are the flows at -s.
    Infinite volume: the Diffeos ``g_s = f_s + gamma s``, or with
    ``inverse`` ``g_s^{-1}(y) = f_{-s}(y - gamma s)``, exactly the identity
    off the swept interval ``(a + min(0, gamma s), b + max(0, gamma s))``,
    (a, b) the support of xi.  Zero time copies the lattice.  Every time
    goes through one h^{-1} call per stage: a 2-D one in finite volume, one
    over the concatenated swept points on the line.
    """
    s_values = np.asarray(s_values, dtype=float)
    gamma, h, x = xi_field.gamma, xi_field._hmap, grid.x
    sigma = xi_field.sigma
    vt = sigma * xi_field.v * xi_field.t
    phi = lambda y: h(h.inverse(sigma * y) + vt)
    phi_inv = lambda w: sigma * h(h.inverse(w) - vt)
    if xi_field.finite:
        if inverse:
            raise ValueError("a finite-volume flow's inverse is the flow "
                             "at -s")
        moved = s_values != 0
        samples = np.tile(x, (len(s_values), 1))
        samples[moved] = phi_inv(phi(x) - gamma * s_values[moved, None])
        return [Diffeo(grid, row) for row in samples]
    if not len(s_values):
        return []
    a, b = xi_field.support
    swept = [(x > a + min(0.0, gamma * s)) & (x < b + max(0.0, gamma * s))
             & (s != 0) for s in s_values.tolist()]
    counts = [np.count_nonzero(m) for m in swept]
    shift = np.repeat(gamma * s_values, counts)
    if inverse:
        y = np.concatenate([x[m] for m in swept])
        moved = phi_inv(phi(y - shift) + sigma * shift)
    else:
        phi_x = phi(x)
        moved = phi_inv(np.concatenate([phi_x[m] for m in swept])
                        - sigma * shift) + shift
    out = []
    for m, part in zip(swept, np.split(moved, np.cumsum(counts)[:-1])):
        samples = x.copy()
        samples[m] = part
        out.append(Diffeo(grid, samples))
    return out
