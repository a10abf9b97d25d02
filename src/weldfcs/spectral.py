"""Uniform-grid spectral tools shared by the welding solvers.

Two grid flavours appear throughout the package:

* periodic grids on a circle of circumference ``L`` with mode functions
  ``exp(-i p_n x)``, ``p_n = 2 pi n / L``;
* line windows ``[x0, x0 + span)`` paired with the half-offset momentum
  lattice ``p_m = (m - M/2 + 1/2) * (2 pi / span)`` which never contains
  ``p = 0``.

Fourier-transform convention on the line: ``uhat(p) = int exp(+i p x) u(x) dx``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

__all__ = [
    "PeriodicGrid",
    "LineGrid",
    "schwarzian_from_derivatives",
    "bose_weight",
    "fit_loglog_slope",
    "lu_solve_conditioned",
]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid with ``M`` points covering one period of length ``L``."""

    L: float
    M: int
    x0: float = 0.0

    def __post_init__(self):
        if self.M % 2:
            raise ValueError("PeriodicGrid needs an even number of points")

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.L / self.M * np.arange(self.M)

    @property
    def dx(self) -> float:
        return self.L / self.M

    def mode_numbers(self) -> np.ndarray:
        """Mode indices in FFT storage order (0, 1, ..., -1)."""
        return np.fft.fftfreq(self.M, d=1.0 / self.M)

    def momenta(self) -> np.ndarray:
        return 2.0 * np.pi * self.mode_numbers() / self.L

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Coefficients c_n of u = sum c_n exp(-i p_n x), FFT storage order."""
        c = np.fft.ifft(values)
        return c * np.exp(1j * self.momenta() * self.x0)

    def band_coefficients(self, values: np.ndarray, n_max: int) -> np.ndarray:
        """Coefficients for modes -n_max..n_max (ascending order)."""
        c = self.coefficients(values)
        modes = np.arange(-n_max, n_max + 1)
        return c[modes % self.M]

    def derivative(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        c = np.fft.ifft(values)
        return np.fft.fft(c * (-1j * self.momenta()) ** order)

    def integral(self, values: np.ndarray) -> complex | float:
        """Trapezoid rule over one period (spectrally accurate)."""
        return np.sum(values) * self.dx

    def eval_band(self, coeff_band: np.ndarray, points: np.ndarray,
                  deriv: int = 0) -> np.ndarray:
        """Evaluate a symmetric-band trig series at arbitrary points."""
        n_max = (len(coeff_band) - 1) // 2
        pn = 2.0 * np.pi * np.arange(-n_max, n_max + 1) / self.L
        out = np.zeros(np.shape(points), dtype=complex)
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        res = np.zeros(pts.shape, dtype=complex)
        chunk = max(1, int(2e6 // max(len(pn), 1)))
        wcoef = coeff_band * (-1j * pn) ** deriv
        for i in range(0, len(pts), chunk):
            ph = np.exp(-1j * np.outer(pts[i:i + chunk], pn))
            res[i:i + chunk] = ph @ wcoef
        out[...] = res.reshape(np.shape(points))
        return out


@dataclass(frozen=True)
class LineGrid:
    """Real-space window grid paired with the half-offset momentum lattice."""

    x0: float
    span: float
    M: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.M % 2:
            raise ValueError("LineGrid needs an even number of points")

    @property
    def dx(self) -> float:
        return self.span / self.M

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.M)

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / self.span

    @property
    def p(self) -> np.ndarray:
        """Half-offset momentum lattice, ascending; excludes p = 0."""
        return (np.arange(self.M) - self.M / 2 + 0.5) * self.dp

    def _phases(self):
        if "hs" not in self._cache:
            self._cache["hs"] = np.exp(1j * np.pi * np.arange(self.M) / self.M)
            self._cache["idx"] = (np.arange(self.M) - self.M // 2) % self.M
            self._cache["px0"] = np.exp(1j * self.p * self.x0)
        return self._cache["hs"], self._cache["idx"], self._cache["px0"]

    def ft(self, values: np.ndarray) -> np.ndarray:
        """uhat(p_m) = int exp(+i p_m x) u(x) dx, sampled on the lattice."""
        hs, idx, px0 = self._phases()
        c = self.M * np.fft.ifft(values * hs) * self.dx
        return c[idx] * px0

    def ift(self, uhat: np.ndarray) -> np.ndarray:
        """u(x_j) = (dp / 2 pi) * sum_m exp(-i p_m x_j) uhat_m."""
        hs, idx, px0 = self._phases()
        a = np.zeros(self.M, dtype=complex)
        a[idx] = uhat / px0
        return np.fft.fft(a) * np.conj(hs) * self.dp / (2.0 * np.pi)

    def derivative(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        return self.ift((-1j * self.p) ** order * self.ft(values))

    def integral(self, values: np.ndarray) -> complex | float:
        return np.sum(values) * self.dx

    def eval_ft(self, uhat: np.ndarray, points: np.ndarray,
                deriv: int = 0) -> np.ndarray:
        """Evaluate (dp/2pi) sum exp(-i p x) (-i p)^deriv uhat at points."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        res = np.zeros(pts.shape, dtype=complex)
        w = uhat * (-1j * self.p) ** deriv * self.dp / (2.0 * np.pi)
        chunk = max(1, int(2e6 // self.M))
        for i in range(0, len(pts), chunk):
            ph = np.exp(-1j * np.outer(pts[i:i + chunk], self.p))
            res[i:i + chunk] = ph @ w
        return res.reshape(np.shape(points))


def schwarzian_from_derivatives(d1, d2, d3):
    """S = d3/d1 - (3/2) (d2/d1)^2 from the first three derivatives."""
    r = d2 / d1
    return d3 / d1 - 1.5 * r * r


def bose_weight(p, gamma: float) -> np.ndarray:
    """``p / (1 - exp(-gamma p))`` in a form that cannot overflow.

    For p < 0 it is evaluated as ``|p| e^{-gamma |p|} / (1 - e^{-gamma |p|})``;
    for p > 0 the expression is the direct one, bit for bit.
    """
    p = np.asarray(p, dtype=float)
    a = np.abs(p)
    return a * np.where(p > 0, 1.0, np.exp(-gamma * a)) / -np.expm1(-gamma * a)


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def lu_solve_conditioned(A: np.ndarray, b: np.ndarray, cond_limit: float,
                         error: type, what: str):
    """LU solve of ``A x = b`` gated by LAPACK's 1-norm condition estimate.

    Raises ``error`` when the estimate exceeds ``cond_limit``; otherwise
    returns ``(x, condition estimate, relative residual)``.
    """
    lu, piv = sla.lu_factor(A)
    rcond = sla.lapack.zgecon(lu, np.linalg.norm(A, 1))[0]
    cond = 1.0 / max(rcond, 1e-300)
    if cond > cond_limit:
        raise error(f"{what} condition estimate {cond:.2e}")
    x = sla.lu_solve((lu, piv), b)
    res = np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300)
    return x, cond, float(res)

