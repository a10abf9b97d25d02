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

__all__ = [
    "PeriodicGrid",
    "LineGrid",
    "schwarzian_from_derivatives",
    "bose_weight",
    "fit_loglog_slope",
    "progression_phases",
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

    @property
    def span(self) -> float:
        return self.L

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / self.L

    def momenta(self) -> np.ndarray:
        """Mode momenta in FFT storage order (modes 0, 1, ..., -1)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.M, d=1.0 / self.M) / self.L

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

    def eval_band(self, coeff_band: np.ndarray,
                  points: np.ndarray) -> np.ndarray:
        """Evaluate a symmetric-band trig series at arbitrary points."""
        n_max = (len(coeff_band) - 1) // 2
        return _progression_sum(-n_max, self.dp, coeff_band, points)

    def interpolate(self, values: np.ndarray,
                    points: np.ndarray) -> np.ndarray:
        """The trigonometric interpolant of periodic samples at arbitrary
        points, over the FFT modes -M/2..M/2-1 (Nyquist included)."""
        c = np.fft.fftshift(np.fft.ifft(values))
        return _progression_sum(-self.M // 2, self.dp, c,
                                np.asarray(points, dtype=float) - self.x0)


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

    def eval_ft(self, uhat: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate (dp/2pi) sum exp(-i p x) uhat at points.

        A 2-D ``uhat`` holds one series per column, all evaluated from one
        phase matrix; the result then has a trailing axis of columns.
        """
        w = (uhat.T * self.dp / (2.0 * np.pi)).T
        return _progression_sum(0.5 - self.M / 2, self.dp, w, points)

    def interpolate(self, values: np.ndarray,
                    points: np.ndarray) -> np.ndarray:
        """The band-limited interpolant of window samples at arbitrary
        points."""
        return self.eval_ft(self.ft(values), points)


def _progression_sum(j0: float, dp: float, w: np.ndarray,
                     points) -> np.ndarray:
    """``sum_j w_j e^{-i p_j x}`` at the points, over the momenta
    ``p_j = (j0 + j) dp`` of ``progression_phases``; a 2-D ``w`` holds one
    series per column, and the result then has a trailing axis of columns.
    The points, of any shape, go in chunks, so a phase table holds about 2e6
    entries."""
    n = len(w)
    pts = np.ravel(np.asarray(points, dtype=float))
    res = np.zeros(pts.shape + w.shape[1:], dtype=complex)
    chunk = max(1, int(2e6 // n))
    for i in range(0, len(pts), chunk):
        res[i:i + chunk] = progression_phases(j0, dp, n,
                                              -pts[i:i + chunk]).T @ w
    return res.reshape(np.shape(points) + w.shape[1:])


def progression_phases(j0: float, dp: float, n: int, x, d=None,
                       scale: float = 1.0) -> np.ndarray:
    """The (n, len(x)) table ``scale e^{i p_j x_k}``, or with displacements d
    ``scale e^{i p_j x_k} expm1(i p_j d_k)``, over the momenta
    ``p_j = (j0 + j) dp``, j = 0..n-1, where dp > 0, ``2 j0`` is an integer
    and the last momentum is not negative; ``scale`` is real.

    The entry at -p is the conjugate of the one at p, so the rows with
    p < 0 are conjugates of rows of the table T over |p| = (mu + i) dp,
    i = 0..r-1, with mu the least |p| / dp.  T is built by angle addition in
    blocks of B = ceil(sqrt(r)) rows: ``|p| = c + b dp`` with c the block's
    first momentum and b < B, so T is ``X_c X_b`` with X = e^{i p x}, about
    2 sqrt(r) len(x) exponentials and one complex multiply per entry.  With
    d it is ``F_c G_b + X_c F_b``, F = X expm1(i p d) and G = X + F =
    e^{i p (x + d)}, whose terms share a sign at small p d, so those keep
    their relative accuracy (at x = 0 it is ``E_c + E_b + E_c E_b`` with
    E = expm1).  ``scale`` multiplies the block tables of c.  Rounding the
    angles costs what the direct ``np.exp`` costs; ``e^{-i p x}`` is the
    table at ``-x``, and the conjugate of the table with d the table at
    (-x, -d).
    """
    x = np.asarray(x, dtype=float)
    k = max(0, int(np.ceil(-j0)))                   # rows with p_j < 0
    mu = j0 + k
    # row j >= k is T[j - k], row j < k is conj(T[k - j - 2 mu])
    r = max(n - k, int(k + 1 - 2 * mu) if k else 0)
    b = max(1, int(np.ceil(np.sqrt(r))))
    blocks = -(-r // b)
    # T is written as whole blocks, just below the rows with p < 0
    buf = np.empty((k + blocks * b, len(x)), dtype=complex)
    table = buf[k:].reshape(blocks, b, len(x))
    pc, pb = (mu + b * np.arange(blocks)) * dp, dp * np.arange(b)
    base = scale * np.exp(1j * np.outer(pc, x))
    sub = np.exp(1j * np.outer(pb, x))
    if d is None:
        np.multiply(base[:, None], sub[None], out=table)
    else:
        d = np.asarray(d, dtype=float)
        fsub = sub * np.expm1(1j * np.outer(pb, d))
        np.multiply((base * np.expm1(1j * np.outer(pc, d)))[:, None],
                    sub + fsub, out=table)
        tmp = np.empty_like(fsub)
        for blk, xc in zip(table, base):
            blk += np.multiply(xc, fsub, out=tmp)
    lo = int(1 - 2 * mu)
    np.conjugate(buf[k + lo:2 * k + lo][::-1], out=buf[:k])
    return buf[:n]


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

