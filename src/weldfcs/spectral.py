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

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "PeriodicGrid",
    "LineGrid",
    "schwarzian_from_derivatives",
    "bose_weight",
    "fit_loglog_slope",
    "progression_phases",
    "gauss_legendre",
    "gauss_legendre_panels",
    "lattice_roots",
    "LatticePoints",
]


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    computed once per order and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_panels(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel
    between consecutive ``edges``, panel after panel."""
    nodes, weights = gauss_legendre(n)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * nodes + mid).ravel(), (half * weights).ravel()


@lru_cache(maxsize=None)
def lattice_roots(m: int) -> np.ndarray:
    """``e^{i pi k / m}`` for k < 2 m, each angle reduced into [-pi, pi),
    computed once per lattice size and returned read-only."""
    k = np.arange(2 * m)
    roots = np.exp(1j * np.pi * ((k + m) % (2 * m) - m) / m)
    roots.flags.writeable = False
    return roots


@dataclass(frozen=True, eq=False)
class LatticePoints:
    """Points ``x_c + m span / M`` of a grid's M-point lattice, held as the
    integers m and the lattice point x_c nearest x = 0 (|x_c| <= dx / 2,
    rounded once from its exact value by ``fredholm.PhaseFactor``).  At a
    momentum p = k dp with 2 k an integer, ``p x = p x_c + pi (2 k m) / M``,
    so e^{i p x} is a root of unity (``lattice_roots``) times e^{i p x_c},
    and no angle p x is rounded."""

    xc: float
    m: np.ndarray
    M: int

    def phases(self, k, dp: float, scale: float = 1.0) -> np.ndarray:
        """The (len(k), len(m)) table ``scale e^{i k_j dp x_m}`` for
        k_j with 2 k_j an integer, where dp = 2 pi / span: a gather from
        the roots of unity, twiddled per row by ``scale e^{i k_j dp x_c}``
        (an angle of at most |k_j| pi / M)."""
        k = np.asarray(k, dtype=float)
        idx = np.multiply.outer(np.rint(2.0 * k).astype(np.int64), self.m)
        idx %= 2 * self.M
        table = lattice_roots(self.M)[idx]
        if self.xc == 0.0:
            return table if scale == 1.0 else scale * table
        return (scale * np.exp(1j * (k * dp) * self.xc))[:, None] * table


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

    @cached_property
    def _phases(self):
        """The momenta and e^{+-i p x0}, built once per grid."""
        p = self.momenta()
        return p, np.exp(1j * p * self.x0), np.exp(-1j * p * self.x0)

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Coefficients c_n of u = sum c_n exp(-i p_n x), FFT storage order."""
        c = np.fft.ifft(values)
        return c * self._phases[1]

    def derivative(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        c = np.fft.ifft(values)
        return np.fft.fft(c * (-1j * self._phases[0]) ** order)

    def series(self, coeff: np.ndarray, order: int = 0) -> np.ndarray:
        """The ``order``-th derivative on the grid of ``sum c_n exp(-i p_n x)``
        (``coefficients``' layout), by one FFT; the Nyquist mode is a cosine,
        whose odd derivatives vanish on the grid as in ``derivative``.real."""
        p, _, shift = self._phases
        d = (-1j * p) ** order
        d[self.M // 2] = d[self.M // 2].real
        return np.fft.fft(coeff * d * shift)

    def integral(self, values: np.ndarray) -> complex | float:
        """Trapezoid rule over one period (spectrally accurate)."""
        return np.sum(values) * self.dx

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

    @cached_property
    def _phases(self):
        return (lattice_roots(self.M)[:self.M],
                (np.arange(self.M) - self.M // 2) % self.M,
                np.exp(1j * self.p * self.x0))

    def ft(self, values: np.ndarray) -> np.ndarray:
        """uhat(p_m) = int exp(+i p_m x) u(x) dx, sampled on the lattice."""
        hs, idx, px0 = self._phases
        c = self.M * np.fft.ifft(values * hs) * self.dx
        return c[idx] * px0

    def ift(self, uhat: np.ndarray) -> np.ndarray:
        """u(x_j) = (dp / 2 pi) * sum_m exp(-i p_m x_j) uhat_m."""
        hs, idx, px0 = self._phases
        a = np.zeros(self.M, dtype=complex)
        a[idx] = uhat / px0
        return np.fft.fft(a) * np.conj(hs) * self.dp / (2.0 * np.pi)

    def series(self, uhat: np.ndarray, order: int = 0) -> np.ndarray:
        """The ``order``-th derivative on the window of the function whose
        transform (``ft``'s layout) is ``uhat``."""
        return self.ift((-1j * self.p) ** order * uhat)

    def derivative(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        return self.series(self.ft(values), order)

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


def _phase_rows(k: np.ndarray, dp: float, x, scale: float = 1.0):
    """``scale e^{i k_j dp x_m}``: gathered from roots of unity when x is a
    ``LatticePoints``, else by ``np.exp`` of the rounded angles."""
    if isinstance(x, LatticePoints):
        return x.phases(k, dp, scale)
    table = np.exp(1j * np.outer(k * dp, x))
    return table if scale == 1.0 else scale * table


def _expm1i(theta: np.ndarray) -> np.ndarray:
    """``expm1(i theta)`` for real theta in the form in which ``np.expm1``
    evaluates it, ``-2 sin^2(theta / 2) + i sin(theta)``, from real sines
    (no complex exponential, and no cancellation at small theta)."""
    half = np.sin(0.5 * theta)
    out = np.empty(theta.shape, dtype=complex)
    np.multiply(-2.0 * half, half, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def progression_phases(j0: float, dp: float, n: int, x, d=None,
                       scale: float = 1.0) -> np.ndarray:
    """The (n, number of points) table ``scale e^{i p_j x_k}``, or with displacements d
    ``scale e^{i p_j x_k} expm1(i p_j d_k)``, over the momenta
    ``p_j = (j0 + j) dp``, j = 0..n-1, where dp > 0, ``2 j0`` is an integer
    and the last momentum is not negative; ``scale`` is real.  The points x
    are an array, or the ``LatticePoints`` of a grid whose span is 2 pi /
    dp, whose phases are then exact roots of unity times a small twiddle.

    The entry at -p is the conjugate of the one at p, so the rows with
    p < 0 are conjugates of rows of the table T over |p| = (mu + i) dp,
    i = 0..r-1, with mu the least |p| / dp.  T is built by angle addition in
    blocks of B = ceil(sqrt(r)) rows: ``|p| = c + b dp`` with c the block's
    first momentum and b < B, so T is ``X_c X_b`` with X = e^{i p x}, about
    2 sqrt(r) exponentials a point and one complex multiply per entry.  With
    d it is ``F_c G_b + X_c F_b``, F = X expm1(i p d) and G = X + F =
    e^{i p (x + d)}, whose terms share a sign at small p d, so those keep
    their relative accuracy (at x = 0 it is ``E_c + E_b + E_c E_b`` with
    E = expm1).  ``scale`` multiplies the block tables of c.  Rounding the
    angles costs what the direct ``np.exp`` costs; ``e^{-i p x}`` is the
    table at ``-x``, and the conjugate of the table with d the table at
    (-x, -d); on a lattice the blocks of X are a gather instead.
    """
    if not isinstance(x, LatticePoints):
        x = np.asarray(x, dtype=float)
    k = max(0, int(np.ceil(-j0)))                   # rows with p_j < 0
    mu = j0 + k
    # row j >= k is T[j - k], row j < k is conj(T[k - j - 2 mu])
    r = max(n - k, int(k + 1 - 2 * mu) if k else 0)
    b = max(1, int(np.ceil(np.sqrt(r))))
    blocks = -(-r // b)
    kc, kb = mu + b * np.arange(blocks), np.arange(b)
    pc, pb = kc * dp, kb * dp
    base = _phase_rows(kc, dp, x, scale)
    sub = _phase_rows(kb, dp, x)
    # T is written as whole blocks, just below the rows with p < 0
    buf = np.empty((k + blocks * b, sub.shape[1]), dtype=complex)
    table = buf[k:].reshape(blocks, b, -1)
    if d is None:
        np.multiply(base[:, None], sub[None], out=table)
    else:
        d = np.asarray(d, dtype=float)
        fsub = sub * _expm1i(np.outer(pb, d))
        np.multiply((base * _expm1i(np.outer(pc, d)))[:, None],
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


def fit_loglog_slope(xs, ys) -> float | None:
    """Least-squares slope of log(ys) against log(xs) over the points with
    ys > 0; None unless those hold at least two distinct xs, since fewer
    fix no line."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    keep = ys > 0
    if len(np.unique(xs[keep])) < 2:
        return None
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])

