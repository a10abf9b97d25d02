"""Virasoro characters for the implemented model classes.

The trace space is chosen by the theory's ``model`` field:

* ``free_boson_radius``: Neumann boson, zero modes ``h_k = k^2 / r^2`` on top
  of one free-boson tower, so ``chi = theta3(0 | 2 tau / r^2) / eta(tau)``;
* ``free_fermion_c1``: complex fermion with half-integer modes,
  ``chi = q^{-1/24} prod (1 + q^{n-1/2})^2``;
* ``central_charge_only``: spectrum unspecified, only the small-tau
  asymptotic surrogate is available.

Small imaginary part is handled through the modular S-transform
(``theta3(0|-1/x) = sqrt(-i x) theta3(0|x)``, ``eta(-1/tau) =
sqrt(-i tau) eta(tau)``), under which the direct series become rapidly
convergent again.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, fields

import numpy as np

from .errors import NotConverged, SeriesInfeasible

__all__ = ["Theory", "character", "log_character", "small_tau_ratio"]

_MODELS = ("free_fermion_c1", "free_boson_radius", "central_charge_only")
_Q_ABS_MAX = 0.92          # direct q-series radius limit
_TERM_TOL = 1e-18
_TERM_CAP = 100_000


@dataclass(frozen=True)
class Theory:
    model: str
    c: float = 1.0
    radius: float | None = None

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"unknown model '{self.model}'")
        if self.c <= 0:
            raise ValueError("central charge must be positive")
        if self.model == "free_boson_radius":
            if self.radius is None or self.radius <= 0:
                raise ValueError("free boson needs a positive radius")
        if self.model != "central_charge_only" and self.c != 1.0:
            # both characters are c = 1 ones; ln Psi would scale by c alone
            raise ValueError(f"the {self.model} model has c = 1")

    def key(self) -> tuple:
        return ("theory", *(getattr(self, f.name) for f in fields(self)))


def _check_upper(tau: complex):
    if tau.imag <= 0:
        raise ValueError("modular parameter must have positive imaginary part")


def _log_eta(tau: complex) -> complex:
    """log Dedekind eta, principal branch of the convergent product."""
    q = cmath.exp(2j * np.pi * tau)
    if abs(q) > _Q_ABS_MAX:
        raise SeriesInfeasible(f"|q| = {abs(q):.4f} too close to 1 for eta series")
    total = 2j * np.pi * tau / 24.0
    qn = q
    for n in range(1, _TERM_CAP + 1):
        total += cmath.log(1.0 - qn)
        if abs(qn) < _TERM_TOL:
            return total
        qn *= q
    raise NotConverged("eta product did not converge under the term cap")


def _log_theta3(x: complex) -> complex:
    """log theta3(0 | x) = log sum_k exp(i pi x k^2)."""
    w = cmath.exp(1j * np.pi * x)
    if abs(w) > _Q_ABS_MAX:
        raise SeriesInfeasible(f"|w| = {abs(w):.4f} too close to 1 for theta series")
    total = 1.0 + 0.0j
    for k in range(1, _TERM_CAP + 1):
        term = 2.0 * w ** (k * k)
        total += term
        if abs(term) < _TERM_TOL:
            return cmath.log(total)
    raise NotConverged("theta series did not converge under the term cap")


def _log_fermion_direct(tau: complex) -> complex:
    """Trace over the half-integer-moded complex-fermion Fock space."""
    q = cmath.exp(2j * np.pi * tau)
    if abs(q) > _Q_ABS_MAX:
        raise SeriesInfeasible(f"|q| = {abs(q):.4f} too close to 1 for CAR series")
    total = -2j * np.pi * tau / 24.0
    for n in range(1, _TERM_CAP + 1):
        term = q ** (n - 0.5)
        total += 2.0 * cmath.log(1.0 + term)
        if abs(term) < _TERM_TOL:
            return total
    raise NotConverged("fermion product did not converge under the term cap")


def log_character(theory: Theory, tau: complex, method: str = "auto") -> complex:
    """log of the Virasoro character over the theory's trace space.

    ``method`` is one of ``auto`` (pick the better-converging route),
    ``direct`` (q-series at tau) or ``modular`` (S-transformed series,
    accurate for small |tau|).
    """
    tau = complex(tau)
    _check_upper(tau)
    if theory.model == "central_charge_only":
        raise SeriesInfeasible(
            "character needs an explicit spectrum; "
            "central_charge_only supports only the asymptotic surrogate")
    r = np.sqrt(2.0) if theory.model == "free_fermion_c1" else theory.radius

    if method == "auto":
        q_direct = abs(cmath.exp(2j * np.pi * tau))
        q_mod = abs(cmath.exp(-2j * np.pi / tau))
        method = "direct" if q_direct <= q_mod else "modular"
    if method == "direct":
        if theory.model == "free_fermion_c1":
            return _log_fermion_direct(tau)
        return _log_theta3(2.0 * tau / r ** 2) - _log_eta(tau)
    if method == "modular":
        # chi(tau) = (r / sqrt(2)) theta3(0 | -r^2/(2 tau)) / eta(-1/tau)
        return (cmath.log(r / np.sqrt(2.0))
                + _log_theta3(-r ** 2 / (2.0 * tau))
                - _log_eta(-1.0 / tau))
    raise ValueError(f"unknown method '{method}'")


def character(theory: Theory, tau: complex, method: str = "auto") -> complex:
    """Virasoro character chi(tau); overflow-safe cases should use the log."""
    return cmath.exp(log_character(theory, tau, method=method))


def small_tau_ratio(theory: Theory, tau_hat: complex, tau0: complex) -> dict:
    """Character ratio chi(tau_hat)/chi(tau0) next to its small-tau surrogate.

    Returns a record with the exact log-ratio (None when no series route
    converges; then ``flagged`` is set), the asymptotic surrogate
    ``-i pi c / 12 * (tau_hat - tau0) / tau0^2``, and their difference.
    """
    tau_hat = complex(tau_hat)
    tau0 = complex(tau0)
    _check_upper(tau_hat)
    _check_upper(tau0)
    surrogate = -1j * np.pi * theory.c / 12.0 * (tau_hat - tau0) / tau0 ** 2
    record = {
        "log_surrogate": surrogate,
        "log_exact": None,
        "flagged": False,
        "rel_difference": None,
    }
    try:
        exact = (log_character(theory, tau_hat) - log_character(theory, tau0))
        record["log_exact"] = exact
        denom = max(abs(exact), 1e-300)
        record["rel_difference"] = abs(exact - surrogate) / denom
    except SeriesInfeasible:
        record["flagged"] = True
    return record
