import numpy as np
import pytest

from weldfcs import Theory, character, log_character, small_tau_ratio
from weldfcs.characters import _Q_ABS_MAX
from weldfcs.errors import SeriesInfeasible


class TestTheory:
    def test_validation(self):
        with pytest.raises(ValueError):
            Theory("free_boson_radius", 1.0)        # radius missing
        with pytest.raises(ValueError):
            Theory("free_fermion_c1", 0.5)          # wrong central charge
        with pytest.raises(ValueError):
            Theory("unknown_model")
        with pytest.raises(ValueError):
            Theory("central_charge_only", -1.0)


class TestCharacter:
    def test_finite_at_moderate_imag(self):
        th = Theory("free_boson_radius", 1.0, radius=1.0)
        val = character(th, 0.05j, method="direct")
        assert np.isfinite(val.real) and val.real > 0

    def test_central_charge_only_has_no_character(self):
        with pytest.raises(SeriesInfeasible):
            log_character(Theory("central_charge_only", 0.7), 0.5j)


def _mpmath_log_character(mp, theory, tau):
    """log chi at 30 digits: theta3(0 | 2 tau / r^2) / eta(tau) for the boson,
    the half-integer product for the fermion (checked against
    theta3(0 | tau) / eta(tau), its Jacobi triple-product form)."""
    t = mp.mpc(tau.real, tau.imag)
    eta = mp.eta(t)
    if theory.model == "free_boson_radius":
        x = 2 * t / mp.mpf(theory.radius) ** 2
        return mp.log(mp.jtheta(3, 0, mp.exp(1j * mp.pi * x)) / eta)
    q = mp.exp(2j * mp.pi * t)
    prod, n = mp.exp(-2j * mp.pi * t / 24), 1
    while True:
        term = q ** (n - mp.mpf(0.5))
        prod *= (1 + term) ** 2
        if abs(term) < mp.mpf(10) ** -35:
            break
        n += 1
    triple = mp.jtheta(3, 0, mp.exp(1j * mp.pi * t)) / eta
    assert abs(prod - triple) < mp.mpf(10) ** -25 * abs(triple)
    return mp.log(prod)


class TestMpmathOracle:
    @pytest.mark.parametrize("theory", [
        Theory("free_boson_radius", 1.0, radius=1.0),
        Theory("free_boson_radius", 1.0, radius=float(np.sqrt(2.0))),
        Theory("free_fermion_c1")], ids=["boson_r1", "boson_r_sqrt2",
                                         "fermion"])
    def test_log_character_at_30_digits(self, theory):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        # Im tau at which the direct route's largest nome reaches _Q_ABS_MAX:
        # q for eta and the fermion, exp(-2 pi Im tau / r^2) for theta3
        r2 = theory.radius ** 2 if theory.radius else 1.0
        edge = -np.log(_Q_ABS_MAX) / (2.0 * np.pi) * max(1.0, r2)
        # both sides of that edge, and the tau^ of the finite-boxes workload
        # (L = 40 and 80 at t = 4)
        taus = [1.002j * edge, 0.1 + 1.002j * edge, 0.998j * edge,
                0.1 + 0.998j * edge, -1.14e-4 + 0.03346j, -2.85e-5 + 0.0167j]
        for tau in taus:
            ref = complex(_mpmath_log_character(mp, theory, tau))
            methods = ["modular", "auto"]
            if tau.imag > edge:
                methods.append("direct")
            else:
                with pytest.raises(SeriesInfeasible):
                    log_character(theory, tau, "direct")
            for method in methods:
                err = abs(log_character(theory, tau, method) - ref)
                assert err < 1e-13 * max(1.0, abs(ref)), (tau, method)


class TestSmallTau:
    def test_equal_arguments(self):
        th = Theory("free_boson_radius", 1.0, radius=1.0)
        r = small_tau_ratio(th, 0.05j, 0.05j)
        assert r["log_exact"] == 0.0
        assert r["log_surrogate"] == 0.0

    def test_cardy_asymptotics(self):
        # ln chi(i eps) - 2 pi c / (24 eps) settles to a constant
        th = Theory("free_boson_radius", 1.0, radius=1.0)
        vals = [log_character(th, 1j * e).real - 2 * np.pi / (24 * e)
                for e in (0.1, 0.05, 0.02)]
        assert max(vals) - min(vals) < 1e-3
        assert vals[-1] == pytest.approx(np.log(1 / np.sqrt(2)), abs=1e-6)

    def test_exact_ratio_against_cardy_form(self):
        # the exact log-ratio agrees with the leading-asymptotics form
        # 2 pi i (c/24)(1/tau_hat - 1/tau0) up to exponentially small terms
        th = Theory("free_boson_radius", 1.0, radius=1.0)
        tau0 = 0.05j
        tau_hat = tau0 + 1e-4 * (1 + 1j)
        r = small_tau_ratio(th, tau_hat, tau0)
        cardy = 2j * np.pi / 24.0 * (1.0 / tau_hat - 1.0 / tau0)
        assert abs(r["log_exact"] - cardy) < 1e-6 * abs(r["log_exact"])
        # the linearized surrogate matches at second order in the increment
        rel = abs(r["log_exact"] - r["log_surrogate"]) / abs(r["log_exact"])
        assert rel < 10 * abs((tau_hat - tau0) / tau0)

    def test_surrogate_only_when_series_infeasible(self):
        th = Theory("central_charge_only", 0.7)
        r = small_tau_ratio(th, 0.051j, 0.05j)
        assert r["flagged"]
        assert r["log_exact"] is None
        assert r["log_surrogate"] != 0.0
