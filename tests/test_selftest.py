"""The invariant battery, one test per check; ``pytest -k <name>`` runs
one check."""

import pytest

from weldfcs import selftest

# each check's tolerance as pinned here: a check may tighten (then lower its
# pin with it) but not loosen, and none may go missing
PINNED_TOLERANCES = {
    "profile.flat_periodization_constant": 0.0,
    "profile.asymptotes_exact": 0.0,
    "profile.beta0_arithmetic": 1e-15,
    "profile.beta0L_recompute": 1e-12,
    "profile.betaL_reflection": 1e-13,
    "profile.hL_lift_and_reflection": 1e-12,
    "profile.hL_slope_times_beta": 1e-13,
    "profile.h_inverse_roundtrip": 1e-11,
    "profile.xi_vanishes_at_t0": 0.0,
    "profile.xi_finite_reflection": 1e-12,
    "profile.xi_plateau_value_length": 1e-10,
    "profile.flow_of_uniform_field_translates": 1e-11,
    "profile.flow_group_law": 1e-9,
    "profile.flow_reflection_symmetry": 1e-10,
    "profile.line_flow_recentering_slope": 0.3,
    "schwarzian.identity": 0.0,
    "schwarzian.chain_rule": 1e-8,
    "schwarzian.flow_cocycle": 1e-7,
    "counterterm.t0_and_flat": 0.0,
    "action.identity_weld": 1e-12,
    "torus.identity_weld_exact": 0.0,
    "torus.translation_tau_shift": 1e-13,
    "torus.sine_residuals": 1e-10,
    "torus.kink_lemma1_stform1_rel": 1e-8,
    "torus.kink_lemma1_stform2_abs": 1e-7,
    "torus.kink_tau_positive_imag": 0.0,
    "torus.kink_tau_two_route": 1e-10,
    "torus.effective_tau_quadrature_vs_direct": 1e-9,
    "torus.refinement_spectral": 0.1,
    "torus.projected_system_condition": 1000.0,
    "cylinder.identity_weld_exact": 0.0,
    "cylinder.linear_response": 1e-6,
    "cylinder.bulk_plateau_factor": 0.001,
    "cylinder.mover_reflection": 1e-9,
    "cylinder.exponential_tail_rate": 0.1,
    "cylinder.xprime_nonvanishing": 0.0,
    "cylinder.nystrom_not_singular": 1000.0,
    "cylinder.realspace_crosscheck": 1e-5,
    "cylinder.sigma_schwartz_bound": 1000.0,
    "cylinder.source_resolved": 1e-10,
    "characters.boson_sqrt2_equals_fermion": 1e-12,
    "characters.positivity_on_imaginary_axis": 0.0,
    "characters.vacuum_dominance": 1e-9,
    "characters.direct_vs_modular_overlap": 1e-13,
    "characters.cardy_constant_stability": 0.001,
    "ldf.zero_at_origin": 0.0,
    "ldf.fluctuation_symmetry_20pts": 1e-12,
    "ldf.levitov_lesovik_quadrature": 1e-8,
    "ldf.gallavotti_cohen": 1e-10,
    "ldf.rate_zero_at_mean_drift": 1e-12,
    "ldf.rate_symmetric_when_equal_temps": 1e-12,
    "ldf.levy_khintchine_integral": 1e-8,
    "ldf.jump_rates_zero_charge": 0.0,
    "ldf.jump_rate_diagonal_convention": 1e-15,
    "fcs.appendix_b_identity": 1e-8,
    "fcs.psi_zero_lambda": 0.0,
    "fcs.delta_beta_guard": 0.0,
}


@pytest.mark.parametrize("name", [name for name, _, _ in selftest.CHECKS])
def test_check(name):
    [result] = selftest.run([name])
    assert result["status"] == "pass", result


def test_tolerances_never_above_their_pins():
    tolerances = {name: tol for name, tol, _ in selftest.CHECKS}
    assert len(tolerances) == len(selftest.CHECKS)
    assert tolerances.keys() == PINNED_TOLERANCES.keys()
    looser = {name: (tol, PINNED_TOLERANCES[name])
              for name, tol in tolerances.items()
              if tol > PINNED_TOLERANCES[name]}
    assert not looser, looser
