"""Counting statistics of energy transfers in 1+1d CFT temperature-profile
states, computed by numerical conformal welding of annuli and bands."""

from .characters import Theory, character, log_character, small_tau_ratio
from .cylinder_weld import (CylinderWeldProblem, CylinderWeldSolution,
                            assemble_sigma, realspace_crosscheck,
                            solve_cylinder)
from .fcs import (FcsResult, Numerics, appendix_b_check, cylinder_nodes,
                  effective_tau, ldf, levitov_lesovik, levy_jump_rates,
                  levy_khintchine_check, longtime_approach,
                  moments_closed_form, psi_finite, psi_infinite,
                  rate_function, torus_nodes)
from .profile import (Diffeo, InfiniteVolume, ReparamMap, TemperatureProfile,
                      VolumeContext, XiField, build_h, build_xi, flow_family,
                      periodize_profile)
from .torus_weld import (TorusWeldProblem, TorusWeldSolution, assemble_K,
                         residual_diagnostics, solve_Y1)

__version__ = "0.1.0"
