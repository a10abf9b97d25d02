"""Welding an annulus into a torus: the finite-volume Fredholm solve.

Solves the boundary problem for three twist maps (identity, a translation,
and a transport flow of the default kink), showing the effective modular
parameter, the solver diagnostics, and the two Stokes identities obeyed by
the welded boundary data.

Run:  python demos/02_torus_welding.py
"""

import numpy as np

from weldfcs import (CircleDiffeo, TemperatureProfile, TorusWeldProblem,
                     VolumeContext, build_xi, effective_tau_ode, flow_family,
                     residual_diagnostics, solve_Y1)
from weldfcs.spectral import PeriodicGrid

L, N = 40.0, 256
grid = PeriodicGrid(L, 4 * N, x0=-0.75 * L)
grid_small = PeriodicGrid(L, 4 * 96, x0=-0.75 * L)

# identity twist: nothing to solve, tau is reproduced exactly
f0 = CircleDiffeo(grid_small, grid_small.x.copy())
sol = solve_Y1(TorusWeldProblem(f0, 0.1j, 96))
print("identity:    tau_eff =", sol.tau_eff)

# translation by b: the torus marking shifts tau by b / L
ft = CircleDiffeo(grid_small, grid_small.x - 2.0)
sol = solve_Y1(TorusWeldProblem(ft, 0.1j, 96))
print("translation: tau_eff =", sol.tau_eff, " (expected 0.05 + 0.1j)")

# transport flow of the kink at flow time s = 0.25
profile = TemperatureProfile(2.0, 1.0)
ctx = VolumeContext(profile, L, 1.0)
xi = build_xi(profile, ctx, t=2.0)
f = flow_family(xi, [0.25], grid)[0]
tau_s = 1j * ctx.gammaL / L - ctx.gammaL * 0.25 / L
sol = solve_Y1(TorusWeldProblem(f, tau_s, N, tail_tol=1e-3))
print("\nkink flow:   tau_eff =", sol.tau_eff)
print("Im tau_eff > 0:", sol.tau_eff.imag > 0)

diag = residual_diagnostics(sol)
for key in ("boundary_eq_1", "boundary_eq_2", "integrability",
            "tau_two_route", "xprime_sq_rel", "schwarzian_abs"):
    print(f"  {key:15s} = {diag[key]:.3e}")

# the twist path: accumulate d tau / ds along re-solved weldings and
# compare with the direct solve at the endpoint
s_grid, tau_path, _ = effective_tau_ode(xi, 0.25, n_modes=N, grid=grid,
                                        tail_tol=1e-3)
print("\naccumulated tau(0.25) =", tau_path[-1])
print("direct      tau(0.25) =", sol.tau_eff)
print("difference:", abs(tau_path[-1] - sol.tau_eff))
