"""Welding an annulus into a torus: the finite-volume Fredholm solve.

Solves the boundary problem for three twist maps (identity, a translation,
and a transport flow of the default kink), showing the effective modular
parameter, the solver diagnostics, and the two Stokes identities obeyed by
the welded boundary data.

Run:  python demos/02_torus_welding.py
"""

from weldfcs import (Diffeo, Numerics, TemperatureProfile,
                     TorusWeldProblem, VolumeContext, effective_tau,
                     residual_diagnostics, solve_Y1, torus_nodes)
from weldfcs.spectral import PeriodicGrid

L = 40.0
grid_small = PeriodicGrid(L, 4 * 96, x0=-0.75 * L)

# identity twist: nothing to solve, tau is reproduced exactly
f0 = Diffeo(grid_small, grid_small.x.copy())
sol = solve_Y1(TorusWeldProblem(f0, 0.1j, 96, f0))
print("identity:    tau_eff =", sol.tau_eff)

# translation by b: the torus marking shifts tau by b / L
ft = Diffeo(grid_small, grid_small.x - 2.0)
sol = solve_Y1(TorusWeldProblem(ft, 0.1j, 96,
                                Diffeo(grid_small, grid_small.x + 2.0)))
print("translation: tau_eff =", sol.tau_eff, " (expected 0.05 + 0.1j)")

# transport flow of the kink at flow time s = 0.25
profile = TemperatureProfile(2.0, 1.0)
ctx = VolumeContext(profile, L, 1.0)
numerics = Numerics(n_modes=256, tail_tol=1e-3, s_panels=4)
sol = next(torus_nodes(profile, ctx, 2.0, [0.25], numerics).solutions())
print("\nkink flow:   tau_eff =", sol.tau_eff)
print("Im tau_eff > 0:", sol.tau_eff.imag > 0)

diag = residual_diagnostics(sol)
for key in ("boundary_eq_1", "boundary_eq_2", "integrability",
            "tau_two_route", "xprime_sq_rel", "schwarzian_abs"):
    print(f"  {key:15s} = {diag[key]:.3e}")

# the twist path: accumulate d tau / ds along re-solved weldings and
# compare with the direct solve at the endpoint
_, tau_hat = effective_tau(profile, ctx, 2.0, 0.25, numerics)
print("\naccumulated tau(0.25) =", tau_hat)
print("direct      tau(0.25) =", sol.tau_eff)
print("difference:", abs(tau_hat - sol.tau_eff))
