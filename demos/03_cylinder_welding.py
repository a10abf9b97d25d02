"""Welding a band into a cylinder: the infinite-volume Nystrom solve.

Solves the momentum-space system for a kink transport flow, then inspects
the welded boundary derivative: its exponential return to 1 away from the
twist, the bulk plateau value predicted by pure-translation welding, and
the real-space principal-value crosscheck of the boundary relations.

Run:  python demos/03_cylinder_welding.py
"""

import numpy as np

from weldfcs import (Numerics, TemperatureProfile, build_h, cylinder_nodes,
                     realspace_crosscheck)

profile = TemperatureProfile(2.0, 1.0)
numerics = Numerics(dx=0.02, window_pad_gamma=6.0, window_factor=4.0,
                    p_max_gamma=33.0)

t, s = 8.0, 0.3
welds = cylinder_nodes(profile, 1.0, t, "+", [s], numerics)
grid = welds.grid
print(f"window: [{grid.x0:.1f}, {grid.x0 + grid.span:.1f}]  M = {grid.M}  "
      f"dp = {grid.dp:.4f}")

sol = next(welds.solutions())
diag = sol.diagnostics
print("condition estimate:", f"{diag['cond_estimate']:.2f}",
      " solve residual:", f"{diag['solve_residual']:.1e}")
print("assembly:", {k: f"{diag[k]:.2e}"
                    for k in ("schwartz_bound", "source_tail")})

# exponential tail of X' - 1 right of the twist support
print(f"\nfitted tail rate {diag['xprime_tail_rate']:.3f} "
      f"vs 2 pi / gamma = {diag['expected_rate']:.3f}")

# deep inside the plateau the welding degenerates to a pure translation,
# with a known complex multiplication factor
h = build_h(profile)
A = h(np.array(-1.0)).item()
mid = A - 0.5 * profile.beta0 / profile.beta_left * (t - 2.0)
predicted = 1.0 / (1.0 - 1j * profile.delta_beta / profile.beta_left * s)
measured = sol.xprime_at(np.array([mid]))[0]
print(f"plateau X' = {measured:.8f}")
print(f"predicted  = {predicted:.8f}")

# independent real-space route: Cauchy boundary relations with principal
# values by symmetric excision
defects = realspace_crosscheck(sol, probes=np.linspace(-6, 1, 5))
print("\nreal-space boundary defects:", defects)
