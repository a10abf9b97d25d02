"""Temperature kinks, reparameterizing maps, and their transport flows.

Walks through the geometric ingredients: the smooth inverse-temperature
kink, its periodization into the doubled box, the map h with slope
beta0/beta, the transport fields of the two movers, and the circle/line
diffeomorphisms those fields generate.

Run:  python demos/01_profile_and_flows.py
"""

import numpy as np

from weldfcs import (InfiniteVolume, TemperatureProfile, VolumeContext,
                     build_h, build_xi, flow_family, periodize_profile)
from weldfcs.spectral import LineGrid, PeriodicGrid

# A kink interpolating between inverse temperatures 2 (left) and 1 (right),
# exactly constant outside [-1, 1].
profile = TemperatureProfile(beta_left=2.0, beta_right=1.0, center=0.0,
                             half_width=1.0)
print("beta(-5) =", profile.beta(np.array(-5.0)), " beta(+5) =",
      profile.beta(np.array(5.0)))
print("harmonic-mean beta0 =", profile.beta0)

# Finite box: the profile lives on [-L/4, L/4] and is reflected into the
# other half of the doubled circle.
ctx = VolumeContext(profile, L=40.0, v=1.0)
beta_L = periodize_profile(profile, ctx)
x = np.linspace(-35, 25, 7)
print("\nperiodized profile symmetry beta_L(-x-L/2) == beta_L(x):",
      np.max(np.abs(beta_L(-x - 20.0) - beta_L(x))))
print("finite-box beta0L =", ctx.beta0L, " (infinite:", profile.beta0, ")")

# The reparameterizing map h: h' = beta0 / beta, fixed by h(0) = 0.
h = build_h(profile)
h_L = build_h(profile, ctx)
print("\nh(0) =", h(np.array(0.0)), "  h_L lift: h_L(x+L)-h_L(x)-L =",
      (h_L(np.array(3.0 + 40.0)) - h_L(np.array(3.0)) - 40.0))

# Transport fields: xi vanishes at t = 0 and develops plateaus once the
# two light-cone images of the kink separate (v t >= 2 half_width).
t = 4.0
xi_plus = build_xi(profile, InfiniteVolume(v=1.0), t, "+")
xi_minus = build_xi(profile, InfiniteVolume(v=1.0), t, "-")
print("\n+ mover support:", xi_plus.support)
print("- mover support:", xi_minus.support)
print("plateau value gamma*dbeta/beta_left =",
      xi_plus.gamma * profile.delta_beta / profile.beta_left)

# Flows: finite volume gives a lifted circle diffeomorphism, infinite
# volume the shifted line diffeomorphism (identity outside a bounded set);
# each comes with its inverse.
grid = PeriodicGrid(ctx.L, 2048, x0=-0.75 * ctx.L)
f_s, _ = flow_family(build_xi(profile, ctx, t), [0.25], grid)[0]
print("\ncircle flow: min f' =", np.min(f_s.deriv_samples(1)),
      " lift defect =", np.max(np.abs(f_s(x + ctx.L) - f_s(x) - ctx.L)))

# the line flow lives on a window around the field's support, padded by
# six band heights plus the drift gamma*s
lo, hi = xi_plus.support
pad = 6.0 * xi_plus.gamma + abs(xi_plus.gamma * 0.25) + 1.0
span = (hi - lo) + 2 * pad
line = LineGrid(x0=lo - pad, span=span,
                M=1 << int(np.ceil(np.log2(span / 0.02))))
g_s, g_inv = flow_family(xi_plus, [0.25], line)[0]
print("line flow support:", g_s.support)
print("inverse defect:", np.max(np.abs(g_inv(g_s.samples) - line.x)))
print("max displacement:", np.max(np.abs(g_s.displacement())))
