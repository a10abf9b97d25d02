"""Property tests of the closed-form flows over random kinks and times."""

from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from weldfcs import (InfiniteVolume, TemperatureProfile,  # noqa: E402
                     VolumeContext, build_xi, flow_family)
from weldfcs.spectral import LineGrid, PeriodicGrid  # noqa: E402

EPS = 3e-5   # half-step of the central difference in s


def _case(beta_left, beta_right, t, mover, volume, s_max):
    """Transport field, lattice and check points; f_s is g_s - gamma s on
    the line, so ``shift`` is gamma there and 0 on the circle."""
    profile = TemperatureProfile(beta_left, beta_right)
    if volume == "finite":
        ctx = VolumeContext(profile, 40.0)
        grid = PeriodicGrid(ctx.L, 2048, x0=-0.75 * ctx.L)
        return build_xi(profile, ctx, t), grid, grid.x[::16] + 0.3, 0.0
    xi = build_xi(profile, InfiniteVolume(1.0), t, mover)
    lo, hi = xi.support
    reach = xi.gamma * s_max + 1.0
    pad = 6.0 * xi.gamma + reach
    span = (hi - lo) + 2 * pad
    grid = LineGrid(x0=lo - pad, span=span,
                    M=1 << int(np.ceil(np.log2(span / 0.02))))
    return xi, grid, np.linspace(lo - reach, hi + reach, 97), xi.gamma


def _at(xi, s, points, inverse=False):
    """The closed form at arbitrary points: ``flow_family`` reads only the
    lattice ``x`` of its grid, so no spectral interpolation enters.  In
    finite volume the inverse is the flow at -s."""
    grid = SimpleNamespace(x=np.asarray(points, dtype=float))
    if inverse and xi.finite:
        return flow_family(xi, [-s], grid)[0].samples
    return flow_family(xi, [s], grid, inverse=inverse)[0].samples


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(beta_left=st.floats(0.5, 4.0), beta_right=st.floats(0.5, 4.0),
                  t=st.floats(-4.0, 4.0), mover=st.sampled_from("+-"),
                  volume=st.sampled_from(["finite", "infinite"]),
                  a=st.floats(-0.3, 0.3), b=st.floats(-0.3, 0.3))
def test_group_law_inverse_and_generator(beta_left, beta_right, t, mover,
                                         volume, a, b):
    xi, grid, pts, shift = _case(beta_left, beta_right, t, mover, volume,
                                 abs(a) + abs(b))
    # f_a o f_b = f_{a+b}
    comp = _at(xi, a, _at(xi, b, pts) - shift * b) - shift * a
    assert np.max(np.abs(comp - (_at(xi, a + b, pts) - shift * (a + b)))) \
        < 1e-11
    # g_a^{-1} o g_a = id (f_{-a} o f_a on the circle)
    assert np.max(np.abs(_at(xi, a, _at(xi, a, pts), inverse=True) - pts)) \
        < 1e-11

    fa, fp, fm = flow_family(xi, [a, EPS, -EPS], grid)
    # d f_s / ds = -zeta at s = 0: the mover's sign enters here
    rate = (fp.samples - fm.samples) / (2.0 * EPS) - shift
    assert np.max(np.abs(rate + xi.zeta(grid.x))) < 1e-5 * xi.gamma

    if volume == "infinite":
        # exactly the identity off the swept interval of the support
        lo, hi = xi.support
        inv_a = flow_family(xi, [a], grid, inverse=True)[0]
        for s, g in ((a, fa), (a, inv_a), (EPS, fp), (-EPS, fm)):
            off = ((grid.x <= lo + min(0.0, xi.gamma * s))
                   | (grid.x >= hi + max(0.0, xi.gamma * s)))
            assert np.all(g.displacement()[off] == 0.0)
