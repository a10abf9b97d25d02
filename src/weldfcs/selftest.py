"""Invariant self-test battery: compact, deterministic checks of every layer.

Each check returns a defect that must stay below its tolerance.  The battery
is sized to run in a couple of minutes; the heavyweight cumulant and
convergence studies live in the acceptance test suite instead.
"""

from __future__ import annotations

import numpy as np

from . import analysis, characters, cylinder_weld, fcs, profile, torus_weld
from .profile import (InfiniteVolume, TemperatureProfile, VolumeContext,
                      build_h, build_xi, flow_family, periodize_profile)
from .spectral import LineGrid, PeriodicGrid, bose_weight

CHECKS = []


def check(name, tol):
    def deco(fn):
        CHECKS.append((name, tol, fn))
        return fn
    return deco


def _default_profile():
    return TemperatureProfile(2.0, 1.0, center=0.0, half_width=1.0)


def _ctx(p, L=40.0):
    return VolumeContext(p, L, 1.0)


# ---------------------------------------------------------------- profile

@check("profile.flat_periodization_constant", 1e-14)
def _():
    p = TemperatureProfile(2.0, 2.0)
    bl = periodize_profile(p, _ctx(p))
    x = np.linspace(-60, 60, 501)
    return float(np.max(np.abs(bl(x) - 2.0)))


@check("profile.asymptotes_exact", 0.0)
def _():
    p = _default_profile()
    left = np.max(np.abs(p.beta(np.linspace(-30, -1.0, 50)) - 2.0))
    right = np.max(np.abs(p.beta(np.linspace(1.0, 30, 50)) - 1.0))
    return float(max(left, right))


@check("profile.beta0_arithmetic", 1e-15)
def _():
    return abs(_default_profile().beta0 - 4.0 / 3.0)


@check("profile.beta0L_recompute", 1e-11)
def _():
    from scipy.integrate import quad
    p = _default_profile()
    ctx = _ctx(p)
    val = quad(lambda x: 1.0 / p.beta(np.array([x])).item(), -10, 10,
               epsabs=1e-14, limit=300)[0]
    return abs(1.0 / ctx.beta0L - 2.0 / ctx.L * val)


@check("profile.betaL_reflection", 1e-13)
def _():
    p = _default_profile()
    bl = periodize_profile(p, _ctx(p))
    x = np.linspace(-35, 25, 701)
    return float(np.max(np.abs(bl(-x - 20.0) - bl(x))))


@check("profile.hL_lift_and_reflection", 1e-12)
def _():
    p = _default_profile()
    h = build_h(p, _ctx(p))
    x = np.linspace(-35, 25, 401)
    d1 = np.max(np.abs(h(x + 40.0) - h(x) - 40.0))
    d2 = np.max(np.abs(h(-x - 20.0) + h(x) + 20.0))
    return float(max(d1, d2))


@check("profile.hL_slope_times_beta", 1e-13)
def _():
    p = _default_profile()
    ctx = _ctx(p)
    h = build_h(p, ctx)
    bl = periodize_profile(p, ctx)
    x = np.linspace(-35, 25, 401)
    return float(np.max(np.abs(h.deriv(x) * bl(x) - ctx.beta0L)))


@check("profile.h_inverse_roundtrip", 1e-11)
def _():
    p = _default_profile()
    h = build_h(p)
    y = np.linspace(-25, 25, 401)
    return float(np.max(np.abs(h(h.inverse(y)) - y)))


@check("profile.xi_vanishes_at_t0", 1e-14)
def _():
    p = _default_profile()
    xi = build_xi(p, _ctx(p), 0.0)
    return float(np.max(np.abs(xi(np.linspace(-30, 10, 301)))))


@check("profile.xi_finite_reflection", 1e-12)
def _():
    p = _default_profile()
    xi_p = build_xi(p, _ctx(p), 1.5)
    xi_m = build_xi(p, _ctx(p), -1.5)
    y = np.linspace(-30, 10, 301)
    return float(np.max(np.abs(xi_p(-y - 20.0) - xi_m(y))))


@check("profile.xi_plateau_value_length", 1e-10)
def _():
    p = _default_profile()
    xi = build_xi(p, InfiniteVolume(1.0), 4.0, "+")
    h = build_h(p)
    A = h(np.array(-1.0)).item()
    plat = xi.gamma * p.delta_beta / p.beta_left
    lo = A - p.beta0 / p.beta_left * 2.0   # (vt - 2 delta) = 2
    mid = np.linspace(lo + 1e-3, A - 1e-3, 41)
    d_val = np.max(np.abs(xi(mid) - plat))
    d_len = abs((A - lo) - p.beta0 / p.beta_left * 2.0)
    return float(max(d_val, d_len))


@check("profile.flow_of_uniform_field_translates", 1e-11)
def _():
    p = TemperatureProfile(2.0, 2.0)   # flat: zeta = gamma
    ctx = _ctx(p)
    xi = build_xi(p, ctx, 3.0)
    grid = PeriodicGrid(ctx.L, 256, x0=-30.0)
    f = flow_family(xi, [0.4], grid)[0]
    return float(np.max(np.abs(f.samples - (grid.x - ctx.gammaL * 0.4))))


@check("profile.flow_group_law", 1e-9)
def _():
    p = _default_profile()
    ctx = _ctx(p)
    xi = build_xi(p, ctx, 1.0)
    grid = PeriodicGrid(ctx.L, 2048, x0=-30.0)
    f_ab = flow_family(xi, [0.3], grid)[0]
    f_a = flow_family(xi, [0.15], grid)[0]
    comp = f_a(f_a.samples)
    return float(np.max(np.abs(f_ab.samples - comp)))


@check("profile.flow_reflection_symmetry", 1e-10)
def _():
    p = _default_profile()
    ctx = _ctx(p)
    grid = PeriodicGrid(ctx.L, 1024, x0=-30.0)
    f1 = flow_family(build_xi(p, ctx, 1.0), [0.2], grid)[0]
    f2 = flow_family(build_xi(p, ctx, -1.0), [-0.2], grid)[0]
    lhs = f1(-grid.x - 20.0)
    rhs = -f2.samples - 20.0
    return float(np.max(np.abs(lhs - rhs)))


@check("profile.line_flow_recentering_slope", 0.3)
def _():
    p = _default_profile()
    xi_inf = build_xi(p, InfiniteVolume(1.0), 1.0, "+")
    span = LineGrid(-12.0, 24.0, 1024)
    g_inf = flow_family(xi_inf, [0.3], span)[0]
    errs, Ls = [], [20.0, 40.0, 80.0]
    for L in Ls:
        ctx = _ctx(p, L)
        grid = PeriodicGrid(L, int(1024 * L / 20), x0=-0.75 * L)
        fL = flow_family(build_xi(p, ctx, 1.0), [0.3], grid)[0]
        h = build_h(p)
        hL = build_h(p, ctx)
        oLp = float(hL(np.array(-1.0)) - h(np.array(-1.0)))
        pts = np.linspace(-6, 4, 101)
        gL = fL(pts + oLp) - oLp + ctx.gammaL * 0.3
        errs.append(np.max(np.abs(gL - g_inf(pts))))
    from .spectral import fit_loglog_slope
    return abs(fit_loglog_slope(Ls, errs) - (-1.0))


# ---------------------------------------------------------------- analysis

@check("analysis.schwarzian_identity", 1e-12)
def _():
    grid = PeriodicGrid(10.0, 256)
    s = analysis.schwarzian(analysis.SampledField(grid, grid.x.copy()))
    return float(np.max(np.abs(s.values)))


@check("analysis.schwarzian_mobius", 1e-9)
def _():
    # away from the one-sided closures the FD error sits at the
    # truncation/roundoff sweet spot of the sampling
    grid = LineGrid(0.0, 2.0, 32)
    x = grid.x
    mob = (2.0 * x + 0.3) / (0.5 * x + 1.7)
    s = analysis.schwarzian(analysis.SampledField(grid, mob))
    return float(np.max(np.abs(s.values[11:-11])))


@check("analysis.schwarzian_chain_rule", 1e-8)
def _():
    L = 10.0
    grid = PeriodicGrid(L, 512)
    f2 = grid.x + 0.3 * np.sin(2 * np.pi * grid.x / L) \
        + 0.1 * np.cos(4 * np.pi * grid.x / L)
    f1 = lambda y: y + 0.2 * np.sin(2 * np.pi * y / L + 0.5)
    s12 = analysis.schwarzian(analysis.SampledField(grid, f1(f2))).values
    s2 = analysis.schwarzian(analysis.SampledField(grid, f2)).values
    s1 = analysis.schwarzian(analysis.SampledField(grid, f1(grid.x))).values
    c = np.fft.ifft(s1)
    kk = grid.mode_numbers()
    s1_at = np.real(np.exp(-2j * np.pi * np.outer(f2 / L, kk)) @ c)
    f2p = 1 + grid.derivative(f2 - grid.x, 1).real
    return float(np.max(np.abs(s12 - (f2p ** 2 * s1_at + s2))))


@check("analysis.counterterm_t0_and_flat", 1e-14)
def _():
    p = _default_profile()
    d1 = abs(analysis.counterterm(p, 0.0, 1.0, 1.0))
    d2 = abs(analysis.counterterm(TemperatureProfile(2.0, 2.0), 3.0, 1.0, 1.0))
    return max(d1, d2)


@check("analysis.action_integrand_identity_weld", 1e-12)
def _():
    p = _default_profile()
    xi = build_xi(p, InfiniteVolume(1.0), 2.0, "+")
    grid = LineGrid(-16.0, 32.0, 2048)
    xiv = xi(grid.x)
    gamma = xi.gamma
    val = analysis.action_integrand(xiv, np.ones(grid.M), np.zeros(grid.M),
                                    gamma, grid)
    ref = -(2 * np.pi ** 2 / gamma ** 2) * grid.integral(xiv)
    return abs(val - ref) / abs(ref)


@check("analysis.schwarzian_flow_consistency", 1e-7)
def _():
    # S(f_{2s}) against the cocycle composition of S(f_s) with itself, for
    # an analytic flow field (third derivatives of box-scale samples are
    # roundoff-limited, so the check uses a small box)
    from scipy.integrate import solve_ivp
    L = 10.0
    grid = PeriodicGrid(L, 512, x0=-L / 2)
    zeta = lambda y: 1.0 + 0.35 * np.sin(2 * np.pi * y / L) \
        + 0.15 * np.cos(4 * np.pi * y / L + 0.3)
    def flow_to(s):
        sol = solve_ivp(lambda ss, yv: -zeta(yv), (0.0, s), grid.x,
                        method="DOP853", rtol=1e-13, atol=3e-14)
        return profile.CircleDiffeo(grid, sol.y[:, -1])
    fa = flow_to(0.12)
    fab = flow_to(0.24)
    s_ab = analysis.schwarzian(analysis.SampledField(grid, fab.samples)).values
    d1 = fa.deriv_at(fa.samples, 1)
    d2 = fa.deriv_at(fa.samples, 2)
    d3 = fa.deriv_at(fa.samples, 3)
    s_at = d3 / d1 - 1.5 * (d2 / d1) ** 2
    fap = fa.deriv_samples(1)
    s_a = analysis.schwarzian(analysis.SampledField(grid, fa.samples)).values
    return float(np.max(np.abs(s_ab - (fap ** 2 * s_at + s_a))))


# ---------------------------------------------------------------- torus

def _torus_grid(L=40.0, N=96):
    return PeriodicGrid(L, 4 * N, x0=-0.75 * L), N


@check("torus.identity_weld_exact", 1e-13)
def _():
    grid, N = _torus_grid()
    f0 = profile.CircleDiffeo(grid, grid.x.copy())
    sol = torus_weld.solve_Y1(torus_weld.TorusWeldProblem(f0, 0.1j, N))
    return float(max(np.max(np.abs(sol.y1_coeff)), abs(sol.tau_eff - 0.1j)))


@check("torus.translation_tau_shift", 1e-13)
def _():
    grid, N = _torus_grid()
    ft = profile.CircleDiffeo(grid, grid.x - 2.0)
    sol = torus_weld.solve_Y1(torus_weld.TorusWeldProblem(ft, 0.1j, N))
    return abs(sol.tau_eff - (0.1j + 2.0 / 40.0))


@check("torus.sine_residuals", 1e-10)
def _():
    grid, N = _torus_grid()
    eps = 0.02 * 40.0 / (2 * np.pi)
    fs = profile.CircleDiffeo(grid, grid.x + eps * np.sin(2 * np.pi * grid.x / 40.0))
    sol = torus_weld.solve_Y1(torus_weld.TorusWeldProblem(fs, 0.15j, N))
    d = torus_weld.residual_diagnostics(sol)
    return max(d["boundary_eq_1"], d["boundary_eq_2"], d["integrability"],
               d["tau_two_route"])


@check("torus.kink_lemma1_stform1_rel", 1e-8)
def _():
    sol = _kink_torus_solution()
    return sol.lemma1_defects()["xprime_sq_rel"]


@check("torus.kink_lemma1_stform2_abs", 1e-7)
def _():
    sol = _kink_torus_solution()
    return sol.lemma1_defects()["schwarzian_abs"]


_KINK_SOL = {}


def _kink_torus_solution():
    if "sol" not in _KINK_SOL:
        p = _default_profile()
        ctx = _ctx(p)
        xi = build_xi(p, ctx, 2.0)
        grid = PeriodicGrid(ctx.L, 4 * 256, x0=-0.75 * ctx.L)
        f = flow_family(xi, [0.25], grid)[0]
        tau_s = 1j * ctx.gammaL / ctx.L - ctx.gammaL * 0.25 / ctx.L
        _KINK_SOL["sol"] = torus_weld.solve_Y1(
            torus_weld.TorusWeldProblem(f, tau_s, 256, fine=grid.M,
                                        tail_tol=1e-3))
    return _KINK_SOL["sol"]


@check("torus.kink_tau_positive_imag", 0.0)
def _():
    sol = _kink_torus_solution()
    return 0.0 if sol.tau_eff.imag > 0 else 1.0


@check("torus.kink_tau_two_route", 1e-10)
def _():
    sol = _kink_torus_solution()
    return abs(sol.tau_eff - sol.tau_eff_boundary)


@check("torus.effective_tau_quadrature_vs_direct", 1e-9)
def _():
    p = _default_profile()
    ctx = _ctx(p)
    xi = build_xi(p, ctx, 2.0)
    grid = PeriodicGrid(ctx.L, 4 * 256, x0=-0.75 * ctx.L)
    _, tau_path, _ = torus_weld.effective_tau_ode(
        xi, 0.25, n_modes=256, grid=grid, tail_tol=1e-3,
        n_panels=2, nodes_per_panel=8)
    return abs(tau_path[-1] - _kink_torus_solution().tau_eff)


@check("torus.refinement_spectral", 0.1)
def _():
    # analytic map with geometric mode decay: the solution error must drop
    # at least tenfold per doubling of N (reported as 10/ratio)
    L = 40.0
    r, amp = 0.75, 0.2
    sols = {}
    for N in (16, 32, 64):
        grid = PeriodicGrid(L, 8 * N, x0=-0.75 * L)
        z = np.exp(2j * np.pi * grid.x / L)
        f = profile.CircleDiffeo(
            grid, grid.x - amp * L / (2 * np.pi) * np.log(1 - r * z).imag)
        sols[N] = torus_weld.solve_Y1(
            torus_weld.TorusWeldProblem(f, 0.15j, N, fine=grid.M,
                                        tail_tol=1.0))
    shared = np.arange(-8, 9)
    def band(sol):
        return sol.y1_coeff[sol.modes.searchsorted(shared)]
    e1 = np.max(np.abs(band(sols[16]) - band(sols[32])))
    e2 = np.max(np.abs(band(sols[32]) - band(sols[64])))
    ratio = e1 / max(e2, 1e-300)
    return 10.0 / ratio if ratio < 1e14 else 0.0


@check("torus.projected_system_condition", 1e3)
def _():
    return _kink_torus_solution().cond_estimate


# ---------------------------------------------------------------- cylinder

_CYL = {}


def _cyl_setup(s=0.25, t=2.0):
    key = (s, t)
    if key not in _CYL:
        p = _default_profile()
        xi = build_xi(p, InfiniteVolume(1.0), t, "+")
        gamma = xi.gamma
        num = fcs.Numerics(dx=0.02, window_pad_gamma=6.0, window_factor=4.0,
                           p_max_gamma=33.0)
        grid = fcs.cylinder_grid(xi, s, num)
        g = flow_family(xi, [s], grid)[0]
        gi = flow_family(xi, [s], grid, inverse=True)[0]
        prob = cylinder_weld.CylinderWeldProblem(g, gamma, 33.0 / gamma,
                                                 g_inverse=gi)
        _CYL[key] = (xi, prob, cylinder_weld.solve_cylinder(prob))
    return _CYL[key]


@check("cylinder.identity_weld_exact", 1e-14)
def _():
    p = _default_profile()
    grid = LineGrid(-20.0, 40.0, 1024)
    g0 = profile.LineDiffeo(grid, grid.x.copy())
    sol = cylinder_weld.solve_cylinder(
        cylinder_weld.CylinderWeldProblem(g0, p.beta0, 20.0))
    return float(max(np.max(np.abs(sol.xprime - 1.0)),
                     np.max(np.abs(sol.y1p()))))


@check("cylinder.linear_response", 1e-6)
def _():
    p = _default_profile()
    xi = build_xi(p, InfiniteVolume(1.0), 2.0, "+")
    gamma = xi.gamma
    num = fcs.Numerics(dx=0.02, window_pad_gamma=6.0, window_factor=4.0)
    grid = fcs.cylinder_grid(xi, 1e-4, num)
    vals = {}
    for sgn in (1.0, -1.0):
        s = sgn * 1e-4
        g = flow_family(xi, [s], grid)[0]
        gi = flow_family(xi, [s], grid, inverse=True)[0]
        sol = cylinder_weld.solve_cylinder(
            cylinder_weld.CylinderWeldProblem(g, gamma, 33.0 / gamma, g_inverse=gi))
        vals[sgn] = sol.xprime
    d_num = (vals[1.0] - vals[-1.0]) / 2e-4
    xihat = grid.ft(xi(grid.x))
    todd = bose_weight(grid.p, gamma)
    d_ref = grid.ift(1j * todd * xihat)
    lo, hi = xi.support
    m = (grid.x > lo - 2) & (grid.x < hi + 2)
    return float(np.max(np.abs(d_num[m] - d_ref[m])))


@check("cylinder.bulk_plateau_factor", 1e-3)
def _():
    p = _default_profile()
    xi = build_xi(p, InfiniteVolume(1.0), 8.0, "+")
    gamma = xi.gamma
    num = fcs.Numerics(dx=0.02, window_pad_gamma=6.0, window_factor=4.0)
    grid = fcs.cylinder_grid(xi, 0.3, num)
    g = flow_family(xi, [0.3], grid)[0]
    gi = flow_family(xi, [0.3], grid, inverse=True)[0]
    sol = cylinder_weld.solve_cylinder(
        cylinder_weld.CylinderWeldProblem(g, gamma, 33.0 / gamma, g_inverse=gi))
    h = build_h(p)
    A = h(np.array(-1.0)).item()
    mid = A - 0.5 * p.beta0 / p.beta_left * 6.0
    pred = 1.0 / (1.0 - 1j * p.delta_beta / p.beta_left * 0.3)
    return abs(complex(sol.xprime_at(np.array([mid]))[0]) - pred)


@check("cylinder.mover_reflection", 1e-9)
def _():
    p = _default_profile()
    num = fcs.Numerics(dx=0.02, window_pad_gamma=6.0, window_factor=4.0)
    xim = build_xi(p, InfiniteVolume(1.0), 2.0, "-")
    gm_grid = fcs.cylinder_grid(xim, 0.25, num)
    gm = flow_family(xim, [0.25], gm_grid)[0]
    solm = cylinder_weld.solve_cylinder(cylinder_weld.CylinderWeldProblem(
        gm, xim.gamma, 33.0 / xim.gamma,
        g_inverse=flow_family(xim, [0.25], gm_grid, inverse=True)[0]))
    xip = build_xi(p, InfiniteVolume(1.0), -2.0, "+")
    gp_grid = fcs.cylinder_grid(xip, 0.25, num)
    gp = flow_family(xip, [-0.25], gp_grid)[0]
    solp = cylinder_weld.solve_cylinder(cylinder_weld.CylinderWeldProblem(
        gp, xip.gamma, 33.0 / xip.gamma,
        g_inverse=flow_family(xip, [-0.25], gp_grid, inverse=True)[0]))
    lo, hi = xim.support
    pts = np.linspace(lo - 1, hi + 1, 201)
    return float(np.max(np.abs(solm.xprime_at(pts)
                               - np.conj(solp.xprime_at(-pts)))))


@check("cylinder.exponential_tail_rate", 0.1)
def _():
    _, prob, sol = _cyl_setup()
    d = sol.decay_diagnostics()
    return abs(d["xprime_tail_rate"] / d["expected_rate"] - 1.0)


@check("cylinder.xprime_nonvanishing", 0.0)
def _():
    _, prob, sol = _cyl_setup()
    return 0.0 if sol.decay_diagnostics()["xprime_min_abs"] > 0.1 else 1.0


@check("cylinder.nystrom_not_singular", 1e3)
def _():
    _, prob, sol = _cyl_setup()
    return sol.cond_estimate


@check("cylinder.realspace_crosscheck", 1e-5)
def _():
    xi, prob, sol = _cyl_setup()
    d = cylinder_weld.realspace_crosscheck(prob, sol, probes=np.linspace(-3, 1, 5))
    return max(d["boundary_eq_1"], d["boundary_eq_2"])


@check("cylinder.sigma_schwartz_bound", 1e3)
def _():
    _, prob, sol = _cyl_setup()
    return sol.operator.diagnostics["schwartz_bound"]


@check("cylinder.source_resolved", 1e-10)
def _():
    _, prob, sol = _cyl_setup()
    return sol.operator.diagnostics["source_tail"]


# ---------------------------------------------------------------- characters

@check("characters.boson_sqrt2_equals_fermion", 1e-12)
def _():
    fb = characters.Theory("free_boson_radius", 1.0, radius=np.sqrt(2.0))
    ff = characters.Theory("free_fermion_c1", 1.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(12):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.25, 2.0))
        a = characters.character(fb, tau, method="direct")
        b = characters.character(ff, tau, method="direct")
        worst = max(worst, abs(a - b) / abs(a))
    return worst


@check("characters.positivity_on_imaginary_axis", 0.0)
def _():
    th = characters.Theory("free_boson_radius", 1.0, radius=1.0)
    ok = all(characters.character(th, 1j * t).real > 0
             and abs(characters.character(th, 1j * t).imag) < 1e-10
             for t in (0.2, 0.7, 1.5, 3.0))
    return 0.0 if ok else 1.0


@check("characters.vacuum_dominance", 1e-9)
def _():
    th = characters.Theory("free_boson_radius", 1.0, radius=1.0)
    tau = 4.0j
    return abs(characters.log_character(th, tau) + 2j * np.pi * tau / 24.0)


@check("characters.direct_vs_modular_overlap", 1e-13)
def _():
    th = characters.Theory("free_boson_radius", 1.0, radius=1.3)
    worst = 0.0
    for tau in (0.02 + 0.3j, -0.01 + 0.15j, 0.09j):
        a = characters.log_character(th, tau, "direct")
        b = characters.log_character(th, tau, "modular")
        worst = max(worst, abs(a - b))
    return worst


@check("characters.cardy_constant_stability", 1e-3)
def _():
    th = characters.Theory("free_boson_radius", 1.0, radius=1.0)
    vals = [characters.log_character(th, 1j * e).real - 2 * np.pi / (24 * e)
            for e in (0.1, 0.05, 0.02)]
    return max(vals) - min(vals)


# ---------------------------------------------------------------- fcs closed forms

@check("ldf.zero_at_origin", 1e-15)
def _():
    return abs(fcs.ldf(2.0, 1.0, 1.0, 0.0)["total"])


@check("ldf.fluctuation_symmetry_20pts", 1e-12)
def _():
    rng = np.random.default_rng(3)
    worst = 0.0
    dbeta = 1.0 - 2.0
    for _ in range(20):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-0.4, 0.6))
        a = fcs.ldf(2.0, 1.0, 1.0, lam)["total"]
        b = fcs.ldf(2.0, 1.0, 1.0, -lam + 1j * dbeta)["total"]
        worst = max(worst, abs(a - b))
    return worst


@check("ldf.levitov_lesovik_quadrature", 1e-8)
def _():
    a = fcs.ldf(1.0, 2.0, 1.0, 0.3)["total"]
    b = fcs.levitov_lesovik(1.0, 2.0, 0.3)
    return abs(a - b)


@check("ldf.gallavotti_cohen", 1e-10)
def _():
    sig = np.linspace(-5, 5, 21)
    r1 = fcs.rate_function(2.0, 1.0, 1.0, sig)["rate"]
    r2 = fcs.rate_function(2.0, 1.0, 1.0, -sig)["rate"]
    dbeta = 1.0 - 2.0
    return float(np.max(np.abs(r2 - r1 - sig * dbeta)))


@check("ldf.rate_zero_at_mean_drift", 1e-12)
def _():
    c = 1.0
    drift = np.pi * c / 12.0 * (1.0 / 4.0 - 1.0)   # beta_l=2, beta_r=1 at nu=0
    out = fcs.rate_function(2.0, 1.0, c, [drift])
    return abs(out["rate"][0])


@check("ldf.rate_symmetric_when_equal_temps", 1e-12)
def _():
    sig = np.linspace(0.2, 3.0, 7)
    a = fcs.rate_function(1.5, 1.5, 0.7, sig)["rate"]
    b = fcs.rate_function(1.5, 1.5, 0.7, -sig)["rate"]
    return float(np.max(np.abs(a - b)))


@check("ldf.levy_khintchine_integral", 1e-8)
def _():
    return fcs.levy_khintchine_check(2.0, 1.0, 1.0, 0.4)["abs_error"]


@check("ldf.jump_rates_zero_charge", 0.0)
def _():
    w = fcs.levy_jump_rates(2.0, 1.0, 0.0, 0.0, np.linspace(-2, 2, 9))
    return float(np.max(np.abs(w)))


@check("ldf.jump_rate_diagonal_convention", 1e-15)
def _():
    w = fcs.levy_jump_rates(2.0, 1.0, 1.0, 0.3, 0.3)
    return abs(float(w) - np.pi / 12.0)


@check("fcs.appendix_b_identity", 1e-8)
def _():
    return fcs.appendix_b_check(1.0, 2.0)["abs_error"]


@check("fcs.psi_zero_lambda", 0.0)
def _():
    p = _default_profile()
    return abs(fcs.psi_infinite(p, 1.0, 2.0, lam=0.0).ln_psi)


@check("fcs.delta_beta_guard", 0.0)
def _():
    from .errors import DeltaBetaZero
    p = TemperatureProfile(2.0, 2.0)
    try:
        fcs.psi_infinite(p, 1.0, 2.0, lam=0.1)
    except DeltaBetaZero:
        return 0.0
    return 1.0


def run(names=None):
    """Execute the battery; returns a list of result records."""
    results = []
    for name, tol, fn in CHECKS:
        if names and name not in names:
            continue
        try:
            defect = float(fn())
            status = "pass" if defect <= tol else "fail"
        except Exception as exc:   # noqa: BLE001 - report, never crash the table
            defect = None
            status = f"error: {type(exc).__name__}: {exc}"
        results.append({"name": name, "tolerance": tol, "defect": defect,
                        "status": status})
    return results
