"""Invariant self-test battery: compact, deterministic checks of every layer.

Each check returns a defect that must stay below its tolerance.  The battery
is sized to run in a couple of minutes; the heavyweight cumulant and
convergence studies live in the acceptance test suite instead.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

import numpy as np

from . import characters, cylinder_weld, fcs, profile, torus_weld
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


def _ode_flow(zeta, s, y0):
    """The oracle flow of ``-zeta`` to time ``s``: DOP853 at rtol 1e-13."""
    from scipy.integrate import solve_ivp
    return solve_ivp(lambda ss, yv: -zeta(yv), (0.0, s), y0, method="DOP853",
                     rtol=1e-13, atol=3e-14).y[:, -1]


# ---------------------------------------------------------------- profile

@check("profile.flat_periodization_constant", 0.0)
def _():
    p = TemperatureProfile(2.0, 2.0)
    x = np.linspace(-100, 100, 1001)
    return max(float(np.max(np.abs(periodize_profile(p, _ctx(p, L))(x) - 2.0)))
               for L in (30.0, 40.0))


@check("profile.asymptotes_exact", 0.0)
def _():
    p = _default_profile()
    left = np.max(np.abs(p.beta(np.linspace(-50, -1.0, 200)) - 2.0))
    right = np.max(np.abs(p.beta(np.linspace(1.0, 50, 200)) - 1.0))
    return float(max(left, right))


@check("profile.beta0_arithmetic", 1e-15)
def _():
    return abs(_default_profile().beta0 - 4.0 / 3.0)


@check("profile.beta0L_recompute", 1e-12)
def _():
    from scipy.integrate import quad
    p = _default_profile()
    ctx = _ctx(p)
    val = quad(lambda x: 1.0 / p.beta(np.array([x])).item(), -ctx.L / 4,
               ctx.L / 4, epsabs=1e-14, limit=400)[0]
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
    x = np.linspace(-70, 70, 801)
    d1 = np.max(np.abs(h(x + 40.0) - h(x) - 40.0))
    d2 = np.max(np.abs(h(-x - 20.0) + h(x) + 20.0))
    return float(max(d1, d2))


@check("profile.hL_slope_times_beta", 1e-13)
def _():
    p = _default_profile()
    ctx = _ctx(p)
    h = build_h(p, ctx)
    bl = periodize_profile(p, ctx)
    x = np.linspace(-70, 70, 801)
    return float(np.max(np.abs(h.deriv(x) * bl(x) - ctx.beta0L)))


@check("profile.h_inverse_roundtrip", 1e-11)
def _():
    p = _default_profile()
    y = np.linspace(-35, 35, 501)
    return max(float(np.max(np.abs(h(h.inverse(y)) - y)))
               for h in (build_h(p), build_h(p, _ctx(p))))


@check("profile.xi_vanishes_at_t0", 0.0)
def _():
    # at t = 0 the field is exactly zero and zeta = gamma_L
    p = _default_profile()
    ctx = _ctx(p)
    xi = build_xi(p, ctx, 0.0)
    return float(max(np.max(np.abs(xi(np.linspace(-60, 60, 501)))),
                     np.max(np.abs(xi.zeta(np.linspace(-5, 5, 11))
                                   - ctx.gammaL))))


@check("profile.xi_finite_reflection", 1e-12)
def _():
    p = _default_profile()
    xi_p = build_xi(p, _ctx(p), 1.5)
    xi_m = build_xi(p, _ctx(p), -1.5)
    y = np.linspace(-60, 60, 701)
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
    worst = 0.0
    for L, t, s in ((40.0, 3.0, 0.4), (30.0, 5.0, 0.7)):
        ctx = _ctx(p, L)
        xi = build_xi(p, ctx, t)
        grid = PeriodicGrid(L, 256, x0=-0.75 * L)
        f, _ = flow_family(xi, [s], grid)[0]
        refs = [grid.x - ctx.gammaL * s, _ode_flow(xi.zeta, s, grid.x)]
        worst = max(worst, float(np.max(np.abs(f.samples - refs))))
    return worst


@check("profile.flow_group_law", 1e-9)
def _():
    p = _default_profile()
    ctx = _ctx(p)
    xi = build_xi(p, ctx, 1.0)
    grid = PeriodicGrid(ctx.L, 2048, x0=-30.0)
    (f_ab, _), (f_a, _) = flow_family(xi, [0.3, 0.15], grid)
    refs = [f_a(f_a.samples), _ode_flow(xi.zeta, 0.3, grid.x)]
    return float(np.max(np.abs(f_ab.samples - refs)))


@check("profile.flow_reflection_symmetry", 1e-10)
def _():
    p = _default_profile()
    ctx = _ctx(p)
    grid = PeriodicGrid(ctx.L, 2048, x0=-30.0)
    f1, _ = flow_family(build_xi(p, ctx, 1.0), [0.2], grid)[0]
    f2, _ = flow_family(build_xi(p, ctx, -1.0), [-0.2], grid)[0]
    lhs = f1(-grid.x - 20.0)
    rhs = -f2.samples - 20.0
    return float(np.max(np.abs(lhs - rhs)))


@check("profile.line_flow_recentering_slope", 0.3)
def _():
    p = _default_profile()
    xi_inf = build_xi(p, InfiniteVolume(1.0), 1.0, "+")
    span = LineGrid(-12.0, 24.0, 1024)
    g_inf, _ = flow_family(xi_inf, [0.3], span)[0]
    errs, Ls = [], [20.0, 40.0, 80.0]
    for L in Ls:
        ctx = _ctx(p, L)
        grid = PeriodicGrid(L, int(1024 * L / 20), x0=-0.75 * L)
        fL, _ = flow_family(build_xi(p, ctx, 1.0), [0.3], grid)[0]
        h = build_h(p)
        hL = build_h(p, ctx)
        oLp = float(hL(np.array(-1.0)) - h(np.array(-1.0)))
        pts = np.linspace(-6, 4, 101)
        gL = fL(pts + oLp) - oLp + ctx.gammaL * 0.3
        errs.append(np.max(np.abs(gL - g_inf(pts))))
    from .spectral import fit_loglog_slope
    return abs(fit_loglog_slope(Ls, errs) - (-1.0))


# ---------------------------------------------------------------- schwarzian

@check("schwarzian.identity", 0.0)
def _():
    grid = PeriodicGrid(10.0, 256)
    s = profile.Diffeo(grid, grid.x.copy()).schwarzian
    return float(np.max(np.abs(s)))


@check("schwarzian.chain_rule", 1e-8)
def _():
    L = 10.0
    grid = PeriodicGrid(L, 512)
    f2 = grid.x + 0.3 * np.sin(2 * np.pi * grid.x / L) \
        + 0.1 * np.cos(4 * np.pi * grid.x / L)
    f1 = lambda y: y + 0.2 * np.sin(2 * np.pi * y / L + 0.5)
    inner = profile.Diffeo(grid, f2)
    s12 = profile.Diffeo(grid, f1(f2)).schwarzian
    s1 = profile.Diffeo(grid, f1(grid.x)).schwarzian
    rhs = inner.deriv_samples(1) ** 2 * grid.interpolate(s1, f2).real \
        + inner.schwarzian
    return float(np.max(np.abs(s12 - rhs)))


@check("schwarzian.flow_cocycle", 1e-7)
def _():
    # S(f_{2s}) against the cocycle composition of S(f_s) with itself, for
    # an analytic flow field (third derivatives of box-scale samples are
    # roundoff-limited, so the check uses a small box)
    L = 10.0
    grid = PeriodicGrid(L, 512, x0=-L / 2)
    zeta = lambda y: 1.0 + 0.35 * np.sin(2 * np.pi * y / L) \
        + 0.15 * np.cos(4 * np.pi * y / L + 0.3)
    fa = profile.Diffeo(grid, _ode_flow(zeta, 0.12, grid.x))
    fab = profile.Diffeo(grid, _ode_flow(zeta, 0.24, grid.x))
    s_a = fa.schwarzian
    rhs = fa.deriv_samples(1) ** 2 * grid.interpolate(s_a, fa.samples).real \
        + s_a
    return float(np.max(np.abs(fab.schwarzian - rhs)))


@check("counterterm.t0_and_flat", 0.0)
def _():
    flat = TemperatureProfile(2.0, 2.0)
    return max(abs(fcs.counterterm_mover(p, t, 1.0, 1.0, mover))
               for mover in ("+", "-")
               for p, t in ((_default_profile(), 0.0), (flat, 3.0)))


@check("action.identity_weld", 1e-12)
def _():
    # at s = 0 the weld is the identity (X' = 1, SX = 0), so the node record
    # (int xi SX, int xi X'^2) is (0, int xi)
    welds = _cyl_nodes(2.0, [0.0])
    a_sx, a_xp2 = fcs._node_records(welds)[0]
    ref = welds.grid.integral(welds.xi_values)
    return max(abs(a_sx), abs(a_xp2 - ref)) / abs(ref)


# ---------------------------------------------------------------- torus

def _torus_grid(L=40.0, N=96):
    return PeriodicGrid(L, 4 * N, x0=-0.75 * L), N


@check("torus.identity_weld_exact", 0.0)
def _():
    worst = 0.0
    for N in (64, 96):
        grid, _ = _torus_grid(N=N)
        f0 = profile.Diffeo(grid, grid.x.copy())
        sol = torus_weld.solve_Y1(torus_weld.TorusWeldProblem(f0, 0.1j, N, f0))
        worst = max(worst, np.max(np.abs(sol.y1_coeff)),
                    abs(sol.tau_eff - 0.1j))
    return float(worst)


@check("torus.translation_tau_shift", 1e-13)
def _():
    # tau_eff within 1e-13, Y1 within 1e-14 (hence the factor 10) and the
    # two tau_eff routes within 1e-13
    worst = 0.0
    for N in (64, 96):
        grid, _ = _torus_grid(N=N)
        ft = profile.Diffeo(grid, grid.x - 2.0)
        sol = torus_weld.solve_Y1(torus_weld.TorusWeldProblem(
            ft, 0.1j, N, profile.Diffeo(grid, grid.x + 2.0)))
        worst = max(worst, abs(sol.tau_eff - (0.1j + 2.0 / 40.0)),
                    10.0 * np.max(np.abs(sol.y1_coeff)),
                    sol.diagnostics["tau_two_route"])
    return float(worst)


@check("torus.sine_residuals", 1e-10)
def _():
    grid, N = _torus_grid()
    eps = 0.02 * 40.0 / (2 * np.pi)
    fs = profile.Diffeo(grid, grid.x + eps * np.sin(2 * np.pi * grid.x / 40.0))
    sol = torus_weld.solve_Y1(torus_weld.TorusWeldProblem(fs, 0.15j, N,
                                                       fs.inverse()))
    d = sol.diagnostics
    return max(d["boundary_eq_1"], d["boundary_eq_2"], d["tau_two_route"])


@check("torus.kink_lemma1_stform1_rel", 1e-8)
def _():
    sol = _kink_torus_solution()
    return sol.diagnostics["xprime_sq_rel"]


@check("torus.kink_lemma1_stform2_abs", 1e-7)
def _():
    sol = _kink_torus_solution()
    return sol.diagnostics["schwarzian_abs"]


_KINK_NUM = fcs.Numerics(n_modes=256, tail_tol=1e-3)


@cache
def _kink_torus_solution():
    p = _default_profile()
    return next(fcs.torus_nodes(p, _ctx(p), 2.0, [0.25],
                                _KINK_NUM).solutions())


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
    tau_hat = fcs.psi_finite(p, characters.Theory("free_fermion_c1"), _ctx(p),
                             2.0, numerics=replace(_KINK_NUM, s_panels=2),
                             by_s=0.25).meta["tau_hat"]
    return abs(tau_hat - _kink_torus_solution().tau_eff)


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
        f = profile.Diffeo(
            grid, grid.x - amp * L / (2 * np.pi) * np.log(1 - r * z).imag)
        sols[N] = torus_weld.solve_Y1(
            torus_weld.TorusWeldProblem(f, 0.15j, N, f.inverse(),
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

_CYL_NUM = fcs.Numerics(dx=0.02, window_pad_gamma=6.0, window_factor=4.0,
                        p_max_gamma=33.0)


def _cyl_nodes(t, s_values, mover="+"):
    return fcs.cylinder_nodes(_default_profile(), 1.0, t, mover, s_values,
                              _CYL_NUM)


@cache
def _cyl_solution():
    return next(_cyl_nodes(2.0, [0.25]).solutions())


@check("cylinder.identity_weld_exact", 0.0)
def _():
    p = _default_profile()
    worst = 0.0
    for M in (512, 1024):
        grid = LineGrid(-20.0, 40.0, M)
        g0 = profile.Diffeo(grid, grid.x.copy())
        sol = cylinder_weld.solve_cylinder(
            cylinder_weld.CylinderWeldProblem(g0, p.beta0, 20.0, g0))
        worst = max(worst, *(np.max(np.abs(a)) for a in (
            sol.xprime - 1.0, sol.zhat_ext, sol.schwarzian)))
    return float(worst)


@check("cylinder.linear_response", 1e-6)
def _():
    welds = _cyl_nodes(2.0, [1e-4, -1e-4])
    xi, grid = welds.xi, welds.grid
    up, down = (sol.xprime for sol in welds.solutions())
    d_num = (up - down) / 2e-4
    xihat = grid.ft(welds.xi_values)
    todd = bose_weight(grid.p, xi.gamma)
    d_ref = grid.ift(1j * todd * xihat)
    lo, hi = xi.support
    m = (grid.x > lo - 3) & (grid.x < hi + 3)
    return float(np.max(np.abs(d_num[m] - d_ref[m])))


@check("cylinder.bulk_plateau_factor", 1e-3)
def _():
    p = _default_profile()
    sol = next(_cyl_nodes(8.0, [0.3]).solutions())
    h = build_h(p)
    A = h(np.array(-1.0)).item()
    mid = A - 0.5 * p.beta0 / p.beta_left * 6.0
    pred = 1.0 / (1.0 - 1j * p.delta_beta / p.beta_left * 0.3)
    return abs(complex(sol.xprime_at(np.array([mid]))[0]) - pred)


@check("cylinder.mover_reflection", 1e-9)
def _():
    minus = _cyl_nodes(2.0, [0.25], mover="-")
    solm = next(minus.solutions())
    solp = next(_cyl_nodes(-2.0, [-0.25]).solutions())
    lo, hi = minus.xi.support
    pts = np.linspace(lo - 1, hi + 1, 201)
    return float(np.max(np.abs(solm.xprime_at(pts)
                               - np.conj(solp.xprime_at(-pts)))))


@check("cylinder.exponential_tail_rate", 0.1)
def _():
    d = _cyl_solution().diagnostics
    return abs(d["xprime_tail_rate"] / d["expected_rate"] - 1.0)


@check("cylinder.xprime_nonvanishing", 0.0)
def _():
    return 0.0 if _cyl_solution().diagnostics["xprime_min_abs"] > 0.1 else 1.0


@check("cylinder.nystrom_not_singular", 1e3)
def _():
    return _cyl_solution().cond_estimate


@check("cylinder.realspace_crosscheck", 1e-5)
def _():
    d = cylinder_weld.realspace_crosscheck(_cyl_solution(), probes=np.linspace(-3, 1, 5))
    return max(d["boundary_eq_1"], d["boundary_eq_2"])


@check("cylinder.sigma_schwartz_bound", 1e3)
def _():
    return _cyl_solution().diagnostics["schwartz_bound"]


@check("cylinder.source_resolved", 1e-10)
def _():
    return _cyl_solution().diagnostics["source_tail"]


# ---------------------------------------------------------------- characters

@check("characters.boson_sqrt2_equals_fermion", 1e-12)
def _():
    fb = characters.Theory("free_boson_radius", 1.0, radius=np.sqrt(2.0))
    ff = characters.Theory("free_fermion_c1", 1.0)
    worst = 0.0
    for seed in (11, 20240817):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.25, 2.0))
            a = characters.character(fb, tau, method="direct")
            b = characters.character(ff, tau, method="direct")
            worst = max(worst, abs(a - b) / abs(a))
    return worst


@check("characters.positivity_on_imaginary_axis", 0.0)
def _():
    th = characters.Theory("free_boson_radius", 1.0, radius=1.0)
    vals = [characters.character(th, 1j * t)
            for t in (0.05, 0.2, 0.7, 1.0, 1.5, 2.5, 3.0)]
    ok = all(v.real > 0 and abs(v.imag) < min(1e-10, 1e-9 * v.real)
             for v in vals)
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
    for tau in (0.02 + 0.3j, -0.01 + 0.15j, 0.09j, 0.3 + 0.5j):
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

@check("ldf.zero_at_origin", 0.0)
def _():
    return abs(fcs.ldf(2.0, 1.0, 1.0, 0.0)["total"])


@check("ldf.fluctuation_symmetry_20pts", 1e-12)
def _():
    worst = 0.0
    dbeta = 1.0 - 2.0
    for seed in (3, 20240817):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.8))
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
    sig = np.linspace(-5, 5, 41)
    r1 = fcs.rate_function(2.0, 1.0, 1.0, sig)["rate"]
    r2 = fcs.rate_function(2.0, 1.0, 1.0, -sig)["rate"]
    dbeta = 1.0 - 2.0
    return float(np.max(np.abs(r2 - r1 - sig * dbeta)))


@check("ldf.rate_zero_at_mean_drift", 1e-12)
def _():
    c = 1.0
    drift = np.pi * c / 12.0 * (1.0 / 4.0 - 1.0)   # beta_l=2, beta_r=1 at nu=0
    out = fcs.rate_function(2.0, 1.0, c, [drift])
    return max(abs(out["rate"][0]), abs(out["nu_star"][0]))


@check("ldf.rate_symmetric_when_equal_temps", 1e-12)
def _():
    worst = 0.0
    for beta, c, sig in ((1.5, 0.7, np.linspace(0.2, 3.0, 7)),
                         (1.3, 0.6, np.linspace(0.1, 4.0, 17))):
        a = fcs.rate_function(beta, beta, c, sig)["rate"]
        b = fcs.rate_function(beta, beta, c, -sig)["rate"]
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


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
    return max(fcs.appendix_b_check(gamma, p)["abs_error"]
               for gamma, p in ((1.0, 2.0), (0.7, 1.0), (1.5, 3.0),
                                (2.0, 0.5), (1.0, -1.5)))


@check("fcs.psi_zero_lambda", 0.0)
def _():
    p = _default_profile()
    return max(abs(fcs.psi_infinite(p, 1.0, 2.0, lam=0.0).ln_psi),
               abs(fcs.psi_infinite(p, 1.0, 3.0, lam=0.0,
                                    numerics=_CYL_NUM).ln_psi))


@check("fcs.delta_beta_guard", 0.0)
def _():
    # equal temperatures refuse lam; by s, the transport field vanishes and
    # ln Psi is exactly zero
    from .errors import DeltaBetaZero
    p = TemperatureProfile(2.0, 2.0)
    try:
        fcs.psi_infinite(p, 1.0, 2.0, lam=0.1)
    except DeltaBetaZero:
        return abs(fcs.psi_infinite(p, 1.0, 2.0, by_s=0.2,
                                    numerics=_CYL_NUM).ln_psi)
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
