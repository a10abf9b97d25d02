"""Acceptance suite: one test per shipping criterion.

Every test prints a single line

    [PASS|FAIL] criterion N: <label>  defect=<x> tol=<t>  (<runtime> s)

and asserts the stated tolerance.  Numerical resolutions are chosen so each
criterion also meets its runtime budget on commodity hardware.
"""

import json
import time

import numpy as np
import pytest

from weldfcs import (CylinderWeldProblem, Diffeo, Numerics,
                     TemperatureProfile, Theory, TorusWeldProblem,
                     VolumeContext, appendix_b_check, build_h, character,
                     cylinder_nodes, ldf, levitov_lesovik, log_character,
                     longtime_approach, moments_closed_form,
                     psi_finite, psi_infinite, rate_function, solve_Y1,
                     solve_cylinder, torus_nodes)
from weldfcs.cache import SolveCache
from weldfcs.cli import main as cli_main
from weldfcs.spectral import LineGrid, PeriodicGrid, fit_loglog_slope

KINK = TemperatureProfile(2.0, 1.0, center=0.0, half_width=1.0)
LEAN = Numerics(n_modes=256, tail_tol=2e-3, s_nodes=6, dx=0.02,
                window_pad_gamma=6.0, window_factor=4.0, p_max_gamma=33.0)


def record(number, label, defect, tol, t0, extra=""):
    dt = time.time() - t0
    status = "PASS" if defect <= tol else "FAIL"
    print(f"[{status}] criterion {number}: {label}  defect={defect:.3e} "
          f"tol={tol:.1e}  ({dt:.1f} s){extra}")
    assert defect <= tol, f"criterion {number}: {defect} > {tol}"
    return dt


@pytest.fixture(scope="module")
def psi_cache(tmp_path_factory):
    return SolveCache(tmp_path_factory.mktemp("psi-cache"))


def test_criterion_1_trivial_welds():
    t0 = time.time()
    n = 96
    grid = PeriodicGrid(40.0, 4 * n, x0=-30.0)
    f0 = Diffeo(grid, grid.x.copy())
    sol = solve_Y1(TorusWeldProblem(f0, 0.1j, n, f0))
    d_torus = max(float(np.max(np.abs(sol.y1_coeff))), abs(sol.tau_eff - 0.1j))
    lg = LineGrid(-20.0, 40.0, 512)
    g0 = Diffeo(lg, lg.x.copy())
    csol = solve_cylinder(CylinderWeldProblem(g0, KINK.beta0, 20.0, g0))
    d_cyl = float(np.max(np.abs(csol.xprime - 1.0)))
    dt = record(1, "identity welds exact", max(d_torus, d_cyl), 1e-12, t0)
    assert dt < 1.0


def test_criterion_2_translation_tau():
    t0 = time.time()
    n = 96
    grid = PeriodicGrid(40.0, 4 * n, x0=-30.0)
    b = 2.0
    ft = Diffeo(grid, grid.x - b)
    sol = solve_Y1(TorusWeldProblem(ft, 0.1j, n, Diffeo(grid, grid.x + b)))
    defect = abs(sol.tau_eff - (0.1j + b / 40.0))
    dt = record(2, "translation shifts tau by b/L", defect, 1e-10, t0)
    assert dt < 1.0


def test_criterion_3_lemma1_identities():
    t0 = time.time()
    ctx = VolumeContext(KINK, 40.0, 1.0)
    welds = torus_nodes(KINK, ctx, 2.0, [0.25],
                        Numerics(n_modes=256, tail_tol=1e-3))
    grid = welds.grid
    sol = next(welds.solutions())
    d = sol.diagnostics
    sx_scale = abs(grid.integral(sol.schwarzian))
    rel2 = d["schwarzian_abs"] / max(sx_scale, 1.0)
    defect = max(d["xprime_sq_rel"], rel2)
    dt = record(3, "Stokes identities at N=256, default kink",
                defect, 1e-7, t0,
                extra=f"  [stform1_rel={d['xprime_sq_rel']:.1e} "
                      f"stform2_abs={d['schwarzian_abs']:.1e}]")
    assert d["schwarzian_abs"] < 1e-7
    assert dt < 10.0


def test_criterion_4_effective_tau_cross_check():
    t0 = time.time()
    ctx = VolumeContext(KINK, 40.0, 1.0)
    num = Numerics(n_modes=256, tail_tol=1e-3, s_nodes=8, s_panels=3)
    tau_hat = psi_finite(KINK, Theory("free_fermion_c1"), ctx, 2.0,
                         numerics=num, by_s=0.25).meta["tau_hat"]
    direct = next(torus_nodes(KINK, ctx, 2.0, [0.25], num).solutions()).tau_eff
    dt = record(4, "accumulated vs direct effective tau at s=0.25",
                abs(tau_hat - direct), 1e-8, t0)
    assert dt < 60.0


def test_criterion_5_linear_response():
    t0 = time.time()
    welds = cylinder_nodes(KINK, 1.0, 2.0, "+", [1e-4, -1e-4], LEAN)
    xi, grid = welds.xi, welds.grid
    up, down = (sol.xprime for sol in welds.solutions())
    d_num = (up - down) / 2e-4
    xihat = grid.ft(welds.xi_values)
    todd = grid.p / -np.expm1(-xi.gamma * grid.p)
    d_ref = grid.ift(1j * todd * xihat)
    lo, hi = xi.support
    m = (grid.x > lo - 3) & (grid.x < hi + 3)
    defect = float(np.max(np.abs(d_num[m] - d_ref[m])))
    dt = record(5, "first-order response of X' vs closed form",
                defect, 1e-6, t0)
    assert dt < 30.0


def test_criterion_6_quadrature_identity():
    t0 = time.time()
    defect = max(appendix_b_check(g, p)["abs_error"]
                 for g, p in ((1.0, 2.0), (0.7, 1.0), (1.5, 3.0),
                              (2.0, 0.5), (1.0, -1.5)))
    dt = record(6, "sinh^-4 transform quadrature vs closed form (5 pairs)",
                defect, 1e-8, t0)
    assert dt < 5.0


def test_criterion_7_moments(psi_cache):
    t0 = time.time()
    t, h = 4.0, 0.02
    closed = moments_closed_form(KINK, 1.0, t)
    vals = {k: psi_infinite(KINK, 1.0, t, lam=k * h, numerics=LEAN,
                            cache=psi_cache).ln_psi
            for k in (-2, -1, 1, 2)}
    mean = (8 * (vals[1] - vals[-1]) - (vals[2] - vals[-2])) / (12 * h) / 1j
    var = -(16 * (vals[1] + vals[-1]) - (vals[2] + vals[-2])) / (12 * h ** 2)
    mean_rel = abs(mean - closed["mean"]) / abs(closed["mean"])
    var_rel = abs(var - closed["variance"]) / abs(closed["variance"])
    dt = record(7, "pipeline cumulants vs closed forms (vt=4d)",
                max(mean_rel / 1e-5, var_rel / 1e-3), 1.0, t0,
                extra=f"  [mean_rel={mean_rel:.2e} var_rel={var_rel:.2e}]")
    assert mean_rel < 1e-5
    assert var_rel < 1e-3
    assert dt < 300.0


def test_criterion_8_central_charge_scaling(psi_cache):
    t0 = time.time()
    a = psi_infinite(KINK, 1.0, 4.0, lam=0.02, numerics=LEAN,
                     cache=psi_cache).ln_psi
    b = psi_infinite(KINK, 0.7, 4.0, lam=0.02, numerics=LEAN,
                     cache=psi_cache).ln_psi
    defect = abs(b - 0.7 * a)
    dt = record(8, "central charge enters as an exact overall power",
                defect, 1e-14, t0)
    assert dt < 1.0      # both evaluations served from the warm cache


def test_criterion_9_thermodynamic_limit(psi_cache):
    t0 = time.time()
    # (a) recentered boundary derivative vs the band welding, slope in L
    s, t = 0.25, 4.0
    ref_welds = cylinder_nodes(KINK, 1.0, t, "+", [s], LEAN)
    sol_inf = next(ref_welds.solutions())
    lo, hi = ref_welds.xi.support
    pts = np.linspace(lo - 1, hi + 1, 201)
    ref = sol_inf.xprime_at(pts)
    h_inf = build_h(KINK)
    a_pt = h_inf(np.array(-1.0)).item()
    errs, Ls = [], [40.0, 80.0, 160.0]
    for L in Ls:
        ctx = VolumeContext(KINK, L, 1.0)
        n = int(256 * L / 40)
        welds = torus_nodes(KINK, ctx, t, [s], Numerics(n_modes=n,
                                                        tail_tol=2e-3))
        sol = next(welds.solutions())
        h_l = build_h(KINK, ctx)
        o_l = h_l(np.array(-1.0)).item() - a_pt
        errs.append(float(np.max(np.abs(sol.xprime_at(pts + o_l) - ref))))
    slope = fit_loglog_slope(Ls, errs)
    slope_defect = max(0.0, abs(slope + 1.0) - 0.3)

    # (b) finite-volume generating function approaches its limit: the box
    # only matters once the transported kink images wrap it, so the time is
    # chosen with 2 v t between the smallest and largest box.  The wrapped
    # box must differ from the limit.  Past the wrap the box dependence lies
    # below the truncation floor of both solvers (cylinder momentum cutoff,
    # torus modes per unit length), so the unwrapped boxes are held to a
    # budget above that floor rather than ordered within it
    t_psi, lam = 30.0, 0.2
    th = Theory("free_boson_radius", 1.0, radius=1.0)
    vi = psi_infinite(KINK, 1.0, t_psi, lam=lam, numerics=LEAN,
                      cache=psi_cache)
    vals = []
    for L in Ls:
        ctx = VolumeContext(KINK, L, 1.0)
        n = int(256 * L / 40)
        num_l = Numerics(n_modes=n, tail_tol=5e-3, s_nodes=6)
        vals.append(psi_finite(KINK, th, ctx, t_psi, lam=lam, numerics=num_l,
                               cache=psi_cache).ln_psi)
    defects = [abs(v - vi.ln_psi) for v in vals]
    spread = abs(vals[2] - vals[1])
    wrap_min, limit_tol, spread_tol = 1e-2, 1e-9, 1e-10
    in_budget = (defects[0] >= wrap_min and max(defects[1:]) <= limit_tol
                 and spread <= spread_tol)
    dt = record(9, "thermodynamic limit: X' slope and lnPsi defects",
                slope_defect + (0.0 if in_budget else 1.0), 1e-12, t0,
                extra=f"  [slope={slope:.3f} wrapped={defects[0]:.2e}"
                      f" (>={wrap_min:.0e}) unwrapped="
                      + ",".join(f"{d:.2e}" for d in defects[1:])
                      + f" (<={limit_tol:.0e}) spread={spread:.2e}"
                      f" (<={spread_tol:.0e})]")
    assert -1.3 < slope < -0.7
    assert defects[0] >= wrap_min
    assert max(defects[1:]) <= limit_tol
    assert spread <= spread_tol
    assert dt < 600.0


def test_criterion_10_character_asymptotics(rng):
    t0 = time.time()
    th = Theory("free_boson_radius", 1.0, radius=1.0)
    vals = [log_character(th, 1j * e).real - 2 * np.pi / (24 * e)
            for e in (0.1, 0.05, 0.02)]
    d_cardy = max(vals) - min(vals)
    fb = Theory("free_boson_radius", 1.0, radius=np.sqrt(2.0))
    ff = Theory("free_fermion_c1", 1.0)
    d_equiv = 0.0
    for _ in range(12):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.25, 2.0))
        a = character(fb, tau, method="direct")
        b = character(ff, tau, method="direct")
        d_equiv = max(d_equiv, abs(a - b) / abs(a))
    dt = record(10, "Cardy growth constant and boson/fermion equivalence",
                max(d_cardy / 1e-3, d_equiv / 1e-12), 1.0, t0,
                extra=f"  [cardy={d_cardy:.2e} equiv={d_equiv:.2e}]")
    assert d_cardy < 1e-3
    assert d_equiv < 1e-12
    assert dt < 10.0


def test_criterion_11_large_deviations(rng):
    t0 = time.time()
    dbeta = KINK.delta_beta
    d_sym = 0.0
    for _ in range(20):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.8))
        a = ldf(2.0, 1.0, 1.0, lam)["total"]
        b = ldf(2.0, 1.0, 1.0, -lam + 1j * dbeta)["total"]
        d_sym = max(d_sym, abs(a - b))
    sig = np.linspace(-5, 5, 41)
    r = rate_function(2.0, 1.0, 1.0, sig)["rate"]
    r_neg = rate_function(2.0, 1.0, 1.0, -sig)["rate"]
    d_gc = float(np.max(np.abs(r_neg - r - sig * dbeta)))
    d_ll = abs(ldf(2.0, 1.0, 1.0, 0.3)["total"]
               - levitov_lesovik(2.0, 1.0, 0.3))
    record(11, "fluctuation symmetry, Gallavotti-Cohen, Levitov-Lesovik",
           max(d_sym / 1e-12, d_gc / 1e-10, d_ll / 1e-8), 1.0, t0,
           extra=f"  [sym={d_sym:.2e} gc={d_gc:.2e} ll={d_ll:.2e}]")
    assert d_sym < 1e-12 and d_gc < 1e-10 and d_ll < 1e-8


def test_criterion_11b_longtime_defect_decreasing(psi_cache):
    t0 = time.time()
    num = Numerics(n_modes=256, tail_tol=2e-3, s_nodes=6, dx=0.025,
                   window_pad_gamma=5.0, window_factor=3.0, p_max_gamma=25.0)
    out = longtime_approach(KINK, 1.0, [8.0, 16.0, 32.0], 0.2, numerics=num,
                            cache=psi_cache)
    dp = [row["defect_plus"] for row in out["rows"]]
    dm = [row["defect_minus"] for row in out["rows"]]
    ok = all(b < a for a, b in zip(dp, dp[1:])) \
        and all(b < a for a, b in zip(dm, dm[1:]))
    record("11b", "approach to the long-time rates (reported)",
           0.0 if ok else 1.0, 0.5, t0,
           extra="  [+: " + ",".join(f"{d:.2e}" for d in dp)
                 + "  -: " + ",".join(f"{d:.2e}" for d in dm) + "]")
    assert ok


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "profile": {"beta_left": 2.0, "beta_right": 1.0, "half_width": 1.0,
                    "L": 40.0, "v": 1.0},
        "theory": {"model": "free_boson_radius", "c": 1.0, "radius": 1.0},
        "numerics": {"n_modes": 96, "tail_tol": 5e-3, "s_nodes": 4,
                     "dx": 0.04, "window_pad_gamma": 5.0,
                     "window_factor": 4.0, "p_max_gamma": 20.0},
        "experiment": {"mode": "infinite", "t_values": [1.0],
                       "lambda_values": [0.15, 0.3]},
    }
    blobs = []
    for tag in ("one", "two"):
        outdir = tmp_path / tag
        cfg["io"] = {"output_dir": str(outdir)}
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["fcs", "--config", str(path)]) == 0
        blobs.append((outdir / "fcs.json").read_bytes())
    record(12, "cold reruns produce byte-identical JSON",
           0.0 if blobs[0] == blobs[1] else 1.0, 0.5, t0)
    assert blobs[0] == blobs[1]
