"""Acceptance suite: one test per shipping criterion.

Every test prints a single line

    [PASS|FAIL] criterion N: <label>  defect=<x> tol=<t>  (<runtime> s)

and asserts the stated tolerance.  Each criterion runs the shipped code that
holds it: a criterion that a self-test check states runs that check, and the
cumulant and thermodynamic-limit criteria run the ``moments`` and
``converge`` commands.  Numerical resolutions are chosen so each criterion
also meets its runtime budget on commodity hardware.
"""

import json
import math
import time
from dataclasses import asdict, replace

import pytest

from weldfcs import (Numerics, TemperatureProfile, Theory, VolumeContext,
                     longtime_approach, psi_finite, psi_infinite, selftest)
from weldfcs.cache import SolveCache
from weldfcs.cli import main as cli_main

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


def battery(number, label, names, budget):
    """Criterion ``number`` as the self-test checks ``names``: each must run
    and pass, and the line reports the worst defect/tolerance ratio."""
    t0 = time.time()
    results = selftest.run(names)
    assert sorted(r["name"] for r in results) == sorted(names)

    def ratio(r):
        if r["defect"] is None:             # the check raised
            return math.inf
        if r["tolerance"] == 0.0:
            return 0.0 if r["defect"] == 0.0 else math.inf
        return r["defect"] / r["tolerance"]

    extra = "  [" + " ".join(
        f"{r['name']}=" + ("n/a" if r["defect"] is None
                           else f"{r['defect']:.1e}") for r in results) + "]"
    dt = record(number, label, max(map(ratio, results)), 1.0, t0, extra)
    assert all(r["status"] == "pass" for r in results), results
    assert dt < budget


def run_command(outdir, command, experiment, numerics, cache=None,
                theory=None):
    """``weldfcs <command>`` in-process on the kink; returns its JSON."""
    outdir.mkdir()
    cfg = {"profile": {"beta_left": 2.0, "beta_right": 1.0,
                       "half_width": 1.0, "v": 1.0},
           "theory": theory or {"model": "central_charge_only", "c": 1.0},
           "numerics": asdict(numerics), "experiment": experiment,
           "io": {"output_dir": str(outdir), "formats": ["json"]}}
    path = outdir / "run.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)]
    if cache is not None:
        argv += ["--cache-dir", str(cache.dir)]
    assert cli_main(argv) == 0
    return json.loads((outdir / f"{command}.json").read_text())


@pytest.fixture(scope="module")
def psi_cache(tmp_path_factory):
    return SolveCache(tmp_path_factory.mktemp("psi-cache"))


def test_criterion_1_trivial_welds():
    battery(1, "identity welds exact", ("torus.identity_weld_exact",
                                        "cylinder.identity_weld_exact"), 1.0)


def test_criterion_2_translation_tau():
    battery(2, "translation shifts tau by b/L",
            ("torus.translation_tau_shift",), 1.0)


def test_criterion_3_lemma1_identities():
    battery(3, "Stokes identities at N=256, default kink",
            ("torus.kink_lemma1_stform1_rel",
             "torus.kink_lemma1_stform2_abs"), 10.0)


def test_criterion_4_effective_tau_cross_check():
    battery(4, "accumulated vs direct effective tau at s=0.25",
            ("torus.effective_tau_quadrature_vs_direct",), 60.0)


def test_criterion_5_linear_response():
    battery(5, "first-order response of X' vs closed form",
            ("cylinder.linear_response",), 30.0)


def test_criterion_6_quadrature_identity():
    battery(6, "sinh^-4 transform quadrature vs closed form (5 pairs)",
            ("fcs.appendix_b_identity",), 5.0)


def test_criterion_7_moments(psi_cache, tmp_path):
    t0 = time.time()
    out = run_command(tmp_path / "moments", "moments",
                      {"t": 4.0, "fd_step": 0.02}, LEAN, psi_cache)
    mean_rel, var_rel = out["mean_rel_err"], out["variance_rel_err"]
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


def test_criterion_9_thermodynamic_limit(psi_cache, tmp_path):
    t0 = time.time()
    # (a) the recentered boundary derivative approaches the band welding
    # with slope -1 in L.  (b) The finite-volume generating function
    # approaches its limit: the box only matters once the transported kink
    # images wrap it, so t_psi puts 2 v t_psi between the smallest and
    # largest box.  The wrapped box must differ from the limit.  Past the
    # wrap the box dependence lies below the truncation floor of both
    # solvers (cylinder momentum cutoff, torus modes per unit length), so
    # the unwrapped boxes are held to a budget above that floor rather than
    # ordered within it
    Ls, t_psi, lam = [40.0, 80.0, 160.0], 30.0, 0.2
    num = replace(LEAN, tail_tol=5e-3)
    boson = {"model": "free_boson_radius", "c": 1.0, "radius": 1.0}
    out = run_command(tmp_path / "converge", "converge",
                      {"L_values": Ls, "t": 4.0, "s": 0.25, "lambda": lam,
                       "t_psi": t_psi}, num, psi_cache, boson)
    slope, defects = out["xprime_slope"], out["psi_defects"]
    slope_defect = max(0.0, abs(slope + 1.0) - 0.3)
    # the two unwrapped ln Psi_L, read from the records converge left
    misses = psi_cache.misses
    th = Theory(**boson)
    vals = [psi_finite(KINK, th, VolumeContext(KINK, L, 1.0), t_psi,
                       lam=lam, numerics=replace(num, n_modes=int(
                           num.n_modes * L / Ls[0])),
                       cache=psi_cache).ln_psi for L in Ls[1:]]
    assert psi_cache.misses == misses
    spread = abs(vals[1] - vals[0])
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


def test_criterion_10_character_asymptotics():
    battery(10, "Cardy growth constant and boson/fermion equivalence",
            ("characters.cardy_constant_stability",
             "characters.boson_sqrt2_equals_fermion"), 10.0)


def test_criterion_11_large_deviations():
    battery(11, "fluctuation symmetry, Gallavotti-Cohen, Levitov-Lesovik",
            ("ldf.fluctuation_symmetry_20pts", "ldf.gallavotti_cohen",
             "ldf.levitov_lesovik_quadrature"), math.inf)


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
    num = Numerics(n_modes=96, tail_tol=5e-3, s_nodes=4, dx=0.04,
                   window_pad_gamma=5.0, window_factor=4.0, p_max_gamma=20.0)
    experiment = {"mode": "infinite", "t_values": [1.0],
                  "lambda_values": [0.15, 0.3]}
    for tag in ("one", "two"):
        run_command(tmp_path / tag, "fcs", experiment, num)
    blobs = [(tmp_path / tag / "fcs.json").read_bytes()
             for tag in ("one", "two")]
    record(12, "cold reruns produce byte-identical JSON",
           0.0 if blobs[0] == blobs[1] else 1.0, 0.5, t0)
    assert blobs[0] == blobs[1]
