"""Command-line orchestration: configuration in, tables out.

    weldfcs <command> --config <file> [--threads N] [--cache-dir D] [--json]

Commands: weld-torus, weld-cylinder, fcs, moments, ldf, converge, selftest.
Outputs are deterministic (no timestamps, sorted keys), so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import selftest as selftest_mod
from .cache import SolveCache, resolve_cache_dir
from .characters import Theory
from .config import (RunConfig, load_config, read_number, read_numbers,
                     read_positive)
from .cylinder_weld import realspace_crosscheck
from .errors import BoxTooSmall, ConfigInvalid, WeldFcsError
from .fcs import (FcsResult, appendix_b_check, cylinder_nodes, ldf,
                  levitov_lesovik, levy_khintchine_check, moments_closed_form,
                  psi_finite, psi_infinite, rate_function, torus_nodes)
from .profile import VolumeContext, build_h
from .spectral import fit_loglog_slope
from .torus_weld import residual_diagnostics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, separators=(",", ": "))
        fh.write("\n")


def _write_csv(path: Path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        for row in rows:
            writer.writerow(row)


def _enc(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.floating):
        return float(value)
    return value


def _maybe_cache(cfg: RunConfig, cli_dir):
    directory = resolve_cache_dir(cli_dir) or cfg.cache_dir
    return SolveCache(directory) if directory else None


# ----------------------------------------------------------------- commands

def cmd_weld_torus(cfg: RunConfig, args) -> int:
    exp = cfg.experiment
    ctx = cfg.context()
    t = read_number(exp, "t", "experiment", 0.0)
    s_values = read_numbers(exp, "s_values", "experiment",
                            [read_number(exp, "s", "experiment", 0.25)])
    welds = torus_nodes(cfg.profile, ctx, t, s_values, cfg.numerics)
    grid = welds.grid
    rows = []
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for s, sol in zip(s_values, welds.solutions()):
        diag = residual_diagnostics(sol)
        rows.append({"t": t, "s": s, "tau_eff": _enc(sol.tau_eff),
                     **{k: _enc(v) for k, v in diag.items()}})
        np.savez(outdir / f"weld_torus_t{t}_s{s}.npz",
                 x=grid.x, xprime=sol.xprime, schwarzian=sol.schwarzian,
                 y1_coeff=sol.y1_coeff, modes=sol.modes)
    payload = {"command": "weld-torus", "metadata": cfg.metadata(),
               "rows": rows}
    _write_json(outdir / "weld_torus.json", payload)
    if "csv" in cfg.formats:
        header = ["t", "s", "re_tau_eff", "im_tau_eff", "boundary_eq_1",
                  "boundary_eq_2", "integrability", "tau_two_route"]
        table = [header] + [
            [r["t"], r["s"], r["tau_eff"]["re"], r["tau_eff"]["im"],
             r["boundary_eq_1"], r["boundary_eq_2"], r["integrability"],
             r["tau_two_route"]] for r in rows]
        _write_csv(outdir / "weld_torus.csv", table)
    return EXIT_OK


def cmd_weld_cylinder(cfg: RunConfig, args) -> int:
    exp = cfg.experiment
    t = read_number(exp, "t", "experiment", 2.0)
    mover = exp.get("mover", "+")
    if mover not in ("+", "-"):
        raise ConfigInvalid("experiment.mover", f"must be '+' or '-', got {mover!r}")
    crosscheck = exp.get("crosscheck", False)
    if not isinstance(crosscheck, bool):
        raise ConfigInvalid("experiment.crosscheck",
                            f"must be true or false, got {crosscheck!r}")
    s_values = read_numbers(exp, "s_values", "experiment",
                            [read_number(exp, "s", "experiment", 0.25)])
    welds = cylinder_nodes(cfg.profile, cfg.v, t, mover, s_values,
                           cfg.numerics)
    grid = welds.grid
    rows = []
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for s, sol in zip(s_values, welds.solutions()):
        diag = {**sol.operator.diagnostics, **sol.decay_diagnostics()}
        if crosscheck:
            diag.update(realspace_crosscheck(sol.problem, sol))
        rows.append({"t": t, "s": s, "mover": mover,
                     **{k: _enc(v) for k, v in diag.items()}})
        np.savez(outdir / f"weld_cylinder_t{t}_s{s}_{'p' if mover == '+' else 'm'}.npz",
                 x=grid.x, xprime=sol.xprime, schwarzian=sol.schwarzian,
                 zhat=sol.zhat_ext, p=grid.p)
    payload = {"command": "weld-cylinder", "metadata": cfg.metadata(),
               "rows": rows}
    _write_json(outdir / "weld_cylinder.json", payload)
    return EXIT_OK


def cmd_fcs(cfg: RunConfig, args) -> int:
    exp = cfg.experiment
    mode = exp.get("mode", "infinite")
    if mode not in ("infinite", "finite", "both"):
        raise ConfigInvalid("experiment.mode", f"unknown mode {mode!r}")
    t_values = read_numbers(exp, "t_values", "experiment", [2.0])
    lam_values = read_numbers(exp, "lambda_values", "experiment", [0.2])
    cache = _maybe_cache(cfg, args.cache_dir)
    num = cfg.numerics

    nodes = [(t, lam) for t in t_values for lam in lam_values]

    def eval_node(node):
        t, lam = node
        row = {"t": t, "lambda": lam}
        if mode in ("infinite", "both"):
            val = psi_infinite(cfg.profile, cfg.theory.c, t, lam=lam,
                               v=cfg.v, numerics=num, cache=cache)
            row.update({"ln_psi": val.ln_psi, "ln_psi_plus": val.ln_psi_plus,
                        "ln_psi_minus": val.ln_psi_minus})
        if mode in ("finite", "both"):
            ctx = cfg.context()
            valf = psi_finite(cfg.profile, cfg.theory, ctx, t, lam=lam,
                              numerics=num, cache=cache)
            row["ln_psi_finite"] = valf.ln_psi
            if mode == "finite":
                row["ln_psi"] = valf.ln_psi
        return row

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            entries = list(pool.map(eval_node, nodes))
    else:
        entries = [eval_node(n) for n in nodes]

    result = FcsResult(t_values, lam_values, entries, cfg.metadata())
    outdir = Path(cfg.output_dir)
    if "json" in cfg.formats:
        _write_json(outdir / "fcs.json", result.to_json_dict())
    if "csv" in cfg.formats:
        _write_csv(outdir / "fcs.csv", result.csv_rows())
    return EXIT_OK


def cmd_moments(cfg: RunConfig, args) -> int:
    exp = cfg.experiment
    t = read_number(exp, "t", "experiment", 2.0)
    h = read_positive(exp, "fd_step", "experiment", 0.02)
    cache = _maybe_cache(cfg, args.cache_dir)
    num = cfg.numerics
    closed = moments_closed_form(cfg.profile, cfg.theory.c, t, cfg.v)
    vals = {}
    for k in (-2, -1, 1, 2):
        vals[k] = psi_infinite(cfg.profile, cfg.theory.c, t, lam=k * h,
                               v=cfg.v, numerics=num, cache=cache).ln_psi
    mean_pipe = (8 * (vals[1] - vals[-1]) - (vals[2] - vals[-2])) / (12 * h) / 1j
    var_pipe = -(16 * (vals[1] + vals[-1]) - (vals[2] + vals[-2])) / (12 * h ** 2)
    appx = appendix_b_check(cfg.v * cfg.profile.beta0, 2.0)
    payload = {
        "command": "moments", "metadata": cfg.metadata(),
        "t": t,
        "mean_closed": closed["mean"], "variance_closed": closed["variance"],
        "mean_pipeline": _enc(complex(mean_pipe)),
        "variance_pipeline": _enc(complex(var_pipe)),
        "mean_rel_err": abs(mean_pipe - closed["mean"]) / abs(closed["mean"]),
        "variance_rel_err": abs(var_pipe - closed["variance"]) / abs(closed["variance"]),
        "appendix_quadrature_abs_err": appx["abs_error"],
    }
    outdir = Path(cfg.output_dir)
    _write_json(outdir / "moments.json", payload)
    if "csv" in cfg.formats:
        _write_csv(outdir / "moments.csv", [
            ["quantity", "closed_form", "pipeline", "rel_err"],
            ["mean", closed["mean"], complex(mean_pipe).real,
             payload["mean_rel_err"]],
            ["variance", closed["variance"], complex(var_pipe).real,
             payload["variance_rel_err"]],
        ])
    return EXIT_OK


def cmd_ldf(cfg: RunConfig, args) -> int:
    exp = cfg.experiment
    lam_values = read_numbers(exp, "lambda_values", "experiment",
                              [0.2, 0.5, 1.0])
    sigma = np.asarray(read_numbers(exp, "sigma_values", "experiment",
                                    np.linspace(-3.0, 3.0, 25).tolist()))
    bl, br, c = cfg.profile.beta_left, cfg.profile.beta_right, cfg.theory.c
    rows = []
    for lam in lam_values:
        rates = ldf(bl, br, c, lam)
        row = {"lambda": lam, "xi_plus": _enc(rates["plus"]),
               "xi_minus": _enc(rates["minus"]), "xi_total": _enc(rates["total"])}
        if c == 1.0:
            row["levitov_lesovik_abs_err"] = abs(
                levitov_lesovik(bl, br, lam) - rates["total"])
        rows.append(row)
    rf = rate_function(bl, br, c, sigma)
    rf_neg = rate_function(bl, br, c, -sigma)
    gc = np.max(np.abs(rf_neg["rate"] - rf["rate"] - sigma * (br - bl)))
    lk = levy_khintchine_check(bl, br, c, float(lam_values[0]))
    payload = {
        "command": "ldf", "metadata": cfg.metadata(), "rows": rows,
        "rate_function": {"sigma": list(map(float, sigma)),
                          "rate": list(map(float, rf["rate"]))},
        "gallavotti_cohen_defect": float(gc),
        "levy_khintchine_abs_err": lk["abs_error"],
    }
    outdir = Path(cfg.output_dir)
    _write_json(outdir / "ldf.json", payload)
    if "csv" in cfg.formats:
        table = [["sigma", "rate"]] + [[float(s), float(r)]
                                       for s, r in zip(sigma, rf["rate"])]
        _write_csv(outdir / "ldf_rate.csv", table)
    return EXIT_OK


def cmd_converge(cfg: RunConfig, args) -> int:
    exp = cfg.experiment
    ls = read_numbers(exp, "L_values", "experiment", [40.0, 80.0, 160.0])
    try:
        ctxs = [VolumeContext(cfg.profile, L, cfg.v) for L in ls]
    except BoxTooSmall as exc:
        raise ConfigInvalid("experiment.L_values", str(exc)) from exc
    t = read_number(exp, "t", "experiment", 4.0)
    s = read_number(exp, "s", "experiment", 0.25)
    lam = read_number(exp, "lambda", "experiment", 0.2)
    t_psi = read_number(exp, "t_psi", "experiment", 16.0)
    cache = _maybe_cache(cfg, args.cache_dir)
    num = cfg.numerics

    # reference infinite-volume welding data
    ref_welds = cylinder_nodes(cfg.profile, cfg.v, t, "+", [s], num)
    sol_inf = next(ref_welds.solutions())
    lo, hi = ref_welds.xi.support
    pts = np.linspace(lo - 1.0, hi + 1.0, 201)
    ref = sol_inf.xprime_at(pts)

    h_inf = build_h(cfg.profile)
    A = h_inf(np.array(cfg.profile.support[0])).item()
    base_L = ls[0]
    theory = cfg.theory if cfg.theory.model != "central_charge_only" \
        else Theory("free_boson_radius", cfg.theory.c, radius=1.0)
    xerrs = []
    psi_defects = []
    vinf = psi_infinite(cfg.profile, cfg.theory.c, t_psi, lam=lam, v=cfg.v,
                        numerics=num, cache=cache)
    for L, ctx in zip(ls, ctxs):
        n_modes = int(num.n_modes * L / base_L)
        numL = replace(num, n_modes=n_modes)
        welds = torus_nodes(cfg.profile, ctx, t, [s], numL)
        sol = next(welds.solutions())
        h_L = build_h(cfg.profile, ctx)
        oLp = h_L(np.array(cfg.profile.support[0])).item() - A
        # recentered X' of the torus solution at the comparison points
        c_band = welds.grid.band_coefficients(sol.xprime - 1.0, n_modes)
        xl = 1.0 + welds.grid.eval_band(c_band, pts + oLp)
        xerrs.append(float(np.max(np.abs(xl - ref))))
        vfin = psi_finite(cfg.profile, theory, ctx, t_psi, lam=lam,
                          numerics=numL, cache=cache)
        psi_defects.append(abs(vfin.ln_psi - vinf.ln_psi))
    slope = fit_loglog_slope(ls, xerrs)
    payload = {
        "command": "converge", "metadata": cfg.metadata(),
        "L_values": ls, "xprime_sup_errors": xerrs,
        "xprime_slope": float(slope),
        "psi_defects": psi_defects,
        # the box matters once the transported kink images wrap it; past
        # the wrap the defects sit at the solvers' truncation floor
        "psi_wrapped": [bool(2.0 * cfg.v * t_psi >= L) for L in ls],
    }
    outdir = Path(cfg.output_dir)
    _write_json(outdir / "converge.json", payload)
    if "csv" in cfg.formats:
        table = [["L", "xprime_sup_error", "psi_defect"]]
        table += [[L, e, d] for L, e, d in zip(ls, xerrs, psi_defects)]
        _write_csv(outdir / "converge.csv", table)
    return EXIT_OK


def cmd_selftest(cfg, args) -> int:
    results = selftest_mod.run()
    n_pass = sum(1 for r in results if r["status"] == "pass")
    if args.json:
        print(json.dumps({"checks": results,
                          "passed": n_pass, "total": len(results)},
                         sort_keys=True, indent=1))
    else:
        width = max(len(r["name"]) for r in results)
        for r in results:
            defect = "n/a" if r["defect"] is None else f"{r['defect']:.3e}"
            print(f"{r['name']:<{width}}  defect={defect:<9}  "
                  f"tol={r['tolerance']:.1e}  {r['status']}")
        print(f"{n_pass}/{len(results)} checks passed")
    return EXIT_OK if n_pass == len(results) else EXIT_NUMERICAL


COMMANDS = {
    "weld-torus": (cmd_weld_torus, True),
    "weld-cylinder": (cmd_weld_cylinder, True),
    "fcs": (cmd_fcs, True),
    "moments": (cmd_moments, True),
    "ldf": (cmd_ldf, True),
    "converge": (cmd_converge, True),
    "selftest": (cmd_selftest, False),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weldfcs",
        description="Energy-transfer counting statistics via conformal welding")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output (selftest)")
    args = parser.parse_args(argv)

    fn, needs_config = COMMANDS[args.command]
    try:
        cfg = None
        if needs_config:
            if not args.config:
                raise ConfigInvalid("--config", "this command needs a config file")
            cfg = load_config(args.config)
        return fn(cfg, args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WeldFcsError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
