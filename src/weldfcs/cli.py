"""Command-line orchestration: configuration in, tables out.

    weldfcs <command> --config <file> [--threads 1] [--cache-dir D] [--json]

Commands: weld-torus, weld-cylinder, fcs, moments, ldf, converge, selftest.
Outputs are deterministic (no timestamps, sorted keys), so identical
configurations produce byte-identical files.  ``--threads`` accepts only 1:
every command runs in one thread.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .cache import SolveCache, resolve_cache_dir
from .characters import Theory
from .config import (RunConfig, load_config, read_number, read_numbers,
                     read_positive)
from .cylinder_weld import realspace_crosscheck
from .errors import BoxTooSmall, ConfigInvalid, WeldFcsError
from .fcs import (appendix_b_check, cylinder_nodes, ldf, levitov_lesovik,
                  levy_khintchine_check, moments_closed_form, psi_finite,
                  psi_infinite, rate_function, torus_nodes)
from .profile import VolumeContext, build_h
from .spectral import fit_loglog_slope

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    # one write of the whole text: json.dump would write it piece by piece
    text = json.dumps(payload, sort_keys=True, indent=1, separators=(",", ": "))
    path.write_text(text + "\n")


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


def _write_outputs(cfg: RunConfig, stem: str, payload: dict, table=None,
                   csv_stem: str | None = None) -> int:
    """The one output path: ``<stem>.json`` iff ``io.formats`` lists json,
    and the CSV ``table``, if the command has one, as ``<csv_stem>.csv``
    (default ``stem``) iff it lists csv."""
    outdir = Path(cfg.output_dir)
    if "json" in cfg.formats:
        _write_json(outdir / f"{stem}.json", payload)
    if "csv" in cfg.formats and table is not None:
        _write_csv(outdir / f"{csv_stem or stem}.csv", table)
    return EXIT_OK


def _maybe_cache(cfg: RunConfig, cli_dir):
    directory = resolve_cache_dir(cli_dir) or cfg.cache_dir
    return SolveCache(directory) if directory else None


# ----------------------------------------------------------------- commands

def _weld_rows(cfg: RunConfig, welds, s_values, head: dict, npz_name: str,
               arrays, extra=None) -> list:
    """The weld commands' one node loop.  Per node of ``welds``, at the
    flow times ``s_values``: the file ``npz_name.format(s=s)`` holding the
    grid, X', S X and ``arrays(sol)``, and the row
    ``{**head, "s": s, **sol.diagnostics}``, with ``extra(sol)`` if given.
    The nodes go through ``map``, so no solution outlives its row: each
    node is solved once the one before it is freed."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    def row(s, sol):
        np.savez(outdir / npz_name.format(s=s), x=welds.grid.x,
                 xprime=sol.xprime, schwarzian=sol.schwarzian, **arrays(sol))
        diag = {**sol.diagnostics, **(extra(sol) if extra else {})}
        return {**head, "s": s, **{k: _enc(v) for k, v in diag.items()}}

    return list(map(row, s_values, welds.solutions()))


def cmd_weld_torus(cfg: RunConfig, args) -> int:
    exp = cfg.experiment
    ctx = cfg.context()
    t = read_number(exp, "t", "experiment", 0.0)
    s_values = read_numbers(exp, "s_values", "experiment",
                            [read_number(exp, "s", "experiment", 0.25)])
    welds = torus_nodes(cfg.profile, ctx, t, s_values, cfg.numerics)
    rows = _weld_rows(cfg, welds, s_values, {"t": t},
                      f"weld_torus_t{t}_s{{s}}.npz",
                      lambda sol: {"y1_coeff": sol.y1_coeff,
                                   "modes": sol.modes})
    table = [["t", "s", "re_tau_eff", "im_tau_eff", "boundary_eq_1",
              "boundary_eq_2", "tau_two_route"]] + [
        [r["t"], r["s"], r["tau_eff"]["re"], r["tau_eff"]["im"],
         r["boundary_eq_1"], r["boundary_eq_2"], r["tau_two_route"]]
        for r in rows]
    return _write_outputs(cfg, "weld_torus", {
        "command": "weld-torus", "metadata": cfg.metadata(), "rows": rows},
        table)


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
    rows = _weld_rows(cfg, welds, s_values, {"t": t, "mover": mover},
                      f"weld_cylinder_t{t}_s{{s}}_"
                      f"{'p' if mover == '+' else 'm'}.npz",
                      lambda sol: {"zhat": sol.zhat_ext, "p": welds.grid.p},
                      realspace_crosscheck if crosscheck else None)
    return _write_outputs(cfg, "weld_cylinder", {
        "command": "weld-cylinder", "metadata": cfg.metadata(), "rows": rows})


def cmd_fcs(cfg: RunConfig, args) -> int:
    exp = cfg.experiment
    mode = exp.get("mode", "infinite")
    if mode not in ("infinite", "finite", "both"):
        raise ConfigInvalid("experiment.mode", f"unknown mode {mode!r}")
    t_values = read_numbers(exp, "t_values", "experiment", [2.0])
    lam_values = read_numbers(exp, "lambda_values", "experiment", [0.2])
    box = None if mode == "infinite" else cfg.context()
    cache = _maybe_cache(cfg, args.cache_dir)
    num = cfg.numerics

    def eval_node(t, lam):
        row = {"t": t, "lambda": lam}
        if mode in ("infinite", "both"):
            val = psi_infinite(cfg.profile, cfg.theory.c, t, lam=lam,
                               v=cfg.v, numerics=num, cache=cache)
            row.update({"ln_psi": val.ln_psi, "ln_psi_plus": val.ln_psi_plus,
                        "ln_psi_minus": val.ln_psi_minus})
        if box is not None:
            valf = psi_finite(cfg.profile, cfg.theory, box, t, lam=lam,
                              numerics=num, cache=cache)
            row["ln_psi_finite"] = valf.ln_psi
            if mode == "finite":
                row["ln_psi"] = valf.ln_psi
        return row

    entries = [eval_node(t, lam) for t in t_values for lam in lam_values]
    table = [["t", "lambda", "re_lnpsi", "im_lnpsi", "re_lnpsi_plus",
              "im_lnpsi_plus", "re_lnpsi_minus", "im_lnpsi_minus"]]
    for row in entries:
        cells = [row["t"], row["lambda"]]
        for key in ("ln_psi", "ln_psi_plus", "ln_psi_minus"):
            z = row.get(key)
            cells += ["", ""] if z is None else [z.real, z.imag]
        table.append(cells)
    return _write_outputs(cfg, "fcs", {
        "schema": "weldfcs-fcs-1", "t_values": t_values,
        "lambda_values": lam_values,
        "rows": [{k: _enc(v) for k, v in row.items()} for row in entries],
        "metadata": cfg.metadata()}, table)


def cmd_moments(cfg: RunConfig, args) -> int:
    exp = cfg.experiment
    t = read_number(exp, "t", "experiment", 2.0)
    h = read_positive(exp, "fd_step", "experiment", 0.02)
    if t == 0.0:
        raise ConfigInvalid("experiment.t", "t = 0 transfers no energy, so "
                            "the moments have no relative error; use t != 0")
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
    return _write_outputs(cfg, "moments", payload, [
        ["quantity", "closed_form", "pipeline", "rel_err"],
        ["mean", closed["mean"], complex(mean_pipe).real,
         payload["mean_rel_err"]],
        ["variance", closed["variance"], complex(var_pipe).real,
         payload["variance_rel_err"]],
    ])


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
    table = [["sigma", "rate"]] + [[float(s), float(r)]
                                   for s, r in zip(sigma, rf["rate"])]
    return _write_outputs(cfg, "ldf", payload, table, csv_stem="ldf_rate")


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
    theory = cfg.theory
    if theory.model == "central_charge_only":
        # finite volume needs a character: the c = 1 boson's stands in
        try:
            theory = Theory("free_boson_radius", theory.c, radius=1.0)
        except ValueError as exc:
            raise ConfigInvalid("theory.c", f"converge stands the boson in "
                                f"for central_charge_only: {exc}") from exc
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
        xerrs.append(float(np.max(np.abs(sol.xprime_at(pts + oLp) - ref))))
        vfin = psi_finite(cfg.profile, theory, ctx, t_psi, lam=lam,
                          numerics=numL, cache=cache)
        psi_defects.append(abs(vfin.ln_psi - vinf.ln_psi))
    payload = {
        "command": "converge", "metadata": cfg.metadata(),
        "L_values": ls, "xprime_sup_errors": xerrs,
        "xprime_slope": fit_loglog_slope(ls, xerrs),
        "psi_defects": psi_defects,
        # the box matters once the transported kink images wrap it; past
        # the wrap the defects sit at the solvers' truncation floor
        "psi_wrapped": [bool(2.0 * cfg.v * t_psi >= L) for L in ls],
    }
    table = [["L", "xprime_sup_error", "psi_defect"]]
    table += [[L, e, d] for L, e, d in zip(ls, xerrs, psi_defects)]
    return _write_outputs(cfg, "converge", payload, table)


def cmd_selftest(cfg, args) -> int:
    from . import selftest      # the battery loads only for this command
    results = selftest.run()
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
    parser.add_argument("--threads", type=int, default=1,
                        help="accepts only 1: every command runs in one thread")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output (selftest)")
    args = parser.parse_args(argv)

    fn, needs_config = COMMANDS[args.command]
    try:
        if args.threads != 1:
            raise ConfigInvalid("--threads", f"only 1 is supported, got "
                                f"{args.threads}")
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
