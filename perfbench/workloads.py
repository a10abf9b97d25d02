"""Workload inputs, drawn from a seed.

Each workload is a list of ``weldfcs fcs`` commands plus the configs they
read.  Seed 0 gives the reference inputs; any other seed jitters the kink
temperatures, the times and the counting-parameter magnitudes within narrow
ranges.  The ranges keep every operation solvable and keep the lattice sizes
(cylinder lattice, Nystrom order, torus modes) fixed, so the work per round
does not depend on the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("infinite-moments", "finite-boxes", "warm-grid")

THEORY = {"model": "free_boson_radius", "c": 1.0, "radius": 1.0}

# cylinder numerics of the moments workload: coarser than the acceptance
# suite's LEAN (dx 0.08 against 0.02, p_max_gamma 26 against 33) so a round
# takes seconds; window_factor 3.5 keeps every seed on a 1024-point lattice
MOMENTS_NUMERICS = {"n_modes": 256, "tail_tol": 2e-3, "s_nodes": 4,
                    "dx": 0.08, "window_pad_gamma": 5.0,
                    "window_factor": 3.5, "p_max_gamma": 26.0}
# torus numerics of the box workload: 192 modes per 40 units of length keep
# the two boxes within 1e-11 of each other (160 modes: up to 8e-11)
BOX_NUMERICS = {"tail_tol": 2e-3, "s_nodes": 4}
BOX_MODES = {40.0: 192, 80.0: 384}
# both volumes, light enough that the cold fill stays a set-up cost
WARM_NUMERICS = {"n_modes": 128, "tail_tol": 2e-3, "s_nodes": 4,
                 "dx": 0.08, "window_pad_gamma": 5.0, "window_factor": 4.0,
                 "p_max_gamma": 14.0}

# centre and relative half-width of each seeded range
RANGES = {
    "beta_left": (2.0, 0.01),
    "beta_right": (1.0, 0.01),
    "moments_t": (4.0, 0.02),
    "moments_h": (0.02, 0.1),
    "warm_t1": (1.0, 0.05),
    "warm_t2": (2.0, 0.05),
    "warm_lambda": (0.05, 0.1),
}

# check tolerances (see README.md for the values measured against them)
TOL = {
    "mean_rel": 1e-5,
    "variance_rel": 1e-3,
    "conjugation": 1e-9,
    "boxes": 1e-10,
    "warm_conjugation": 1e-8,
    "finite_vs_infinite": 3e-8,
}


def _draw(rng: random.Random, seed: int, key: str) -> float:
    centre, rel = RANGES[key]
    if seed == 0:
        return centre
    return round(centre * (1.0 + rng.uniform(-rel, rel)), 6)


def _config(kink: dict, L, numerics: dict, mode: str, t_values, lam_values):
    profile = {"center": 0.0, "half_width": 1.0, "shape": "bump", "v": 1.0,
               **kink}
    if L is not None:
        profile["L"] = L
    return {"profile": profile, "theory": dict(THEORY),
            "numerics": dict(numerics),
            "experiment": {"mode": mode, "t_values": list(t_values),
                           "lambda_values": list(lam_values)},
            "io": {"output_dir": "", "formats": ["json", "csv"]}}


def make(workload: str, seed: int) -> dict:
    """Configs, commands and check inputs of one workload at one seed.

    A command names its config, the number of ln Psi rows it requests and
    the number of values those rows deliver (one per row and volume).
    ``fresh_cache`` commands get a new cache directory every round; the
    others share the cache that set-up fills with the ``cold`` config.
    """
    if workload not in WORKLOADS:
        raise KeyError(workload)
    rng = random.Random(f"{workload}:{seed}")
    kink = {"beta_left": _draw(rng, seed, "beta_left"),
            "beta_right": _draw(rng, seed, "beta_right")}
    spec = {"workload": workload, "seed": seed, "cold": None}
    if workload == "infinite-moments":
        t = _draw(rng, seed, "moments_t")
        h = _draw(rng, seed, "moments_h")
        lams = [-2 * h, -h, h, 2 * h]
        spec["configs"] = {"moments": _config(kink, None, MOMENTS_NUMERICS,
                                              "infinite", [t], lams)}
        spec["commands"] = [{"config": "moments", "rows": 4, "values": 4,
                             "fresh_cache": True}]
        spec["inputs"] = {"t": t, "h": h}
    elif workload == "finite-boxes":
        t = _draw(rng, seed, "moments_t")
        h = _draw(rng, seed, "moments_h")
        lams = [-2 * h, -h, h, 2 * h]
        spec["configs"] = {}
        spec["commands"] = []
        for L, n in BOX_MODES.items():
            name = f"box{int(L)}"
            spec["configs"][name] = _config(
                kink, L, {**BOX_NUMERICS, "n_modes": n}, "finite", [t], lams)
            spec["commands"].append({"config": name, "rows": 4, "values": 4,
                                     "fresh_cache": True})
        spec["inputs"] = {"t": t, "h": h}
    else:
        ts = [_draw(rng, seed, "warm_t1"), _draw(rng, seed, "warm_t2")]
        lam = _draw(rng, seed, "warm_lambda")
        spec["configs"] = {"grid": _config(kink, 40.0, WARM_NUMERICS, "both",
                                           ts, [-lam, lam])}
        spec["commands"] = [{"config": "grid", "rows": 4, "values": 8,
                             "fresh_cache": False}]
        spec["cold"] = "grid"
        spec["inputs"] = {"t_values": ts, "lambda": lam}
    return spec
