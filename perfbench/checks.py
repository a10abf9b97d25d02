"""Correctness checks on the outputs of one benchmark run.

Everything here is plain Python on the recorded outputs, so the checks run
(and are tested) without welding anything.  A *record* holds:

- ``workload``, ``inputs``: the workload name and its seeded inputs;
- ``outputs``: the text of each command's ``fcs.json`` from the first round;
- ``round_hashes``: per round, the sha256 of each command's ``fcs.json``;
- ``closed``: per command, the closed-form mean and variance (moment
  workloads);
- ``cold``, ``cache_before``, ``cache_after``: the cold ``fcs.json`` and the
  cache listings around the warm reruns (``warm-grid``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from workloads import TOL


@dataclass
class Check:
    name: str
    ok: bool
    measured: float | str
    tol: float | str

    def line(self) -> str:
        def fmt(x):
            return f"{x:.3e}" if isinstance(x, float) else str(x)
        status = "PASS" if self.ok else "FAIL"
        return (f"[{status}] {self.name}  measured={fmt(self.measured)} "
                f"tol={fmt(self.tol)}")


def _bound(name: str, measured: float, tol: float) -> Check:
    # written so that NaN fails
    return Check(name, bool(measured <= tol), float(measured), tol)


def ln_psi(text: str, key: str = "ln_psi") -> dict:
    """ln Psi values of an ``fcs.json`` keyed by (t, lambda)."""
    out = {}
    for row in json.loads(text)["rows"]:
        z = row[key]
        out[(row["t"], row["lambda"])] = complex(z["re"], z["im"])
    return out


def moments(vals: dict, t: float, h: float) -> tuple[complex, complex]:
    """Mean and variance from the 4-point finite differences of ln Psi."""
    v = {k: vals[(t, k * h)] for k in (-2, -1, 1, 2)}
    mean = (8 * (v[1] - v[-1]) - (v[2] - v[-2])) / (12 * h) / 1j
    var = -(16 * (v[1] + v[-1]) - (v[2] + v[-2])) / (12 * h ** 2)
    return mean, var


def conjugation_defect(vals: dict) -> float:
    """max |ln Psi(t, -lambda) - conj ln Psi(t, lambda)| over the pairs."""
    defects = [abs(vals[(t, -lam)] - z.conjugate())
               for (t, lam), z in vals.items() if lam > 0]
    return max(defects) if defects else float("nan")


def _moment_checks(record: dict, name: str, vals: dict) -> list[Check]:
    inputs = record["inputs"]
    closed = record["closed"][name]
    mean, var = moments(vals, inputs["t"], inputs["h"])
    return [
        _bound(f"{name}.mean_vs_closed_form",
               abs(mean - closed["mean"]) / abs(closed["mean"]),
               TOL["mean_rel"]),
        _bound(f"{name}.variance_vs_closed_form",
               abs(var - closed["variance"]) / abs(closed["variance"]),
               TOL["variance_rel"]),
        _bound(f"{name}.conjugation", conjugation_defect(vals),
               TOL["conjugation"]),
    ]


def _rounds_identical(record: dict) -> Check:
    hashes = record["round_hashes"]
    differing = sum(1 for h in hashes if h != hashes[0])
    return Check("rounds_identical", bool(hashes) and differing == 0,
                 f"{differing} of {len(hashes)} rounds differ", "0")


def run(record: dict) -> list[Check]:
    """Every check that applies to the record's workload."""
    workload = record["workload"]
    outputs = record["outputs"]
    checks = [_rounds_identical(record)]
    if workload == "infinite-moments":
        checks += _moment_checks(record, "moments", ln_psi(outputs["moments"]))
    elif workload == "finite-boxes":
        boxes = {name: ln_psi(text) for name, text in outputs.items()}
        for name, vals in boxes.items():
            checks += _moment_checks(record, name, vals)
        v40, v80 = boxes["box40"], boxes["box80"]
        checks.append(_bound(
            "boxes_agree",
            max(abs(v40[k] - v80[k]) for k in v40) if v40.keys() == v80.keys()
            else float("nan"), TOL["boxes"]))
    elif workload == "warm-grid":
        warm = outputs["grid"]
        checks.append(Check("warm_equals_cold", warm == record["cold"],
                            "identical" if warm == record["cold"] else "differ",
                            "byte-identical"))
        same = record["cache_before"] == record["cache_after"]
        checks.append(Check("cache_unchanged", same,
                            f"{len(record['cache_after'])} files, "
                            + ("unchanged" if same else "changed"),
                            "unchanged"))
        inf, fin = ln_psi(warm), ln_psi(warm, "ln_psi_finite")
        checks.append(_bound("infinite.conjugation", conjugation_defect(inf),
                             TOL["warm_conjugation"]))
        checks.append(_bound("finite.conjugation", conjugation_defect(fin),
                             TOL["warm_conjugation"]))
        checks.append(_bound("finite_vs_infinite",
                             max(abs(inf[k] - fin[k]) for k in inf),
                             TOL["finite_vs_infinite"]))
    else:
        raise KeyError(workload)
    return checks
