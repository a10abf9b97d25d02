"""Tests of the benchmark's output checks, on recorded outputs.

    python3 -m pytest perfbench/test_checks.py

The fixtures are the seed-0 records of each workload (``run.py --keep``).
Every check passes on them, and each perturbed copy below fails the check
that guards against it.  Nothing here welds.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("infinite-moments", "finite-boxes", "warm-grid")
# the commands whose ln Psi the moment and conjugation checks read
OUTPUTS = {"infinite-moments": "moments", "finite-boxes": "box80",
           "warm-grid": "grid"}


def record(workload: str) -> dict:
    return json.loads((HERE / "fixtures" / f"record-{workload}.json")
                      .read_text())


def failing(rec: dict) -> set:
    return {c.name for c in checks.run(rec) if not c.ok}


def edit_rows(text: str, edit) -> str:
    """Apply ``edit(rows)`` to an fcs.json and write it as the CLI does."""
    data = json.loads(text)
    edit(data["rows"])
    return json.dumps(data, sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"


def shift_largest(rows, rel=1e-6):
    row = max(rows, key=lambda r: abs(complex(r["ln_psi"]["re"],
                                              r["ln_psi"]["im"])))
    row["ln_psi"]["re"] *= 1.0 + rel
    row["ln_psi"]["im"] *= 1.0 + rel


def break_conjugation(rows, by=1e-8):
    row = next(r for r in rows if r["lambda"] > 0)
    row["ln_psi"]["im"] += by


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_outputs_pass(workload):
    rec = record(workload)
    assert failing(rec) == set(), [c.line() for c in checks.run(rec)]


def test_edit_rows_reproduces_cli_format():
    rec = record("infinite-moments")
    text = rec["outputs"]["moments"]
    assert edit_rows(text, lambda rows: None) == text


@pytest.mark.parametrize("workload,expected", [
    ("infinite-moments", {"moments.conjugation"}),
    ("finite-boxes", {"box80.conjugation", "boxes_agree"}),
    ("warm-grid", {"warm_equals_cold", "infinite.conjugation"}),
])
def test_lnpsi_shifted_by_1e_6_relative_fails(workload, expected):
    rec = copy.deepcopy(record(workload))
    name = OUTPUTS[workload]
    rec["outputs"][name] = edit_rows(rec["outputs"][name], shift_largest)
    assert expected <= failing(rec)


@pytest.mark.parametrize("workload,expected", [
    ("infinite-moments", {"moments.conjugation"}),
    ("finite-boxes", {"box80.conjugation", "boxes_agree"}),
    ("warm-grid", {"warm_equals_cold"}),
])
def test_conjugation_broken_by_1e_8_fails(workload, expected):
    rec = copy.deepcopy(record(workload))
    name = OUTPUTS[workload]
    rec["outputs"][name] = edit_rows(rec["outputs"][name], break_conjugation)
    assert expected <= failing(rec)


def test_warm_output_one_byte_off_fails():
    rec = copy.deepcopy(record("warm-grid"))
    text = rec["outputs"]["grid"]
    edited = text.replace('"weldfcs-fcs-1"', '"weldfcs-fcs-2"', 1)
    assert sum(a != b for a, b in zip(text, edited)) == 1
    rec["outputs"]["grid"] = edited
    assert failing(rec) == {"warm_equals_cold"}


def test_new_cache_file_after_warm_rerun_fails():
    rec = copy.deepcopy(record("warm-grid"))
    rec["cache_after"].append(["ff/ff.json", 2, 0, "0" * 64])
    assert failing(rec) == {"cache_unchanged"}


def test_rewritten_cache_file_fails():
    rec = copy.deepcopy(record("warm-grid"))
    rec["cache_after"][0][2] += 1       # same bytes, written again
    assert failing(rec) == {"cache_unchanged"}


def test_round_that_differs_fails():
    rec = copy.deepcopy(record("infinite-moments"))
    rec["round_hashes"].append(["0" * 64])
    assert failing(rec) == {"rounds_identical"}


def test_missing_row_is_not_a_pass():
    rec = copy.deepcopy(record("infinite-moments"))
    rec["outputs"]["moments"] = edit_rows(
        rec["outputs"]["moments"], lambda rows: rows.pop())
    with pytest.raises(KeyError):
        checks.run(rec)
