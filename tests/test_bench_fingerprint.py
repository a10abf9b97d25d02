"""The benchmark's seed-0 ln Psi, bit for bit: every workload's configs from
``perfbench/workloads.py`` run through ``weldfcs.cli.main`` and printed by
``perfbench/run.py``'s own fingerprint printer."""

import importlib.util
import sys
from pathlib import Path

import pytest

from weldfcs.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))      # run.py imports its siblings by name
_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               PERFBENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

# the fingerprint lines of BENCH_band-edge-check.json, one list per workload
FINGERPRINT = {
    "infinite-moments": [
        "lnpsi moments ln_psi t=4.0 lambda=-0.04: -0.0018386288835806753 0.02944452340462747",
        "lnpsi moments ln_psi t=4.0 lambda=-0.02: -0.0004603056350742219 0.01474820365540428",
        "lnpsi moments ln_psi t=4.0 lambda=0.02: -0.0004603056326409966 -0.014748203656539671",
        "lnpsi moments ln_psi t=4.0 lambda=0.04: -0.0018386288621365175 -0.029444523422717625",
    ],
    "finite-boxes": [
        "lnpsi box40 ln_psi t=4.0 lambda=-0.04: -0.001838628797847975 0.029444523418238056",
        "lnpsi box40 ln_psi t=4.0 lambda=-0.02: -0.00046030561286826026 0.014748203666599183",
        "lnpsi box40 ln_psi t=4.0 lambda=0.02: -0.00046030561253878493 -0.014748203666518345",
        "lnpsi box40 ln_psi t=4.0 lambda=0.04: -0.0018386287958589683 -0.02944452341709788",
        "lnpsi box80 ln_psi t=4.0 lambda=-0.04: -0.001838628792595216 0.029444523415408635",
        "lnpsi box80 ln_psi t=4.0 lambda=-0.02: -0.0004603056115819551 0.014748203666401585",
        "lnpsi box80 ln_psi t=4.0 lambda=0.02: -0.0004603056116466229 -0.01474820366639425",
        "lnpsi box80 ln_psi t=4.0 lambda=0.04: -0.0018386287934244274 -0.029444523415329438",
    ],
    "warm-grid": [
        "lnpsi grid ln_psi t=1.0 lambda=-0.05: -0.0006616755651706384 0.0073707314432028565",
        "lnpsi grid ln_psi t=1.0 lambda=0.05: -0.0006616742704071202 -0.0073707322749829475",
        "lnpsi grid ln_psi t=2.0 lambda=-0.05: -0.0014005754442279416 0.017183404591364897",
        "lnpsi grid ln_psi t=2.0 lambda=0.05: -0.0014005746661925943 -0.01718340523693053",
        "lnpsi grid ln_psi_finite t=1.0 lambda=-0.05: -0.0006616703188533976 0.007370729581872129",
        "lnpsi grid ln_psi_finite t=1.0 lambda=0.05: -0.0006616694132147341 -0.007370729152683633",
        "lnpsi grid ln_psi_finite t=2.0 lambda=-0.05: -0.0014005705180022844 0.01718340261515589",
        "lnpsi grid ln_psi_finite t=2.0 lambda=0.05: -0.0014005697139255898 -0.017183402217192556",
    ],
}


@pytest.mark.parametrize("workload", sorted(FINGERPRINT))
def test_seed0_fingerprint_is_reproduced(tmp_path, capsys, workload):
    outputs = {}
    for name, config in run.workloads.make(workload, 0)["configs"].items():
        cfg_path = tmp_path / f"{name}.json"
        run.write_config(cfg_path, config, tmp_path / "out" / name)
        assert main(["fcs", "--config", str(cfg_path), "--cache-dir",
                     str(tmp_path / "cache" / name)]) == 0
        outputs[name] = (tmp_path / "out" / name / "fcs.json").read_text()
    capsys.readouterr()
    run.print_fingerprint({"outputs": outputs})
    assert capsys.readouterr().out.splitlines() == FINGERPRINT[workload]
