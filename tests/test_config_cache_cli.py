import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from weldfcs.cache import SolveCache, resolve_cache_dir
from weldfcs.cli import main
from weldfcs.config import config_from_dict
from weldfcs.errors import ConfigInvalid


def base_config(**overrides):
    cfg = {
        "profile": {"beta_left": 2.0, "beta_right": 1.0, "center": 0.0,
                    "half_width": 1.0, "shape": "bump", "L": 40.0, "v": 1.0},
        "theory": {"model": "free_boson_radius", "c": 1.0, "radius": 1.0},
        "numerics": {"n_modes": 128, "tail_tol": 5e-3, "s_nodes": 4,
                     "dx": 0.03, "window_pad_gamma": 6.0,
                     "window_factor": 4.0, "p_max_gamma": 25.0},
        "experiment": {},
        "io": {},
    }
    for key, val in overrides.items():
        cfg[key] = val
    return cfg


def config_blocks():
    """hypothesis, and a function giving the strategy of config blocks over
    some keys, with values of every JSON type and the valid shape and model
    names."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                       st.text(max_size=4),
                       st.sampled_from(["bump", "free_boson_radius",
                                        "free_fermion_c1",
                                        "central_charge_only"]),
                       st.lists(st.one_of(st.sampled_from(["json", "csv"]),
                                          st.integers()), max_size=3))

    def blocks(keys):
        return st.dictionaries(st.sampled_from(keys), values, max_size=3)

    return hypothesis, blocks


class TestConfig:
    def test_roundtrip(self):
        cfg = config_from_dict(base_config())
        assert cfg.profile.beta_left == 2.0
        assert cfg.theory.radius == 1.0
        assert cfg.numerics.n_modes == 128
        meta = cfg.metadata()
        assert meta["profile"]["beta_left"] == 2.0
        assert meta["numerics"]["p_max_gamma"] == 25.0

    def test_missing_required_key(self):
        data = base_config()
        del data["profile"]["beta_left"]
        with pytest.raises(ConfigInvalid, match="beta_left"):
            config_from_dict(data)

    def test_kink_exceeding_quarter_box_names_half_width(self):
        data = base_config()
        data["profile"]["half_width"] = 11.0
        with pytest.raises(ConfigInvalid, match="half_width"):
            config_from_dict(data)

    def test_negative_numeric_rejected(self):
        # with the other malformed numerics: a bool and a fractional count
        for key, value in (("n_modes", -4), ("n_modes", True),
                           ("n_modes", 2.5)):
            data = base_config()
            data["numerics"][key] = value
            with pytest.raises(ConfigInvalid, match=key):
                config_from_dict(data)

    def test_unknown_keys_rejected(self):
        # the torus assembly grid and the condition limits are fixed, so
        # numerics.fine_factor and numerics.cond_limit are unknown keys
        for block, key in (("profile", "betaleft"), ("numerics", "fine_factor"),
                           ("numerics", "cond_limit")):
            data = base_config()
            data[block][key] = 4
            with pytest.raises(ConfigInvalid, match=f"{block}.{key}"):
                config_from_dict(data)

    def test_non_numeric_values_name_their_key(self):
        for block, key, value in (("profile", "center", "left"),
                                  ("profile", "sharpness", "4"),
                                  ("profile", "L", [40.0]),
                                  ("theory", "c", "one"),
                                  ("theory", "radius", "1")):
            data = base_config()
            data[block][key] = value
            with pytest.raises(ConfigInvalid, match=f"{block}.{key}"):
                config_from_dict(data)

    def test_io_and_numerics_blocks_return_or_name_a_key(self):
        # any io / numerics block is either accepted or refused with
        # ConfigInvalid, never with another exception
        hypothesis, blocks = config_blocks()

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(blocks(["n_modes", "tail_tol", "dx", "s_nodes",
                                  "window_factor"]),
                          blocks(["output_dir", "cache_dir", "formats"]))
        def accepted_or_named(nblock, ioblock):
            try:
                config_from_dict(base_config(numerics=nblock, io=ioblock))
            except ConfigInvalid:
                pass

        accepted_or_named()

    def test_profile_and_theory_blocks_return_or_name_a_key(self):
        # any values of the profile and theory keys, over the valid base
        # blocks, are either accepted or refused with ConfigInvalid
        hypothesis, blocks = config_blocks()
        base = base_config()

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(blocks(list(base["profile"]) + ["sharpness"]),
                          blocks(["model", "c", "radius"]))
        def accepted_or_named(pblock, tblock):
            try:
                config_from_dict(base_config(
                    profile={**base["profile"], **pblock},
                    theory={**base["theory"], **tblock}))
            except ConfigInvalid:
                pass

        accepted_or_named()

    def test_bad_theory(self):
        data = base_config()
        data["theory"] = {"model": "free_boson_radius", "c": 1.0}
        with pytest.raises(ConfigInvalid, match="model"):
            config_from_dict(data)


class TestCache:
    def test_scalar_roundtrip(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = ("demo", 1.5, (2, "x"), complex(0.25, -1.0))
        assert cache.get_scalar(key) is None
        cache.put_scalar(key, complex(3.0, -0.5))
        assert cache.get_scalar(key) == complex(3.0, -0.5)
        cache.put_scalar(("tuple",), (complex(1, 2), complex(3, 4)))
        assert cache.get_scalar(("tuple",)) == (complex(1, 2), complex(3, 4))

    def test_numpy_scalars_key_and_round_trip_as_python_numbers(
            self, tmp_path):
        # a key maps to the same record whether its numbers are Python or
        # numpy scalars (a float t iterated from an array is np.float64),
        # bools stay apart from the ints they equal, and a record written
        # with numpy scalars reads back as the equal Python value
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        cache = SolveCache(tmp_path)
        numbers = st.one_of(st.booleans(), st.integers(-2 ** 62, 2 ** 62),
                            st.floats(allow_nan=False),
                            st.complex_numbers(allow_nan=False))
        as_numpy = {bool: np.bool_, int: np.int64, float: np.float64,
                    complex: np.complex128}

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.lists(numbers, max_size=4),
                          st.one_of(st.complex_numbers(allow_nan=False),
                                    st.tuples(st.complex_numbers(
                                        allow_nan=False), st.floats(
                                        allow_nan=False))))
        def prop(items, value):
            key = ("node", *items)
            swapped = ("node", *(as_numpy[type(x)](x) for x in items))
            assert cache._path(swapped) == cache._path(key)
            for x in items:
                if isinstance(x, bool):
                    assert cache._path(("b", x)) != cache._path(("b", int(x)))
            stored = (tuple(as_numpy[type(v)](v) for v in value)
                      if isinstance(value, tuple) else np.complex128(value))
            cache.put_scalar(swapped, stored)
            assert cache.get_scalar(key) == value

        prop()

    def test_record_of_previous_version_is_a_miss(self, tmp_path):
        cache = SolveCache(tmp_path)
        key = ("node", 1.0)
        cache.put_scalar(key, 2.0)
        path = Path(cache._path(key))
        record = json.loads(path.read_text())
        assert record["version"] == "weldfcs-cache-9"
        record["version"] = "weldfcs-cache-8"
        path.write_text(json.dumps(record))
        assert cache.get_scalar(key) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_counterterms_computed_once_per_time(self, tmp_path, monkeypatch,
                                                 kink, box):
        # the counterterms depend on t but not on lambda: one quadrature per
        # (t, mover) and per finite-volume time, and none on a warm cache
        from weldfcs import Theory, fcs
        calls = []
        for name in ("counterterm_mover", "counterterm_finite"):
            orig = getattr(fcs, name)
            monkeypatch.setattr(fcs, name, lambda *a, _f=orig, _n=name:
                                calls.append(_n) or _f(*a))
        num = fcs.Numerics(n_modes=128, tail_tol=2e-3, s_nodes=2, dx=0.08,
                           window_pad_gamma=5.0, window_factor=4.0,
                           p_max_gamma=14.0)
        theory = Theory("free_boson_radius", 1.0, radius=1.0)
        cache = SolveCache(tmp_path)

        def run():
            return [(fcs.psi_infinite(kink, 1.0, 1.0, lam=lam, numerics=num,
                                      cache=cache).ln_psi,
                     fcs.psi_finite(kink, theory, box, 1.0, lam=lam,
                                    numerics=num, cache=cache).ln_psi)
                    for lam in (-0.05, 0.05)]

        cold = run()
        assert sorted(calls) == ["counterterm_finite"] * 2 \
            + ["counterterm_mover"] * 2
        warm = run()
        assert len(calls) == 4
        assert warm == cold
        assert cold[0][0] == fcs.psi_infinite(kink, 1.0, 1.0, lam=-0.05,
                                              numerics=num).ln_psi

    @pytest.mark.parametrize("volume", ["infinite", "finite"])
    def test_partly_warm_cache_gives_cold_bits(self, tmp_path, kink, box,
                                               volume):
        # delete the record of the smallest-|s| node: the rerun solves that
        # node alone, and must land on the grid and flows of the whole set
        from weldfcs import Theory, fcs
        num = fcs.Numerics(n_modes=128, tail_tol=2e-3, s_nodes=4, dx=0.08,
                           window_pad_gamma=5.0, window_factor=3.5,
                           p_max_gamma=14.0)
        theory = Theory("free_boson_radius", 1.0, radius=1.0)
        cache = SolveCache(tmp_path)

        def run():
            if volume == "infinite":
                return fcs.psi_infinite(kink, 1.0, 2.0, lam=0.2,
                                        numerics=num, cache=cache)
            return fcs.psi_finite(kink, theory, box, 2.0, lam=0.2,
                                  numerics=num, cache=cache)

        cold = run()
        nodes, _ = fcs._gl_nodes(cold.s_end, num.s_nodes, num.s_panels)
        s_min = float(nodes[np.argmin(np.abs(nodes))])
        extent = float(np.max(np.abs(nodes)))
        key = (("cyl_action", kink.key(), 1.0, 2.0, "+", s_min, extent,
                num.key())
               if volume == "infinite" else
               ("torus_node", kink.key(), box.key(), 2.0, s_min, num.key()))
        os.remove(cache._path(key))
        assert cache.get_scalar(key) is None
        assert run().ln_psi == cold.ln_psi
        assert cache.get_scalar(key) is not None

    def test_node_on_another_window_is_a_miss(self, tmp_path, kink):
        # a cylinder node's value depends on the window its set's largest
        # |s| sizes: a cache filled by the set {s, 4 s} must not serve s on
        # the narrower window of the set {s}
        from weldfcs import fcs
        num = fcs.Numerics(dx=0.08, window_pad_gamma=5.0, window_factor=3.5,
                           p_max_gamma=14.0)
        cache = SolveCache(tmp_path)
        fcs._mover_action_nodes(kink, 2.0, 1.0, "+", [0.1, 0.4], num, cache)
        alone = fcs._mover_action_nodes(kink, 2.0, 1.0, "+", [0.1], num, cache)
        assert (cache.hits, cache.misses) == (0, 3)
        cold = fcs._mover_action_nodes(kink, 2.0, 1.0, "+", [0.1], num)
        assert alone[0] == cold[0]

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put_scalar(("a", 1.0), 1.0)
        cache.put_scalar(("a", 1.0000000001), 2.0)
        assert cache.get_scalar(("a", 1.0)) == 1.0

    def test_writers_of_one_key_use_distinct_temp_files(self, monkeypatch,
                                                        tmp_path):
        sources = []
        replace = os.replace

        def recording_replace(src, dst):
            sources.append(str(src))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        cache = SolveCache(tmp_path)
        cache.put_scalar(("k",), 1.0)
        cache.put_scalar(("k",), 2.0)
        assert len(sources) == 2 and sources[0] != sources[1]
        assert not list(tmp_path.rglob("*.tmp"))
        assert cache.get_scalar(("k",)) == 2.0

    def test_concurrent_writers_of_one_key(self, tmp_path):
        cache = SolveCache(tmp_path)
        errors = []

        def write(value):
            try:
                for _ in range(25):
                    cache.put_scalar(("shared",), value)
            except Exception as exc:   # noqa: BLE001 - collected and asserted
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(float(i),))
                       for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors
        assert cache.get_scalar(("shared",)) in {float(i) for i in range(8)}
        assert not list(tmp_path.rglob("*.tmp"))

    def test_env_var_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WELDFCS_CACHE", str(tmp_path))
        assert resolve_cache_dir(None) == str(tmp_path)
        assert resolve_cache_dir("explicit") == "explicit"


def run_cli(args):
    return main(args)


class TestCli:
    def test_selftest_is_separate_command(self, capsys, monkeypatch):
        # no config needed; the text table ends in the pass count
        from weldfcs import selftest
        monkeypatch.setattr(selftest, "CHECKS", [("ok", 1e-12, lambda: 0.0)])
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["ok", "defect=0.000e+00", "tol=1.0e-12",
                                  "pass"]
        assert out[-1] == "1/1 checks passed"

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base_config(profile={"beta_left": 2.0})))
        code = run_cli(["ldf", "--config", str(bad)])
        assert code == 2

    def test_non_numeric_values_exit_2_naming_the_key(self, tmp_path,
                                                      capsys):
        # with values out of range: a finite-difference step <= 0, a box
        # that cannot hold the kink and a crosscheck flag that is not a bool
        for command, block, key, value in (
                ("ldf", "profile", "center", "left"),
                ("fcs", "experiment", "t_values", ["x"]),
                ("moments", "experiment", "fd_step", "small"),
                ("moments", "experiment", "fd_step", 0),
                ("moments", "experiment", "fd_step", -0.02),
                ("converge", "experiment", "L_values", [40.0, 3.0]),
                ("ldf", "experiment", "lambda_values", []),
                ("ldf", "io", "formats", 3),
                ("ldf", "io", "formats", "json"),
                ("ldf", "io", "output_dir", 3),
                ("ldf", "io", "cache_dir", ["c"]),
                ("ldf", "numerics", "dx", float("inf")),
                ("ldf", "numerics", "tail_tol", float("nan")),
                ("ldf", "numerics", "window_factor", 10 ** 400),
                ("fcs", "numerics", "dx", 1e308),
                ("weld-cylinder", "experiment", "crosscheck", "false"),
                ("weld-cylinder", "experiment", "crosscheck", 0)):
            data = base_config()
            # a command that is not refused writes here, not into the cwd
            data["io"] = {"output_dir": str(tmp_path / "out")}
            data[block][key] = value
            cfg_path = tmp_path / f"{key}.json"
            cfg_path.write_text(json.dumps(data))
            assert run_cli([command, "--config", str(cfg_path)]) == 2
            assert f"{block}.{key}" in capsys.readouterr().err

    def test_missing_config_flag(self):
        assert run_cli(["fcs"]) == 2

    def test_ldf_command(self, tmp_path):
        data = base_config()
        data["experiment"] = {"lambda_values": [0.2, 0.4],
                              "sigma_values": [-1.0, 0.0, 1.0]}
        data["io"] = {"output_dir": str(tmp_path)}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli(["ldf", "--config", str(cfg_path)]) == 0
        payload = json.loads((tmp_path / "ldf.json").read_text())
        assert payload["gallavotti_cohen_defect"] < 1e-10
        assert payload["levy_khintchine_abs_err"] < 1e-8
        assert (tmp_path / "ldf_rate.csv").read_text().splitlines()[0] \
            == "sigma,rate"

    def test_selftest_json_reports_a_raising_check_as_null(self, capsys,
                                                           monkeypatch):
        from weldfcs import selftest

        def broken():
            raise RuntimeError("boom")

        monkeypatch.setattr(selftest, "CHECKS", [("broken", 1e-12, broken)])
        code = run_cli(["selftest", "--json"])

        def no_constants(name):
            raise ValueError(f"non-JSON constant {name}")

        report = json.loads(capsys.readouterr().out,
                            parse_constant=no_constants)
        assert report["checks"][0]["defect"] is None
        assert report["checks"][0]["status"].startswith("error")
        assert code == 3

    def test_weld_torus_command(self, tmp_path):
        data = base_config()
        data["experiment"] = {"t": 1.0, "s_values": [0.2]}
        outdir = tmp_path / "fresh" / "out"
        data["io"] = {"output_dir": str(outdir)}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli(["weld-torus", "--config", str(cfg_path)]) == 0
        payload = json.loads((outdir / "weld_torus.json").read_text())
        row = payload["rows"][0]
        assert row["tau_two_route"] < 1e-9
        assert row["tau_eff"]["im"] > 0
        assert (outdir / "weld_torus_t1.0_s0.2.npz").exists()

    def test_weld_cylinder_command(self, tmp_path):
        data = base_config()
        data["numerics"] = {"dx": 0.08, "window_pad_gamma": 5.0,
                            "window_factor": 3.5, "p_max_gamma": 14.0}
        data["experiment"] = {"t": 1.0, "s_values": [-0.1, 0.2]}
        outdir = tmp_path / "fresh" / "out"
        data["io"] = {"output_dir": str(outdir)}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli(["weld-cylinder", "--config", str(cfg_path)]) == 0
        payload = json.loads((outdir / "weld_cylinder.json").read_text())
        assert [row["s"] for row in payload["rows"]] == [-0.1, 0.2]
        for row in payload["rows"]:
            assert row["xprime_min_abs"] > 0
        assert (outdir / "weld_cylinder_t1.0_s0.2_p.npz").exists()

    def test_converge_command(self, tmp_path):
        # two boxes, light numerics: 2 v t_psi = 24 wraps L=20 but not L=40
        data = base_config()
        data["numerics"] = {"n_modes": 64, "tail_tol": 5e-3, "s_nodes": 4,
                            "dx": 0.08, "window_pad_gamma": 5.0,
                            "window_factor": 3.5, "p_max_gamma": 14.0}
        data["experiment"] = {"L_values": [20.0, 40.0], "t": 2.0, "s": 0.2,
                              "lambda": 0.2, "t_psi": 12.0}
        outdir = tmp_path / "out"
        data["io"] = {"output_dir": str(outdir)}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli(["converge", "--config", str(cfg_path)]) == 0
        payload = json.loads((outdir / "converge.json").read_text())
        assert payload["L_values"] == [20.0, 40.0]
        assert payload["psi_wrapped"] == [True, False]
        assert "psi_monotone" not in payload
        assert len(payload["psi_defects"]) == 2
        assert len(payload["xprime_sup_errors"]) == 2

    def test_fcs_determinism_and_cache_equivalence(self, tmp_path):
        data = base_config()
        data["numerics"] = {"n_modes": 96, "tail_tol": 5e-3, "s_nodes": 4,
                            "dx": 0.04, "window_pad_gamma": 5.0,
                            "window_factor": 4.0, "p_max_gamma": 20.0}
        data["experiment"] = {"mode": "infinite", "t_values": [1.0],
                              "lambda_values": [0.15]}
        outputs = {}
        for tag in ("one", "two", "cached"):
            outdir = tmp_path / tag
            data["io"] = {"output_dir": str(outdir)}
            if tag == "cached":
                data["io"]["cache_dir"] = str(tmp_path / "cache")
            cfg_path = tmp_path / f"{tag}.json"
            cfg_path.write_text(json.dumps(data))
            assert run_cli(["fcs", "--config", str(cfg_path)]) == 0
            if tag == "cached":   # warm the cache and rerun
                assert run_cli(["fcs", "--config", str(cfg_path)]) == 0
            outputs[tag] = (outdir / "fcs.json").read_bytes()
        assert outputs["one"] == outputs["two"]
        json_one = json.loads(outputs["one"])
        json_cached = json.loads(outputs["cached"])
        assert json_one["rows"] == json_cached["rows"]
        csv_text = (tmp_path / "one" / "fcs.csv").read_text()
        assert csv_text.splitlines()[0] == ("t,lambda,re_lnpsi,im_lnpsi,"
                                            "re_lnpsi_plus,im_lnpsi_plus,"
                                            "re_lnpsi_minus,im_lnpsi_minus")

    def test_fcs_unbounded_lattice_exits_3(self, tmp_path, capsys):
        # lambda = 1e6 drifts the cylinder window to M = 2^27 under the
        # benchmark's cylinder numerics; the node is refused before the
        # lattice or its Nystrom matrix is allocated
        data = base_config()
        data["numerics"] = {"n_modes": 256, "tail_tol": 2e-3, "s_nodes": 4,
                            "dx": 0.08, "window_pad_gamma": 5.0,
                            "window_factor": 3.5, "p_max_gamma": 26.0}
        data["experiment"] = {"mode": "infinite", "t_values": [4.0],
                              "lambda_values": [1e6]}
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "NodeTooLarge" in err
        assert f"{2 ** 27}-point lattice" in err

    @pytest.mark.parametrize("mode,key,value", [
        ("infinite", "window_factor", 1e308), ("finite", "n_modes", 2 ** 14)])
    def test_fcs_node_over_budget_exits_3_unallocated(
            self, tmp_path, capsys, monkeypatch, mode, key, value):
        # an unbounded cylinder window and a 40 GiB torus node are refused
        # before any flow runs or any array is allocated
        data = base_config()
        data["numerics"][key] = value
        data["experiment"] = {"mode": mode, "t_values": [4.0],
                              "lambda_values": [0.02]}
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))

        def no_flows(*args, **kwargs):
            raise AssertionError("flowed before the size check")

        monkeypatch.setattr("weldfcs.profile.flow_family", no_flows)
        monkeypatch.setattr("weldfcs.fcs.flow_family", no_flows)
        tracemalloc.start()
        try:
            assert run_cli(["fcs", "--config", str(cfg_path)]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 24
        assert "NodeTooLarge" in capsys.readouterr().err

    @pytest.mark.parametrize("mode,solver", [("infinite", "solve_cylinder"),
                                             ("finite", "solve_Y1")])
    def test_fcs_out_of_memory_exits_3_naming_the_node(
            self, tmp_path, capsys, monkeypatch, mode, solver):
        # a MemoryError below the budget is a numerical failure of its node
        data = base_config()
        data["experiment"] = {"mode": mode, "t_values": [4.0],
                              "lambda_values": [0.02]}
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))

        def out_of_memory(problem):
            raise MemoryError

        monkeypatch.setattr(f"weldfcs.fcs.{solver}", out_of_memory)
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        volume = "cylinder" if mode == "infinite" else "torus"
        assert f"NodeTooLarge: {volume} node at t = 4, s = " in err
        assert "ran out of memory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["infinite", "finite"])
    def test_fcs_out_of_memory_in_flows_exits_3_naming_the_set(
            self, tmp_path, capsys, monkeypatch, mode):
        # a MemoryError while a node set's flows are built exits 3 as well
        data = base_config()
        data["experiment"] = {"mode": mode, "t_values": [4.0],
                              "lambda_values": [0.02]}
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("weldfcs.profile.flow_family", out_of_memory)
        monkeypatch.setattr("weldfcs.fcs.flow_family", out_of_memory)
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        volume = "cylinder" if mode == "infinite" else "torus"
        assert f"NodeTooLarge: {volume} flows at t = 4 on a " in err
        assert "ran out of memory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["infinite", "finite"])
    def test_fcs_out_of_memory_sampling_the_field_exits_3(
            self, tmp_path, capsys, monkeypatch, mode):
        # a MemoryError while a node set's transport field is sampled, which
        # the action integrals read outside the node solves, exits 3 too
        data = base_config()
        data["experiment"] = {"mode": mode, "t_values": [4.0],
                              "lambda_values": [0.02]}
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))

        def out_of_memory(self, y):
            raise MemoryError

        monkeypatch.setattr("weldfcs.profile.XiField.__call__", out_of_memory)
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        volume = "cylinder" if mode == "infinite" else "torus"
        assert f"NodeTooLarge: {volume} field at t = 4 on a " in err
        assert "ran out of memory" in err
        assert "Traceback" not in err

    def test_fcs_over_nyquist_cutoff_exits_2(self, tmp_path, capsys,
                                            monkeypatch):
        # p_max = 200 / gamma is above pi / dx on the dx = 0.08 lattice; the
        # node set is refused before any flow runs
        data = base_config()
        data["numerics"] = {"n_modes": 256, "tail_tol": 2e-3, "s_nodes": 4,
                            "dx": 0.08, "window_pad_gamma": 5.0,
                            "window_factor": 3.5, "p_max_gamma": 200.0}
        data["experiment"] = {"mode": "infinite", "t_values": [4.0],
                              "lambda_values": [0.02]}
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))

        def no_flows(*args, **kwargs):
            raise AssertionError("flowed before the cutoff check")

        monkeypatch.setattr("weldfcs.profile.flow_family", no_flows)
        monkeypatch.setattr("weldfcs.fcs.flow_family", no_flows)
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "numerics.p_max_gamma" in err
        assert "Nyquist" in err

    def test_fcs_cutoff_below_first_momentum_exits_2(self, tmp_path, capsys,
                                                     monkeypatch):
        # p_max = 1e-6 / gamma is below dp / 2, the least |p| of the solve
        # lattice, so the Nystrom correction would be empty; the node set is
        # refused before any flow runs
        data = base_config()
        data["numerics"]["p_max_gamma"] = 1e-6
        data["experiment"] = {"mode": "infinite", "t_values": [4.0],
                              "lambda_values": [0.02]}
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))

        def no_flows(*args, **kwargs):
            raise AssertionError("flowed before the cutoff check")

        monkeypatch.setattr("weldfcs.profile.flow_family", no_flows)
        monkeypatch.setattr("weldfcs.fcs.flow_family", no_flows)
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "numerics.p_max_gamma" in err
        assert "first solve momentum" in err

    def test_fcs_threads_match_serial(self, tmp_path):
        data = base_config()
        data["numerics"] = {"n_modes": 96, "tail_tol": 5e-3, "s_nodes": 4,
                            "dx": 0.04, "window_pad_gamma": 5.0,
                            "window_factor": 4.0, "p_max_gamma": 20.0}
        data["experiment"] = {"mode": "infinite", "t_values": [1.0, 1.5],
                              "lambda_values": [0.15]}
        blobs = {}
        for tag, threads in (("ser", "1"), ("par", "2")):
            outdir = tmp_path / tag
            data["io"] = {"output_dir": str(outdir)}
            cfg_path = tmp_path / f"{tag}.json"
            cfg_path.write_text(json.dumps(data))
            assert run_cli(["fcs", "--config", str(cfg_path),
                            "--threads", threads]) == 0
            blobs[tag] = (outdir / "fcs.json").read_bytes()
        assert blobs["ser"] == blobs["par"]

    def test_console_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "weldfcs.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "weldfcs" in out.stdout
