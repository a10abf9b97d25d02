import copy
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from weldfcs import (Numerics, TemperatureProfile, Theory, cylinder_nodes,
                     fcs, realspace_crosscheck)
from weldfcs.cache import SolveCache, _canonical, resolve_cache_dir
from weldfcs.cli import main
from weldfcs.config import config_from_dict, load_config
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


def child_env() -> dict:
    """This environment with the imported weldfcs's source root first on
    PYTHONPATH, so a child process imports the same package."""
    import weldfcs
    src = str(Path(weldfcs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


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
        assert (cache.hits, cache.misses) == (0, 1)
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
        assert record["version"] == "weldfcs-cache-16"
        record["version"] = "weldfcs-cache-15"
        path.write_text(json.dumps(record))
        assert cache.get_scalar(key) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_key_strings_are_pinned(self):
        # the strings that name every record: a change to any of them
        # orphans existing caches, so they are pinned as the canonical form
        # wrote them before its exact-type fast paths.  A stub cache serves
        # every read, so the keys are the ones ln Psi asks for, and nothing
        # is welded
        from weldfcs import VolumeContext, fcs
        p = TemperatureProfile(2.0, 1.0, 0.25, 1.5, sharpness=5.0)
        num = Numerics(n_modes=128, tail_tol=2e-3, s_nodes=4, dx=0.08)
        theory = Theory("free_boson_radius", 1.0, radius=1.0)
        keys = []

        class Served:
            def get_scalar(self, key):
                keys.append(_canonical(key))
                return {"tau0": 0.1j, "ct_mover": 0.0,
                        "ct_finite": 0.0}.get(key[0], (0j, 0j))

        cache = Served()
        fcs.psi_infinite(p, 1.0, np.float64(2.0), numerics=num, cache=cache,
                         by_s=np.float64(-0.1) / 3)
        fcs.psi_finite(p, theory, VolumeContext(p, 40.0), 1.0, numerics=num,
                       cache=cache, by_s=0.0123456789)
        mixed = ("mixed", np.int64(-7), np.bool_(True),
                 np.complex128(1.5 - 0.25j), True, False, None, -0.0,
                 float("inf"), [1, [2.5, "x"], ()], complex(-0.0, 1e-300))
        prof = "('profile',2.0,1.0,0.25,1.5,'bump',5.0"
        box = f"{prof},'L',40.0,'v',1.0)"
        nums = "('numerics',128,0.002,0.08,12.0,8.0,40.0,4,1)"
        assert keys == [
            f"('cyl_flow',{prof}),1.0,2.0,'+',-0.03333333333333333,{nums})",
            f"('ct_mover',{prof}),2.0,1.0,1.0,'+')",
            f"('cyl_flow',{prof}),1.0,2.0,'-',-0.03333333333333333,{nums})",
            f"('ct_mover',{prof}),2.0,1.0,1.0,'-')",
            f"('tau0',{box})",
            f"('torus_flow',{box},1.0,0.0123456789,{nums})",
            f"('ct_finite',{box},1.0,1.0)",
            f"('ct_finite',{box},0.0,1.0)"]
        assert _canonical(mixed) == (
            "('mixed',-7,True,(1.5+-0.25j),True,False,None,-0.0,inf,"
            "(1,(2.5,'x'),()),(-0.0+1e-300j))")

    @pytest.mark.parametrize("obj", [
        TemperatureProfile(2.0, 1.0), Numerics(),
        Theory("free_boson_radius", 1.0, 1.0)],
        ids=lambda obj: type(obj).__name__)
    def test_every_field_enters_the_key(self, obj):
        # a field the key left out would let two runs that differ in it
        # share cache records; validation is bypassed, so each field takes
        # a new value of its own type
        for f in fields(obj):
            other = copy.copy(obj)
            old = getattr(obj, f.name)
            object.__setattr__(other, f.name,
                               old + ("x" if isinstance(old, str) else 1))
            assert other.key() != obj.key(), f.name

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
        # delete the - mover's flow record (or the box's): the rerun
        # recomputes that record alone and lands on the cold bits
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
        key = (("cyl_flow", kink.key(), 1.0, 2.0, "-", cold.s_end, num.key())
               if volume == "infinite" else
               ("torus_flow", box.key(), 2.0, cold.s_end, num.key()))
        os.remove(cache._path(key))
        assert cache.get_scalar(key) is None
        puts = []
        put = cache.put_scalar
        cache.put_scalar = lambda k, v: puts.append(k) or put(k, v)
        misses = cache.misses
        assert run().ln_psi == cold.ln_psi
        assert puts == [key] and cache.misses == misses + 1
        assert cache.get_scalar(key) is not None

    def test_node_on_another_window_is_a_miss(self, tmp_path, kink):
        # a flow integral's nodes, and on the line the window its largest
        # node sizes, follow from s_end: integrals at two s_end never share
        # a record, and each equals its cold value
        from weldfcs import InfiniteVolume, fcs
        num = fcs.Numerics(dx=0.08, window_pad_gamma=5.0, window_factor=3.5,
                           p_max_gamma=14.0, s_nodes=2)
        cache = SolveCache(tmp_path)
        line = InfiniteVolume(1.0)
        warm = [fcs._flow_integrals(kink, line, 2.0, s_end, num, cache)
                for s_end in (0.1, 0.4)]
        assert (cache.hits, cache.misses) == (0, 2)
        assert len(list(tmp_path.rglob("*.json"))) == 2
        cold = [fcs._flow_integrals(kink, line, 2.0, s_end, num)
                for s_end in (0.1, 0.4)]
        assert warm == cold and warm[0] != warm[1]
        assert [fcs._flow_integrals(kink, line, 2.0, s_end, num, cache)
                for s_end in (0.1, 0.4)] == cold
        assert (cache.hits, cache.misses) == (2, 2)

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


# light numerics of the tests that run a whole command
LIGHT_NUMERICS = {"n_modes": 64, "tail_tol": 5e-3, "s_nodes": 3, "dx": 0.08,
                  "window_pad_gamma": 5.0, "window_factor": 3.5,
                  "p_max_gamma": 14.0}


# the bytes of test_fcs_bytes_are_pinned's fcs.json and fcs.csv
PINNED_JSON = b"""\
{
 "lambda_values": [
  -0.05,
  0.05
 ],
 "metadata": {
  "experiment": {
   "lambda_values": [
    -0.05,
    0.05
   ],
   "mode": "both",
   "t_values": [
    1.0
   ]
  },
  "numerics": {
   "dx": 0.03,
   "n_modes": 128,
   "p_max_gamma": 25.0,
   "s_nodes": 4,
   "s_panels": 1,
   "tail_tol": 0.005,
   "window_factor": 4.0,
   "window_pad_gamma": 6.0
  },
  "profile": {
   "L": 40.0,
   "beta_left": 2.0,
   "beta_right": 1.0,
   "center": 0.0,
   "half_width": 1.0,
   "shape": "bump",
   "sharpness": 4.0,
   "v": 1.0
  },
  "schema": "weldfcs-config-1",
  "theory": {
   "c": 1.0,
   "model": "free_boson_radius",
   "radius": 1.0
  }
 },
 "rows": [
  {
   "lambda": -0.05,
   "ln_psi": {
    "im": 0.5756857106237616,
    "re": -0.0434469948714177
   },
   "ln_psi_finite": {
    "im": -0.010047183943243458,
    "re": 0.006631455962162306
   },
   "ln_psi_minus": {
    "im": 0.2878428553118808,
    "re": -0.02172349743570885
   },
   "ln_psi_plus": {
    "im": 0.2878428553118808,
    "re": -0.02172349743570885
   },
   "t": 1.0
  },
  {
   "lambda": 0.05,
   "ln_psi": {
    "im": 0.5758857106237616,
    "re": -0.0434469948714177
   },
   "ln_psi_finite": {
    "im": -0.00984718394324346,
    "re": 0.006631455962162306
   },
   "ln_psi_minus": {
    "im": 0.2879428553118808,
    "re": -0.02172349743570885
   },
   "ln_psi_plus": {
    "im": 0.2879428553118808,
    "re": -0.02172349743570885
   },
   "t": 1.0
  }
 ],
 "schema": "weldfcs-fcs-1",
 "t_values": [
  1.0
 ]
}
"""
PINNED_CSV = (
    b"t,lambda,re_lnpsi,im_lnpsi,re_lnpsi_plus,im_lnpsi_plus,"
    b"re_lnpsi_minus,im_lnpsi_minus\r\n"
    b"1.0,-0.05,-0.0434469948714177,0.5756857106237616,"
    b"-0.02172349743570885,0.2878428553118808,-0.02172349743570885,"
    b"0.2878428553118808\r\n"
    b"1.0,0.05,-0.0434469948714177,0.5758857106237616,"
    b"-0.02172349743570885,0.2879428553118808,-0.02172349743570885,"
    b"0.2879428553118808\r\n"
)


def experiment_values():
    """hypothesis strategies, and the strategies of a number, of a value
    that is no finite number and of a value that is no non-empty list of
    finite numbers."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    number = st.floats(-2.0, 2.0)
    not_a_number = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                             st.lists(number, max_size=2))
    bad_list = st.one_of(
        st.just([]), st.booleans(), number, st.text(max_size=4),
        st.tuples(st.lists(number, max_size=3), not_a_number,
                  st.integers(0, 3)).map(
            lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:]))
    return st, number, not_a_number, bad_list


def refuses_invalid_experiment(command, bad, good, welds, tmp_path, capsys,
                               monkeypatch):
    """One key of the experiment block drawn from ``bad``, the others from
    ``good`` or absent: ``command`` exits 2 with a config error naming the
    key and no traceback, before any of the ``cli`` functions named in
    ``welds`` runs and before it writes any output."""
    import hypothesis
    st = hypothesis.strategies
    from weldfcs import cli

    def no_weld(*args, **kwargs):
        raise AssertionError("an invalid experiment reached a weld")

    for name in welds:
        monkeypatch.setattr(cli, name, no_weld)
    cfg_path = tmp_path / "run.json"

    @st.composite
    def experiments(draw):
        broken = draw(st.sampled_from(sorted(bad)))
        block = {broken: draw(bad[broken])}
        for key in set(good) - {broken}:
            if draw(st.booleans()):
                block[key] = draw(good[key])
        return broken, block

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(experiments())
    def prop(case):
        broken, experiment = case
        data = base_config(experiment=experiment,
                           io={"output_dir": str(tmp_path / "out")})
        cfg_path.write_text(json.dumps(data))
        assert run_cli([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"'experiment.{broken}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    prop()


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
                ("moments", "experiment", "t", 0),
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

    def test_fcs_invalid_experiment_exits_2_before_any_weld(
            self, tmp_path, capsys, monkeypatch):
        # one of mode, t_values and lambda_values invalid (a name that is no
        # mode, a list that is empty or holds a non-number, a nested list or
        # a bool, or no list at all), the others valid or absent: exit 2
        # with a config error, no traceback, before any ln Psi is computed
        st, number, _, bad_list = experiment_values()
        modes = ["infinite", "finite", "both"]
        bad = {"mode": st.one_of(
                   st.none(), st.booleans(), number, st.lists(
                       st.sampled_from(modes), max_size=2),
                   st.text(max_size=8).filter(lambda m: m not in modes)),
               "t_values": bad_list, "lambda_values": bad_list}
        good = {"mode": st.sampled_from(modes),
                "t_values": st.lists(number, min_size=1, max_size=3),
                "lambda_values": st.lists(number, min_size=1, max_size=3)}
        refuses_invalid_experiment("fcs", bad, good,
                                   ("psi_infinite", "psi_finite"),
                                   tmp_path, capsys, monkeypatch)

    def test_moments_invalid_experiment_exits_2_before_any_weld(
            self, tmp_path, capsys, monkeypatch):
        # t no finite number, or fd_step no finite number or not positive
        st, number, not_a_number, _ = experiment_values()
        bad = {"t": not_a_number,
               "fd_step": st.one_of(not_a_number, st.floats(max_value=0.0))}
        good = {"t": number, "fd_step": st.floats(1e-4, 0.1)}
        refuses_invalid_experiment("moments", bad, good, ("psi_infinite",),
                                   tmp_path, capsys, monkeypatch)

    def test_converge_invalid_experiment_exits_2_before_any_weld(
            self, tmp_path, capsys, monkeypatch):
        # L_values no list of numbers, or one of its boxes too small for
        # the kink (|center| + half_width = 1, so L < 4), or one of t, s,
        # lambda and t_psi no finite number
        st, number, not_a_number, bad_list = experiment_values()
        box = st.floats(4.0, 200.0)
        small = st.tuples(st.lists(box, max_size=2), st.floats(-1e3, 3.99),
                          st.integers(0, 2)).map(
            lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
        bad = {"L_values": st.one_of(bad_list, small),
               **{key: not_a_number for key in ("t", "s", "lambda", "t_psi")}}
        good = {"L_values": st.lists(box, min_size=1, max_size=3),
                **{key: number for key in ("t", "s", "lambda", "t_psi")}}
        refuses_invalid_experiment(
            "converge", bad, good,
            ("psi_infinite", "psi_finite", "cylinder_nodes", "torus_nodes"),
            tmp_path, capsys, monkeypatch)

    def test_ldf_invalid_experiment_exits_2_before_any_rate(
            self, tmp_path, capsys, monkeypatch):
        # lambda_values or sigma_values no non-empty list of finite numbers
        st, number, _, bad_list = experiment_values()
        keys = ("lambda_values", "sigma_values")
        refuses_invalid_experiment(
            "ldf", {key: bad_list for key in keys},
            {key: st.lists(number, min_size=1, max_size=3) for key in keys},
            ("ldf", "levitov_lesovik", "rate_function",
             "levy_khintchine_check"), tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("command,welds", [
        ("weld-torus", "torus_nodes"), ("weld-cylinder", "cylinder_nodes")])
    def test_weld_invalid_experiment_exits_2_before_any_weld(
            self, tmp_path, capsys, monkeypatch, command, welds):
        # t or s no finite number or s_values no non-empty list of them; for
        # weld-cylinder also a mover other than '+' or '-', or a crosscheck
        # flag that is not a bool
        st, number, not_a_number, bad_list = experiment_values()
        bad = {"t": not_a_number, "s": not_a_number, "s_values": bad_list}
        good = {"t": number, "s": number,
                "s_values": st.lists(number, min_size=1, max_size=3)}
        if command == "weld-cylinder":
            bad["mover"] = st.one_of(not_a_number, st.just(1),
                                     st.text(max_size=2).filter(
                                         lambda m: m not in ("+", "-")))
            bad["crosscheck"] = st.one_of(st.none(), number, st.integers(),
                                          st.text(max_size=4))
            good["mover"] = st.sampled_from(["+", "-"])
            good["crosscheck"] = st.booleans()
        refuses_invalid_experiment(command, bad, good, (welds,), tmp_path,
                                   capsys, monkeypatch)

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
        # the band-edge tails, taken when read, under the run's tail_tol
        tol = data["numerics"]["tail_tol"]
        assert 0 < row["tail_K12"] <= tol and 0 < row["tail_K21"] <= tol
        assert set(row) == {"t", "s", "tau_eff", "boundary_eq_1",
                            "boundary_eq_2", "tau_two_route", "tail_K12",
                            "tail_K21", "xprime_sq_rel", "schwarzian_abs",
                            "cond_estimate", "solve_residual"}
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
            # the solve's own diagnostics, from the same source as the rest
            assert row["cond_estimate"] >= 1.0
            assert row["solve_residual"] < 1e-10
            assert set(row) == {"t", "s", "mover", "cond_estimate",
                                "solve_residual", "schwartz_bound",
                                "source_tail", "xprime_tail_rate",
                                "expected_rate", "xprime_min_abs"}
        assert (outdir / "weld_cylinder_t1.0_s0.2_p.npz").exists()

    def test_weld_cylinder_crosscheck_rows(self, tmp_path):
        # crosscheck on: each row carries the real-space defects of its own
        # node, as realspace_crosscheck gives them on that node
        data = base_config(numerics=LIGHT_NUMERICS,
                           experiment={"t": 1.0, "s_values": [-0.1, 0.2],
                                       "crosscheck": True})
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli(["weld-cylinder", "--config", str(cfg_path)]) == 0
        rows = json.loads((tmp_path / "out" / "weld_cylinder.json")
                          .read_text())["rows"]
        cfg = load_config(cfg_path)
        welds = cylinder_nodes(cfg.profile, cfg.v, 1.0, "+", [-0.1, 0.2],
                               cfg.numerics)
        refs = [realspace_crosscheck(sol) for sol in welds.solutions()]
        assert [{k: row[k] for k in ref} for row, ref in zip(rows, refs)] \
            == refs
        assert all(0 < v < 1e-3 for ref in refs for v in ref.values())

    @pytest.mark.parametrize("command,solver", [
        ("weld-torus", "solve_Y1"), ("weld-cylinder", "solve_cylinder")])
    def test_weld_commands_free_each_solution_before_the_next_solve(
            self, tmp_path, monkeypatch, command, solver):
        # a node's solution, with its factors, is gone when the command
        # solves the next node, so it holds one node's factors at a time
        refs, alive = [], []
        solve = getattr(fcs, solver)

        def tracked(problem):
            alive.append(sum(ref() is not None for ref in refs))
            sol = solve(problem)
            refs.append(weakref.ref(sol))
            return sol

        monkeypatch.setattr(fcs, solver, tracked)
        data = base_config(numerics=LIGHT_NUMERICS,
                           experiment={"t": 1.0, "s_values": [0.1, 0.2, 0.3]})
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli([command, "--config", str(cfg_path)]) == 0
        assert alive == [0, 0, 0]

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

    def test_fcs_warm_rerun_builds_no_spline(self, tmp_path, monkeypatch):
        # a warm rerun is cache reads and the characters: it builds no kink
        # table (tau_0 is a record) and no interpolant, computes no Legendre
        # rule, and writes the cold run's output, byte for byte
        from weldfcs import profile, spectral
        data = base_config()
        data["numerics"] = {"n_modes": 96, "tail_tol": 5e-3, "s_nodes": 3,
                            "dx": 0.08, "window_pad_gamma": 5.0,
                            "window_factor": 4.0, "p_max_gamma": 14.0}
        data["experiment"] = {"mode": "both", "t_values": [1.0],
                              "lambda_values": [-0.05, 0.05]}
        data["io"] = {"output_dir": str(tmp_path / "out"),
                      "cache_dir": str(tmp_path / "cache")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "out" / "fcs.json"
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 0
        cold = out.read_bytes()
        out.unlink()

        def no_spline(*args, **kwargs):
            raise AssertionError("a warm rerun built an interpolant")

        orders, tables = [], []
        leggauss = np.polynomial.legendre.leggauss
        cumsimps = profile._cumsimps
        monkeypatch.setattr(profile, "_QuinticHermite", no_spline)
        monkeypatch.setattr(profile, "_cumsimps",
                            lambda *a: tables.append(a) or cumsimps(*a))
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: orders.append(n) or leggauss(n))
        spectral.gauss_legendre.cache_clear()
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 0
        assert out.read_bytes() == cold
        assert orders == [] and tables == []

    def test_fcs_leaves_one_record_per_flow_integral(self, tmp_path,
                                                     monkeypatch):
        # a cold both-mode run leaves 3 |t| |lambda| flow records (two
        # movers and the box), 2 |t| mover and |t| + 1 box counterterms and
        # one tau_0; a warm rerun reads them all and writes none
        data = base_config()
        data["numerics"] = {"n_modes": 64, "tail_tol": 5e-3, "s_nodes": 2,
                            "dx": 0.08, "window_pad_gamma": 5.0,
                            "window_factor": 3.5, "p_max_gamma": 14.0}
        data["experiment"] = {"mode": "both", "t_values": [1.0, 2.0],
                              "lambda_values": [-0.05, 0.05]}
        cache_dir = tmp_path / "cache"
        data["io"] = {"output_dir": str(tmp_path / "out"),
                      "cache_dir": str(cache_dir)}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 0
        records = sorted(cache_dir.rglob("*.json"))
        assert len(records) == 3 * 2 * 2 + 2 * 2 + (2 + 1) + 1 == 20
        kinds = [json.loads(r.read_text())["key"].split(",")[0][2:-1]
                 for r in records]
        assert {k: kinds.count(k) for k in set(kinds)} == {
            "cyl_flow": 8, "torus_flow": 4, "ct_mover": 4, "ct_finite": 3,
            "tau0": 1}
        reads, writes = [], []
        get, put = SolveCache.get_scalar, SolveCache.put_scalar

        def recorded_get(self, key):
            value = get(self, key)
            reads.append(value is not None)
            return value

        monkeypatch.setattr(SolveCache, "get_scalar", recorded_get)
        monkeypatch.setattr(SolveCache, "put_scalar", lambda self, k, v:
                            writes.append(k) or put(self, k, v))
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 0
        assert len(reads) == 32 and all(reads) and writes == []
        assert sorted(cache_dir.rglob("*.json")) == records

    @pytest.mark.parametrize("command,json_stem,csv_stem", [
        ("weld-torus", "weld_torus", "weld_torus"),
        ("weld-cylinder", "weld_cylinder", None),
        ("fcs", "fcs", "fcs"), ("moments", "moments", "moments"),
        ("ldf", "ldf", "ldf_rate"), ("converge", "converge", "converge")])
    def test_each_file_is_written_iff_its_format_is_listed(
            self, tmp_path, command, json_stem, csv_stem):
        # the JSON only under "json", the CSV table (weld-cylinder has
        # none) only under "csv"; the welds' npz files under any formats
        experiments = {
            "weld-torus": {"t": 1.0, "s_values": [0.2]},
            "weld-cylinder": {"t": 1.0, "s_values": [0.2]},
            "fcs": {"mode": "both", "t_values": [1.0],
                    "lambda_values": [0.05]},
            "moments": {"t": 1.0},
            "ldf": {"lambda_values": [0.2], "sigma_values": [-1.0, 1.0]},
            "converge": {"L_values": [20.0, 40.0], "t": 1.0, "s": 0.2,
                         "lambda": 0.2, "t_psi": 2.0}}
        data = base_config(experiment=experiments[command],
                           numerics=LIGHT_NUMERICS)
        written = {}
        for formats in (["csv"], ["json"], []):
            outdir = tmp_path / ("out_" + "_".join(formats))
            data["io"] = {"output_dir": str(outdir), "formats": formats,
                          "cache_dir": str(tmp_path / "cache")}
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps(data))
            assert run_cli([command, "--config", str(cfg_path)]) == 0
            written[tuple(formats)] = sorted(
                p.name for p in outdir.glob("*")) if outdir.exists() else []
        npz = written[()]
        assert all(name.endswith(".npz") for name in npz)
        assert len(npz) == (1 if command.startswith("weld") else 0)
        assert written[("json",)] == sorted(npz + [f"{json_stem}.json"])
        assert written[("csv",)] == sorted(
            npz + ([f"{csv_stem}.csv"] if csv_stem else []))

    @pytest.mark.parametrize("command,experiment", [
        ("weld-torus", {"t": 1.0, "s_values": [0.0, 0.2]}),
        ("weld-cylinder", {"t": 1.0, "s_values": [0.0, 0.25]}),
        ("fcs", {"mode": "both", "t_values": [1.0],
                 "lambda_values": [0.0, 0.05]}),
        ("moments", {"t": 1.0}),
        ("ldf", {"lambda_values": [0.2], "sigma_values": [-1.0, 1.0]}),
        ("converge", {"L_values": [20.0, 40.0], "t": 1.0, "s": 0.0,
                      "lambda": 0.2, "t_psi": 2.0})])
    def test_json_has_no_nan_or_infinity(self, tmp_path, command, experiment):
        # strict parsers reject NaN and Infinity; a value no data fixes (the
        # identity weld's tail rate, the slope of all-zero errors) is null
        def refuse(constant):
            raise ValueError(f"{constant} in {command}'s JSON")

        data = base_config(experiment=experiment, numerics=LIGHT_NUMERICS)
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli([command, "--config", str(cfg_path)]) == 0
        outputs = sorted((tmp_path / "out").glob("*.json"))
        assert len(outputs) == 1
        out = json.loads(outputs[0].read_text(), parse_constant=refuse)
        if command == "weld-cylinder":
            assert out["rows"][0]["xprime_tail_rate"] is None
            assert isinstance(out["rows"][1]["xprime_tail_rate"], float)

    @pytest.mark.parametrize("experiment", [
        {"L_values": [40.0], "s": 0.2}, {"L_values": [20.0, 40.0], "s": 0.0}],
        ids=["one-box", "zero-errors"])
    def test_converge_slope_without_two_positive_errors_is_null(
            self, tmp_path, capsys, experiment):
        # one box, or errors that are all 0 (the identity weld at s = 0),
        # determine no slope: null, with no warning on the way
        data = base_config(experiment={"t": 1.0, "lambda": 0.2,
                                       "t_psi": 2.0, **experiment},
                           numerics=LIGHT_NUMERICS)
        data["io"] = {"output_dir": str(tmp_path)}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["converge", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        out = json.loads((tmp_path / "converge.json").read_text())
        assert out["xprime_slope"] is None
        assert len(out["xprime_sup_errors"]) == len(experiment["L_values"])

    def test_fcs_bytes_are_pinned(self, tmp_path, monkeypatch):
        # fcs.json and fcs.csv of a both-mode run whose every record a stub
        # cache serves: pins the rows' encoding and the CSV columns.  The
        # box's a_X'^2 = 0 keeps tau at tau_0, so no character value, only
        # arithmetic, enters the bytes
        from weldfcs import cli

        class Served:
            def get_scalar(self, key):
                if key[0] == "ct_finite":          # at t and at 0
                    return 2e-3 * key[2]
                return {"cyl_flow": (0.5 - 0.25j, 2.0 + 0.125j),
                        "torus_flow": (0.75 + 0.5j, 0j),
                        "tau0": 0.1j, "ct_mover": 1e-3}[key[0]]

        monkeypatch.setattr(cli, "_maybe_cache",
                            lambda cfg, cli_dir: Served())
        data = base_config(experiment={"mode": "both", "t_values": [1.0],
                                       "lambda_values": [-0.05, 0.05]})
        data["io"] = {"output_dir": str(tmp_path)}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "fcs.csv").read_bytes() == PINNED_CSV
        assert (tmp_path / "fcs.json").read_bytes() == PINNED_JSON

    def test_fcs_without_box_exits_2_before_any_weld(self, tmp_path, capsys,
                                                     monkeypatch):
        # a both-mode run with no profile.L is refused before the infinite
        # volume solves a node
        from weldfcs import fcs
        calls = []
        records = fcs._node_records
        monkeypatch.setattr(fcs, "_node_records", lambda *a, **k:
                            calls.append(a) or records(*a, **k))
        data = base_config(experiment={"mode": "both", "t_values": [1.0],
                                       "lambda_values": [0.05]})
        del data["profile"]["L"]
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 2
        assert "'profile.L'" in capsys.readouterr().err
        assert calls == []

    def test_boson_away_from_c1_exits_2(self, tmp_path, capsys):
        # its character is the c = 1 boson's, so at c = 2 the finite ln Psi
        # would mix a c-scaled action with a c = 1 character ratio
        data = base_config()
        data["theory"]["c"] = 2.0
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli(["fcs", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'theory.model'" in err
        assert not (tmp_path / "out").exists()

    def test_converge_central_charge_only_away_from_c1_exits_2(
            self, tmp_path, capsys, monkeypatch):
        # converge stands the c = 1 boson in for central_charge_only, so it
        # refuses c != 1 before any weld, with no traceback
        from weldfcs import cli

        def no_weld(*args, **kwargs):
            raise AssertionError("converge welded at c != 1")

        for name in ("psi_infinite", "psi_finite", "cylinder_nodes",
                     "torus_nodes"):
            monkeypatch.setattr(cli, name, no_weld)
        data = base_config(experiment={"L_values": [40.0]})
        data["theory"] = {"model": "central_charge_only", "c": 2.0}
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli(["converge", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'theory.c'" in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("mode", ["infinite", "finite"])
    def test_fcs_flow_rule_over_budget_exits_3_unallocated(
            self, tmp_path, capsys, mode):
        # s_nodes = 100000 needs a 74.5 GiB companion matrix for its nodes;
        # the rule is refused before that or any node is built
        data = base_config()
        data["numerics"]["s_nodes"] = 100000
        data["experiment"] = {"mode": mode, "t_values": [4.0],
                              "lambda_values": [0.02]}
        data["io"] = {"output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        tracemalloc.start()
        try:
            assert run_cli(["fcs", "--config", str(cfg_path)]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 24
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: NodeTooLarge: ")
        assert "numerics.s_nodes = 100000" in err

    def test_fcs_sharpness_past_the_normal_range_exits_2(self, tmp_path,
                                                          capsys):
        # e^-745 underflows to 0, and so would the whole bump; at 708 the
        # bump's norm is subnormal and beta' would overflow to NaN.  Both
        # are refused as a config error naming the key, before any weld
        for sharpness in (745.0, 708.0):
            data = base_config()
            data["profile"]["sharpness"] = sharpness
            data["experiment"] = {"mode": "infinite", "t_values": [1.0],
                                  "lambda_values": [0.2]}
            data["io"] = {"output_dir": str(tmp_path / "out")}
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps(data))
            assert run_cli(["fcs", "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            assert "'profile.sharpness'" in err
            assert not (tmp_path / "out").exists()
        # the outer bound is where e^-sharpness leaves the normal doubles;
        # at |delta_beta| = half_width = 1 the norm's bound comes first,
        # between 707.0 and 707.2, where 1 / norm passes the largest double
        edge = -np.log(sys.float_info.min)
        assert np.exp(-edge) >= sys.float_info.min
        p = TemperatureProfile(2.0, 1.0, sharpness=707.0)
        assert np.isfinite(p.beta_deriv(np.linspace(-1, 1, 101), 2)).all()
        for sharpness in (707.2, edge, np.nextafter(edge, 1e3)):
            with pytest.raises(ValueError, match="sharpness"):
                TemperatureProfile(2.0, 1.0, sharpness=sharpness)
        # the same scale overflows at a tiny half-width, which is then named
        with pytest.raises(ValueError, match="half_width") as exc:
            TemperatureProfile(2.0, 1.0, half_width=1e-160)
        assert exc.value.key == "half_width"

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

    def test_threads_other_than_1_exit_2(self, tmp_path, capsys):
        # every command runs in one thread: --threads parses, and only 1 is
        # accepted, before the config is read
        data = base_config(experiment={"mode": "infinite", "t_values": [1.0],
                                       "lambda_values": [0.0]},
                           io={"output_dir": str(tmp_path / "out")})
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        for threads in ("0", "2", "-1", "8"):
            assert run_cli(["fcs", "--config", str(cfg_path),
                            "--threads", threads]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "'--threads'" in err
        assert not (tmp_path / "out").exists()
        assert run_cli(["fcs", "--config", str(cfg_path),
                        "--threads", "1"]) == 0

    @pytest.mark.parametrize("command,block,key,value,error", [
        ("fcs", "experiment", "t_values", [1e300], "NodeTooLarge"),
        ("moments", "experiment", "fd_step", 1e300, "NodeTooLarge"),
        ("moments", "profile", "v", 1e300, "OutOfRange"),
        ("moments", "profile", "v", 1e-300, "OutOfRange"),
        ("moments", "profile", "v", 1e-150, "OutOfRange"),
        ("moments", "profile", "v", 1e20, "NodeTooLarge")])
    def test_extreme_values_exit_3_naming_the_error(
            self, tmp_path, capsys, command, block, key, value, error):
        # sizes past the float range and closed forms that leave it are
        # numerical failures with a named error, not tracebacks
        data = base_config(io={"output_dir": str(tmp_path / "out")})
        data["experiment"] = {"mode": "infinite", "t_values": [1.0],
                              "lambda_values": [0.2]} \
            if command == "fcs" else {"t": 2.0}
        data[block][key] = value
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli([command, "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {error}: ")
        assert "Traceback" not in err
        # a size past 2^64 is written as a power of two, not in full
        assert not re.search(r"\d{20}", err)

    def test_write_json_bytes_are_pinned(self, tmp_path):
        # the one-call writer gives the bytes json.dump gave, piece by piece
        from weldfcs.cli import _write_json
        payload = {"rows": [{"t": 1.0, "lambda": -0.05,
                             "ln_psi": {"re": -1.2345678901234568e-05,
                                        "im": 0.1}}],
                   "command": "fcs", "label": "\u03b2 kink",
                   "metadata": {"profile": {"L": None, "shape": "bump"},
                                "formats": ["json", "csv"], "ok": True,
                                "n": 3}}
        path = tmp_path / "new" / "out.json"
        _write_json(path, payload)
        assert path.read_bytes() == (
            b'{\n "command": "fcs",\n "label": "\\u03b2 kink",\n'
            b' "metadata": {\n  "formats": [\n   "json",\n   "csv"\n  ],\n'
            b'  "n": 3,\n  "ok": true,\n  "profile": {\n   "L": null,\n'
            b'   "shape": "bump"\n  }\n },\n "rows": [\n  {\n'
            b'   "lambda": -0.05,\n   "ln_psi": {\n    "im": 0.1,\n'
            b'    "re": -1.2345678901234568e-05\n   },\n   "t": 1.0\n  }\n'
            b' ]\n}\n')

    def test_welding_commands_import_no_scipy(self, tmp_path):
        # a fresh process runs a cold and a warm fcs in both volumes, then
        # converge, weld-torus and weld-cylinder: none of them loads scipy
        light = {"n_modes": 64, "tail_tol": 5e-3, "s_nodes": 3, "dx": 0.08,
                 "window_pad_gamma": 5.0, "window_factor": 3.5,
                 "p_max_gamma": 14.0}
        experiments = {
            "fcs": {"mode": "both", "t_values": [1.0],
                    "lambda_values": [-0.05, 0.05]},
            "converge": {"L_values": [40.0], "t": 1.0, "s": 0.2,
                         "lambda": 0.2, "t_psi": 2.0},
            "weld-torus": {"t": 1.0, "s_values": [0.2]},
            "weld-cylinder": {"t": 1.0, "s_values": [0.2]}}
        argvs = []
        for command, experiment in experiments.items():
            data = base_config(numerics=light, experiment=experiment)
            data["io"] = {"output_dir": str(tmp_path / command),
                          "cache_dir": str(tmp_path / "cache")}
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(data))
            argvs.append([command, "--config", str(cfg_path)])
        argvs.insert(1, argvs[0])            # the warm fcs rerun
        script = (
            "import json, sys\n"
            "from weldfcs.cli import main\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    loaded.append(sorted(m for m in sys.modules\n"
            "                         if m.split('.')[0] == 'scipy'))\n"
            "print(json.dumps(loaded))\n")
        out = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0, out.stderr
        loaded = json.loads(out.stdout.splitlines()[-1])
        assert dict(zip(["fcs cold", "fcs warm", "converge", "weld-torus",
                         "weld-cylinder"], loaded)) == {
            "fcs cold": [], "fcs warm": [], "converge": [], "weld-torus": [],
            "weld-cylinder": []}

    def test_warm_fcs_loads_no_numpy_polynomial(self, tmp_path):
        # a fresh process that reruns fcs on a warm cache computes no
        # Legendre rule, so it never loads numpy.polynomial; nor, building
        # no phase factor and running no battery, fractions or the self-test
        data = base_config(numerics={
            "n_modes": 64, "tail_tol": 5e-3, "s_nodes": 3, "dx": 0.08,
            "window_pad_gamma": 5.0, "window_factor": 3.5,
            "p_max_gamma": 14.0})
        data["experiment"] = {"mode": "both", "t_values": [1.0],
                              "lambda_values": [-0.05, 0.05]}
        data["io"] = {"output_dir": str(tmp_path / "out"),
                      "cache_dir": str(tmp_path / "cache")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        argv = ["fcs", "--config", str(cfg_path)]
        assert run_cli(argv) == 0                # the cold fill
        script = (
            "import json, sys\n"
            "from weldfcs.cli import main\n"
            "assert main(json.loads(sys.argv[1])) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m in\n"
            "    ('fractions', 'weldfcs.selftest')\n"
            "    or m.startswith('numpy.polynomial'))))\n")
        out = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == []

    def test_console_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "weldfcs.cli", "--help"],
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0
        assert "weldfcs" in out.stdout
