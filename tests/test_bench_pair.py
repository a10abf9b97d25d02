"""``tools/bench_pair``: ``compare`` on synthetic run lists, and ``main``
with its exports and runs stubbed; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).parents[1] / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)
compare = bench_pair.compare

# ten parent runs: median 100.5, quartiles 98.25 and 102.75 (IQR 4.5)
PARENT = [96.0, 104.0, 98.0, 102.0, 100.0, 101.0, 99.0, 103.0, 97.0, 105.0]


def shifted(runs, by, losses=()):
    """The runs moved by ``by``, except the pairs in ``losses``, which move
    the other way."""
    return [r - by if k in losses else r + by for k, r in enumerate(runs)]


class TestCompare:
    def test_gain_resolves_at_nine_of_ten_beyond_the_iqr(self):
        out = compare(PARENT, shifted(PARENT, 7.0, losses={3}), "higher",
                      0.25)
        assert out["change_wins"] == 9
        assert out["change"]["median"] - out["parent"]["median"] > 4.5
        assert out["gain_resolved"] and not out["unresolved"]

    def test_gain_does_not_resolve_at_eight_of_ten(self):
        out = compare(PARENT, shifted(PARENT, 7.0, losses={3, 6}), "higher",
                      0.25)
        assert out["change_wins"] == 8
        assert out["change"]["median"] - out["parent"]["median"] > 4.5
        assert not out["gain_resolved"]

    def test_gain_within_the_iqr_does_not_resolve(self):
        out = compare(PARENT, shifted(PARENT, 1.0), "higher", 0.25)
        assert out["change_wins"] == 10
        assert not out["gain_resolved"]

    def test_wide_parent_spread_is_unresolved(self):
        # IQR / median = 4.5 / 100.5, over a bound of 0.04 and under 0.05
        assert compare(PARENT, PARENT, "higher", 0.04)["unresolved"]
        assert not compare(PARENT, PARENT, "higher", 0.05)["unresolved"]

    @pytest.mark.parametrize("better", ["higher", "lower"])
    def test_regressed_by_direction(self, better):
        # the change's median 30 % above or below the parent's, against a
        # bound of 0.25; a 20 % move is within it
        worse = 1.3 if better == "lower" else 0.7
        better_by = 0.7 if better == "lower" else 1.3
        for factor, regressed in ((worse, True), (better_by, False),
                                  (1.0 + (worse - 1.0) * 2 / 3, False)):
            out = compare(PARENT, [r * factor for r in PARENT], better,
                          0.25)
            assert out["regressed"] is regressed, factor

    def test_lower_is_better_gain(self):
        out = compare(PARENT, shifted(PARENT, -6.0), "lower", 0.25)
        assert out["change_wins"] == 10 and out["gain_resolved"]
        assert not compare(PARENT, shifted(PARENT, 6.0), "lower",
                           0.25)["gain_resolved"]

    def test_wins_split_by_the_side_that_ran_first(self):
        # pair k runs the parent first when k is even: the change loses the
        # pairs 0, 2 and 4, where the parent ran first
        out = compare(PARENT, shifted(PARENT, 6.0, losses={0, 2, 4}),
                      "higher", 0.25)
        assert out["change_wins_by_first"] == {
            "parent": {"pairs": 5, "change_wins": 2},
            "change": {"pairs": 5, "change_wins": 5}}

    def test_missing_runs_are_unresolved(self):
        out = compare(PARENT, PARENT[:9], "higher", 0.25)
        assert out["unresolved"] and not out["gain_resolved"]
        assert out["regressed"] is None


def stubbed_main(tmp_path, monkeypatch, pairs=3):
    """``main`` over two workloads with ``export`` and ``run_once``
    stubbed: each run reports ``lnpsi_per_s`` 1 + (runs so far).  Returns
    the checkout, the exports and one entry per run."""
    root = tmp_path / "checkout"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "lnpsi_per_s", "better": "higher",
                        "bound": 0.25}]}))
    exports, seen = [], []

    def export(root_, rev, dest):
        (dest / "src" / "weldfcs").mkdir(parents=True)
        (dest / "src" / "weldfcs" / "cache.py").write_text(
            '_VERSION = "v"\n')
        (dest / "rev").write_text(rev)
        exports.append(dest)
        return f"commit-{rev}"

    def run_once(tree, workload, seed, seconds, trace):
        seen.append({"tree": tree, "rev": (tree / "rev").read_text(),
                     "files": sorted(p.name for p in tree.iterdir()),
                     "workload": workload, "trace": trace,
                     "value": 1.0 + len(seen)})
        return {"correct": True, "exit": 0, "attempted": 4, "failed": 0,
                "metrics": {"lnpsi_per_s": {"value": seen[-1]["value"]}},
                "rounds": 3, "fingerprint": [], "absent": []}

    monkeypatch.setattr(bench_pair, "git",
                        lambda *args, cwd: str(root).encode())
    monkeypatch.setattr(bench_pair, "export", export)
    monkeypatch.setattr(bench_pair, "run_once", run_once)
    monkeypatch.setattr(bench_pair, "host", lambda tree: {})
    monkeypatch.setattr(bench_pair.tempfile, "tempdir", str(tmp_path))
    assert bench_pair.main(["--parent", "P", "--change", "C", "--tag",
                            "t", "--pairs", str(pairs), "--traced",
                            "1"]) == 0
    return root, exports, seen


class TestRuns:
    def test_each_run_has_a_fresh_tree_of_its_own(self, tmp_path,
                                                  monkeypatch):
        # every run reads its side's export from a directory no other run
        # used, which is gone after the run; its name's length varies over
        # a side's runs and is the same for both runs of a pair
        root, exports, seen = stubbed_main(tmp_path, monkeypatch)
        # 2 workloads x (1 warm-up + 3 pairs + 1 traced run) x 2 sides
        assert len(seen) == 20 and len(exports) == 2
        trees = [r["tree"] for r in seen]
        assert len(set(trees)) == 20
        assert not set(trees) & set(exports)
        assert all(r["files"] == ["rev", "src"] for r in seen)
        assert not any(t.exists() for t in trees + exports)
        for side, rev in (("parent", "P"), ("change", "C")):
            mine = [r for r in seen if r["tree"].name.startswith(side)]
            assert len(mine) == 10 and all(r["rev"] == rev for r in mine)
            assert len({len(r["tree"].name) for r in mine}) == 8
        for workload in ("w1", "w2"):
            timed = [r for r in seen
                     if r["workload"] == workload and not r["trace"]][2:]
            for k in range(3):
                pair = timed[2 * k:2 * k + 2]
                assert {r["rev"] for r in pair} == {"P", "C"}
                assert len({len(r["tree"].name) for r in pair}) == 1
        record = json.loads((root / "BENCH_t.json").read_text())
        assert record["commits"] == {"parent": "commit-P",
                                     "change": "commit-C"}
        assert record["workloads"]["w2"]["metrics"]["lnpsi_per_s"]["pairs"] \
            == 3

    def test_one_discarded_warm_up_per_side_and_workload(self, tmp_path,
                                                         monkeypatch):
        # each workload opens with one untraced run of each side, before
        # the pairs, and neither warm-up reaches the record
        root, _, seen = stubbed_main(tmp_path, monkeypatch)
        record = json.loads((root / "BENCH_t.json").read_text())
        for workload in ("w1", "w2"):
            runs = [r for r in seen if r["workload"] == workload]
            warm = runs[:2]
            assert {r["rev"] for r in warm} == {"P", "C"}
            assert not any(r["trace"] for r in warm)
            metric = record["workloads"][workload]["metrics"]["lnpsi_per_s"]
            kept = metric["parent"]["runs"] + metric["change"]["runs"]
            assert len(kept) == 6
            assert not {r["value"] for r in warm} & set(kept)
            assert sorted(kept) == [r["value"] for r in runs[2:8]]
