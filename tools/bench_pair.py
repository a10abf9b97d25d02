"""Paired benchmark of two revisions: ``perfbench/run.py`` as it stands in
each, alternately, from clean exports.

    python3 tools/bench_pair.py --parent REV --change REV --tag NAME
        [--workloads W ...] [--pairs 10] [--seconds 15] [--traced 1]
        [--seed 0]

Run from a weldfcs checkout.  ``--change .`` takes the working tree (the
tracked files and the untracked ones git does not ignore) instead of a
commit.  Each side is exported once into a scratch directory, and every
run gets a fresh copy of that export, removed after the run, so no run
reads another's files or leftovers.  The copy's name grows by one
character per run of its side, modulo 8, and both runs of a pair share a
length: an effect tied to the layout of one path (the heap's, say) spreads
over the runs instead of counting in every pair.  Per workload, each side
first makes one warm-up run, which is discarded; then pair k runs the
parent first when k is even and the change first when k is odd, one run
at a time, each ``--seconds`` long at ``--seed`` (0 by default;
another seed checks a claim on inputs not used while the change was
written).  ``--traced`` more runs per side and workload take the per-layer
split (``--trace 1``).

It writes ``BENCH_<tag>.json`` at the checkout's root: per workload
and end-to-end metric, each side's runs, median and quartiles, the pairs
the change wins (in all, and split by the side that ran first) and the
change's median relative to the parent's; the median per-layer split of
each side; the seed-0 ln Psi fingerprint lines and their largest relative
move; each side's cache version; the rounds each run completed
(``peak_rss_mb`` of ``warm-grid`` grows with them); and the host.  A metric whose parent runs spread wider than its bound (the
quartile distance over the median, bounds from ``BENCHMARK.json``) is
marked unresolved: no move within the bound can be told from that spread.
A metric whose change median is worse than the parent's by more than its
bound is marked regressed.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LNPSI = re.compile(r"^lnpsi .*: (\S+) (\S+)$")
ROUNDS = re.compile(r"^workload .*: (\d+) rounds in ")


def git(*args: str, cwd: Path) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True).stdout


def export(root: Path, rev: str, dest: Path) -> str:
    """A clean copy of ``rev`` (or of the working tree for ``.``) in
    ``dest``; returns the commit it names, with ``+worktree`` for ``.``."""
    dest.mkdir(parents=True)
    if rev == ".":
        names = git("ls-files", "-z", "-co", "--exclude-standard", cwd=root)
        for name in filter(None, names.decode().split("\0")):
            src = root / name
            if src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return git("rev-parse", "HEAD", cwd=root).decode().strip() \
            + "+worktree"
    subprocess.run(["tar", "-x", "-C", str(dest)], check=True,
                   input=git("archive", rev, cwd=root))
    return git("rev-parse", rev, cwd=root).decode().strip()


def cache_version(tree: Path) -> str | None:
    text = (tree / "src" / "weldfcs" / "cache.py").read_text()
    found = re.search(r'^_VERSION = "([^"]+)"', text, re.M)
    return found.group(1) if found else None


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    """One ``perfbench/run.py`` run: its final JSON object, with the
    rounds it completed, its fingerprint lines and any absent layers."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(int(trace))], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
               "error": proc.stderr.strip()[-2000:]}
    out["exit"] = proc.returncode
    out["rounds"] = next((int(m.group(1)) for m in map(ROUNDS.match, lines)
                          if m), None)
    out["fingerprint"] = [s for s in lines if LNPSI.match(s)]
    out["absent"] = [s for s in lines if s.startswith("absent layers")]
    return out


def summary(values: list) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0] if values else None
    return {"runs": values, "median": med, "q1": q1, "q3": q3}


def first_side(k: int) -> str:
    """The side that runs first in pair k."""
    return "parent" if k % 2 == 0 else "change"


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Both sides' summaries, pair wins and the resolution of a metric;
    a metric some run did not report is unresolved.  The change's wins are
    also split by the side that ran first in the pair: wins that follow the
    order say more about the order than about the change.  ``regressed``
    is whether the change's median is worse than the parent's by more than
    ``bound``, relative to the parent's median."""
    p, c = summary(parent), summary(change)
    if not parent or len(parent) != len(change):
        return {"parent": p, "change": c, "better": better, "bound": bound,
                "unresolved": True, "gain_resolved": False,
                "regressed": None}
    sign = 1.0 if better == "higher" else -1.0
    won = [sign * (b - a) > 0 for a, b in zip(parent, change)]
    wins = sum(won)
    by_first = {side: [w for k, w in enumerate(won) if first_side(k) == side]
                for side in ("parent", "change")}
    iqr = p["q3"] - p["q1"]
    spread = iqr / abs(p["median"]) if p["median"] else None
    return {
        "parent": p, "change": c, "better": better, "bound": bound,
        "pairs": len(parent), "change_wins": wins,
        "change_wins_by_first": {side: {"pairs": len(w),
                                        "change_wins": sum(w)}
                                 for side, w in by_first.items()},
        "ratio": c["median"] / p["median"] if p["median"] else None,
        "parent_spread": spread,
        "unresolved": spread is None or spread > bound,
        # the gain test: won in 9 of 10 pairs, by more than the parent's
        # quartile distance
        "gain_resolved": wins >= 0.9 * len(parent)
        and sign * (c["median"] - p["median"]) > iqr,
        "regressed": sign * (c["median"] - p["median"])
        < -bound * abs(p["median"]) if p["median"] else None,
    }


def fingerprint_move(parent: list, change: list) -> float | None:
    """Largest |change - parent| / |parent| over the fingerprint lines."""
    if len(parent) != len(change):
        return None
    worst = 0.0
    for a, b in zip(parent, change):
        za, zb = (complex(*map(float, LNPSI.match(s).groups()))
                  for s in (a, b))
        if a.split(":")[0] != b.split(":")[0]:
            return None
        worst = max(worst, abs(zb - za) / abs(za) if za else abs(zb))
    return worst


def host(tree: Path) -> dict:
    info = {"platform": platform.platform(), "machine": platform.machine(),
            "python": platform.python_version(), "cores": os.cpu_count()}
    found = re.search(r'^BLAS_THREADS = "(\d+)"',
                      (tree / "perfbench" / "run.py").read_text(), re.M)
    if found:
        info["blas_threads"] = int(found.group(1))
    try:
        info["load_avg"] = os.getloadavg()
    except OSError:
        pass
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; "
         "print(numpy.__version__, scipy.__version__)"],
        cwd=tree, capture_output=True, text=True)
    if probe.returncode == 0:
        info["numpy"], info["scipy"] = probe.stdout.split()
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd())
                .decode().strip())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    out = root / f"BENCH_{args.tag}.json"
    scratch = Path(tempfile.mkdtemp(prefix="bench_pair-"))
    try:
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        commits = {side: export(root, rev, trees[side]) for side, rev in
                   (("parent", args.parent), ("change", args.change))}
        record = {
            "tag": args.tag, "commits": commits, "seed": args.seed,
            "seconds": args.seconds, "pairs": args.pairs,
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "host": host(trees["parent"]),
            "cache_version": {s: cache_version(t) for s, t in trees.items()},
            "workloads": {},
        }
        made = {"parent": 0, "change": 0}

        def run(side: str, workload: str, trace: bool) -> dict:
            """One run of ``side`` from a fresh copy of its export, in a
            directory whose name is k % 8 characters longer at the side's
            k-th run."""
            k = made[side]
            made[side] += 1
            tree = scratch / f"{side}{k:03d}{'_' * (k % 8)}"
            shutil.copytree(trees[side], tree, symlinks=True)
            try:
                return run_once(tree, workload, args.seed, args.seconds,
                                trace)
            finally:
                shutil.rmtree(tree, ignore_errors=True)

        for workload in workloads:
            # one discarded warm-up per side, so neither side's first timed
            # run is the first run of the workload on the host
            for side in trees:
                run(side, workload, False)
            runs = {"parent": [], "change": []}
            for k in range(args.pairs):
                order = ("parent", "change") if first_side(k) == "parent" \
                    else ("change", "parent")
                for side in order:
                    runs[side].append(run(side, workload, False))
                    print(f"{workload} pair {k} {side}: "
                          f"{runs[side][-1]['metrics'].get('lnpsi_per_s')}",
                          file=sys.stderr, flush=True)
            traced = {side: [run(side, workload, True)
                             for _ in range(args.traced)]
                      for side in trees}
            entry = {
                "metrics": {m["name"]: compare(
                    *[[r["metrics"][m["name"]]["value"] for r in runs[side]
                       if m["name"] in r["metrics"]]
                      for side in ("parent", "change")],
                    m["better"], m["bound"]) for m in metrics},
                "layers": {side: {name: statistics.median(
                    r["metrics"][name]["value"] for r in traced[side])
                    for name in (traced[side][0]["metrics"]
                                 if traced[side] else {})}
                    for side in trees},
                "rounds": {side: [r["rounds"] for r in runs[side]]
                           for side in trees},
                "correct": {side: all(r["correct"] and r["exit"] == 0
                                      for r in runs[side] + traced[side])
                            for side in trees},
                "attempted": {side: sum(r["attempted"] for r in runs[side])
                              for side in trees},
                "failed": {side: sum(r["failed"] for r in runs[side])
                           for side in trees},
                "absent_layers": {side: sorted({s for r in traced[side]
                                                for s in r["absent"]})
                                  for side in trees},
                "fingerprint": {side: runs[side][0]["fingerprint"]
                                for side in trees},
            }
            entry["fingerprint_max_rel_move"] = fingerprint_move(
                entry["fingerprint"]["parent"], entry["fingerprint"]["change"])
            record["workloads"][workload] = entry
            # written after every workload, so a cut run keeps the ones done
            out.write_text(json.dumps(record, indent=1) + "\n")
            print(f"wrote {workload} to {out}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
