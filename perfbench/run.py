"""Throughput benchmark of ``weldfcs fcs``: ln Psi values per second.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a weldfcs source tree.  Workloads (see README.md):
``infinite-moments``, ``finite-boxes``, ``warm-grid``.

One run sets the workload up three times (fresh directories and configs, a
new worker process that imports the program and, for ``warm-grid``, the cold
``weldfcs fcs`` process that fills the cache) and reports the median set-up
time.  The last worker then runs whole rounds of the workload's commands for
``--seconds`` seconds, one process with ``--threads 1`` and one BLAS thread.
The outputs are checked afterwards.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer split with
``--trace 1``).  The exit code is 0 when the run completed and every check
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from spans import COUNT_METRICS, TIME_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUPS = 3
DEADLINE_S = 170.0
BLAS_THREADS = "1"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("WELDFCS_CACHE", None)
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its deadline")
        return left


def read_line(proc: subprocess.Popen, deadline: Deadline) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], deadline.left())
    if not ready:
        raise BenchError("worker did not answer before the deadline")
    return proc.stdout.readline().strip()


def cache_listing(directory: Path) -> list:
    """Every file under ``directory`` with its size, mtime and sha256."""
    out = []
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            st = path.stat()
            out.append([str(path.relative_to(directory)), st.st_size,
                        st.st_mtime_ns,
                        hashlib.sha256(path.read_bytes()).hexdigest()])
    return out


def write_config(path: Path, config: dict, output_dir: Path):
    config = json.loads(json.dumps(config))
    config["io"]["output_dir"] = str(output_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=1, sort_keys=True))


def set_up(spec: dict, work: Path, seconds: float, trace: bool,
           env: dict, deadline: Deadline, procs: list):
    """Fresh directories and configs, the cold fill, a ready worker."""
    t0 = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    warm_cache = work / "cache" / "warm"
    commands = []
    for cmd in spec["commands"]:
        name = cmd["config"]
        cfg_path = work / "configs" / f"{name}.json"
        write_config(cfg_path, spec["configs"][name], work / "out" / name)
        commands.append({**cmd, "name": name, "config_path": str(cfg_path),
                         "output": str(work / "out" / name / "fcs.json"),
                         "cache_dir": str(warm_cache)})
    if spec["cold"]:
        cold_cfg = work / "configs" / "cold.json"
        write_config(cold_cfg, spec["configs"][spec["cold"]],
                     work / "out" / "cold")
        cold = subprocess.Popen(
            [sys.executable, "-m", "weldfcs.cli", "fcs", "--config",
             str(cold_cfg), "--threads", "1", "--cache-dir", str(warm_cache)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        procs.append(cold)
        try:
            rc = cold.wait(timeout=deadline.left())
        except subprocess.TimeoutExpired:
            raise BenchError("cold fill did not finish before the deadline")
        if rc != 0:
            raise BenchError(f"cold fill exited with {rc}")
    plan = {"workload": spec["workload"], "commands": commands,
            "seconds": seconds, "trace": trace, "work": str(work),
            "result": str(work / "result.json")}
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             str(plan_path)], cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    procs.append(proc)
    if read_line(proc, deadline) != "ready":
        raise BenchError("worker failed to start")
    return proc, time.perf_counter() - t0


def wait_rusage(proc: subprocess.Popen, deadline: Deadline):
    """Exit code and peak RSS (MB) of a worker that is about to exit."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        deadline.left()
        time.sleep(0.01)


def stop(procs: list):
    for proc in procs:
        if proc.returncode is None and proc.poll() is None:
            proc.kill()
            proc.wait()


def run_workload(spec: dict, seconds: float, trace: bool, base: Path):
    deadline = Deadline(DEADLINE_S)
    env = child_env()
    procs = []
    try:
        setup_times = []
        for k in range(SETUPS):
            work = base / f"setup{k}"
            proc, dt = set_up(spec, work, seconds, trace, env, deadline,
                              procs)
            setup_times.append(dt)
            if k < SETUPS - 1:
                proc.stdin.write("quit\n")
                proc.stdin.flush()
                proc.wait(timeout=deadline.left())
                shutil.rmtree(work)
        warm_cache = work / "cache" / "warm"
        cache_before = cache_listing(warm_cache) if spec["cold"] else None
        proc.stdin.write("go\n")
        proc.stdin.flush()
        if read_line(proc, deadline) != "done":
            raise BenchError("worker stopped before finishing its rounds")
        rc, peak_rss_mb = wait_rusage(proc, deadline)
        if rc != 0:
            raise BenchError(f"worker exited with {rc}")
        result = json.loads((work / "result.json").read_text())
    finally:
        stop(procs)
    record = {"workload": spec["workload"], "seed": spec["seed"],
              "inputs": spec["inputs"], "outputs": result["outputs"],
              "round_hashes": [r["hashes"] for r in result["rounds"]],
              "closed": result["closed"]}
    if spec["cold"]:
        record["cold"] = (work / "out" / "cold" / "fcs.json").read_text()
        record["cache_before"] = cache_before
        record["cache_after"] = cache_listing(warm_cache)
    return setup_times, peak_rss_mb, result, record, work


def layer_metrics(rounds: list) -> dict:
    """Per-layer metrics: means over traced rounds, plus the overhead."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    unit = {m: "s" for m in TIME_METRICS}
    unit.update({m: "count" for m in COUNT_METRICS})
    unit.update({"fcs.weld_nodes": "count", "cache.hit_ratio": "ratio"})
    out = {}
    for name in traced[0]["layers"]:
        value = statistics.fmean(r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": unit[name]}
    overhead = (statistics.fmean(r["seconds"] for r in traced)
                - statistics.fmean(r["seconds"] for r in plain))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def print_fingerprint(record: dict):
    """Every ln Psi of the first round, at full precision."""
    for name, text in sorted(record["outputs"].items()):
        shown = []
        for key in ("ln_psi", "ln_psi_finite"):
            try:
                vals = checks.ln_psi(text, key)
            except (KeyError, ValueError):
                continue
            if vals in shown:       # finite mode writes both keys alike
                continue
            shown.append(vals)
            for (t, lam), z in vals.items():
                print(f"lnpsi {name} {key} t={t!r} lambda={lam!r}: "
                      f"{z.real!r} {z.imag!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", default=None,
                        help="directory to copy the checked record and the "
                             "spans into")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "weldfcs" / "cli.py").is_file():
        print(f"weldfcs sources not found under {ROOT / 'src'}; run from the "
              f"root of a weldfcs checkout", file=sys.stderr)
        return 2

    spec = workloads.make(args.workload, args.seed)
    base = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        try:
            setup_times, rss, result, record, work = run_workload(
                spec, args.seconds, bool(args.trace), base)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        if args.keep:
            keep = Path(args.keep)
            keep.mkdir(parents=True, exist_ok=True)
            (keep / f"record-{args.workload}.json").write_text(
                json.dumps(record, indent=1, sort_keys=True) + "\n")
            if args.trace:
                shutil.copy(work / "spans.jsonl",
                            keep / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:             # another run still uses it
            pass

    try:
        results = checks.run(record)
    except (KeyError, ValueError, TypeError) as exc:
        results = [checks.Check("outputs_readable", False, repr(exc),
                                "parseable")]
    rounds = result["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        metrics = layer_metrics(rounds)
    else:
        metrics = {
            "lnpsi_per_s": {"value": statistics.median(
                r["values"] / r["seconds"] for r in rounds), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    correct = all(c.ok for c in results)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(rounds)} rounds in {sum(r['seconds'] for r in rounds):.2f} s,"
          f" set-ups {', '.join(f'{s:.3f}' for s in setup_times)} s")
    for c in results:
        print(c.line())
    print_fingerprint(record)
    if result["absent"]:
        print(f"absent layers: {', '.join(result['absent'])}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {attempted}  failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
