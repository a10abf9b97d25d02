"""One workload process: import weldfcs, then run timed rounds on request.

    python3 worker.py <plan.json>

The plan is written by ``run.py``.  The worker imports the program, prints
``ready`` and waits for one line on stdin: ``quit`` ends it (a set-up that is
only timed), ``go`` runs whole rounds of the plan's ``weldfcs fcs`` commands
until the plan's seconds have passed, then writes the results file and
prints ``done``.  With tracing on, untraced and traced rounds alternate, so
the two can be compared on the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

import weldfcs.cli as cli
from weldfcs.config import load_config
from weldfcs.fcs import moments_closed_form


def run_command(argv) -> int:
    try:
        return cli.main(argv)
    except Exception as exc:  # an escaped traceback fails the command's rows
        print(f"command {argv} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


def timed_rounds(plan: dict, tracer):
    commands = plan["commands"]
    work = Path(plan["work"])
    rounds = []
    first_outputs = {}
    start = time.perf_counter()
    while True:
        k = len(rounds)
        traced = tracer is not None and k % 2 == 1
        argvs = []
        for cmd in commands:
            argv = ["fcs", "--config", cmd["config_path"], "--threads", "1",
                    "--cache-dir", cmd["cache_dir"]]
            if cmd["fresh_cache"]:
                argv[-1] = str(work / "cache" / f"{cmd['name']}-r{k}")
            argvs.append(argv)
        if traced:
            mark = tracer.mark()
            tracer.install()
        attempted = failed = values = 0
        t0 = time.perf_counter()
        for cmd, argv in zip(commands, argvs):
            rc = run_command(argv)
            attempted += cmd["rows"]
            if rc == 0:
                values += cmd["values"]
            else:
                failed += cmd["rows"]
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        hashes = []
        for cmd in commands:
            path = Path(cmd["output"])
            data = path.read_bytes() if path.exists() else b""
            hashes.append(hashlib.sha256(data).hexdigest())
            first_outputs.setdefault(cmd["name"], data.decode())
            path.unlink(missing_ok=True)
        for argv, cmd in zip(argvs, commands):
            if cmd["fresh_cache"]:
                shutil.rmtree(argv[-1], ignore_errors=True)
        rounds.append({"seconds": elapsed, "attempted": attempted,
                       "failed": failed, "values": values, "traced": traced,
                       "hashes": hashes,
                       "layers": tracer.metrics_since(mark) if traced
                       else None})
        done = time.perf_counter() - start >= plan["seconds"]
        if done and (tracer is None or len(rounds) % 2 == 0):
            return rounds, first_outputs


def closed_forms(plan: dict) -> dict:
    out = {}
    for cmd in plan["commands"]:
        if plan["workload"] == "warm-grid":
            continue
        cfg = load_config(cmd["config_path"])
        t = float(cfg.experiment["t_values"][0])
        closed = moments_closed_form(cfg.profile, cfg.theory.c, t, cfg.v)
        out[cmd["name"]] = {"mean": float(closed["mean"]),
                            "variance": float(closed["variance"])}
    return out


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    # the protocol owns stdout; anything the program prints goes to stderr
    proto, sys.stdout = sys.stdout, sys.stderr
    tracer = None
    if plan["trace"]:
        from spans import Tracer
        tracer = Tracer()
    print("ready", file=proto, flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    rounds, outputs = timed_rounds(plan, tracer)
    result = {"rounds": rounds, "outputs": outputs,
              "closed": closed_forms(plan),
              "absent": tracer.absent if tracer else []}
    if tracer is not None:
        tracer.dump(Path(plan["work"]) / "spans.jsonl")
    Path(plan["result"]).write_text(json.dumps(result))
    print("done", file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
