"""Benchmark of the homogenize package: one workload, one result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {reproduce,oracle,queries} --seed N \
        --seconds 25 --trace {0,1}

Each workload runs in fresh child processes (bench/worker.py) that import
the package from the checkout's src/ with an empty kernel-table cache.
SETUP_SAMPLES children measure set-up; the middle one also runs the
workload: a cold pass, then warm passes until --seconds have passed.  The
last line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  Results and traces are
kept under bench/out/.  No thread-count variable is set: the children
inherit the caller's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reproduce", "oracle", "queries")
#: Processes whose set-up is timed; setup_s is their median.
SETUP_SAMPLES = 7
#: Whole-run budget, below the 180 s a run may take.
BUDGET_S = 170.0
KEEP = ("result.json", "trace.json")


def spawn(args, mode: str, index: int, workdir: Path, deadline: float) -> dict:
    result = workdir / f"{mode}-{index}.json"
    env = dict(os.environ, HOMOGENIZE_CACHE_DIR=str(workdir / f"cache-{index}"))
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), mode,
           str(args.trace), str(args.seconds), repr(time.monotonic()), str(workdir), str(result)]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(result.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "homogenize" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'homogenize'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    workdir = ROOT / "bench" / "out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    workdir.mkdir(parents=True)
    # set-up children run before and after the measuring one, so their
    # median spans the run rather than one moment of the machine's load
    before = (SETUP_SAMPLES - 1) // 2
    try:
        setups = [spawn(args, "setup", i, workdir, deadline)["setup_s"] for i in range(before)]
        run = spawn(args, "run", before, workdir, deadline)
        setups += [spawn(args, "setup", i, workdir, deadline)["setup_s"]
                   for i in range(before + 1, SETUP_SAMPLES)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in workdir.iterdir():
            if path.name not in KEEP:
                shutil.rmtree(path) if path.is_dir() else path.unlink()
    setups.append(run["setup_s"])

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in run["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cold_s": {"value": run["cold_s"], "unit": "s"},
            "warm_s": {"value": statistics.median(run["warm_s"]), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    for problem in run["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    })
    (workdir / "result.json").write_text(
        json.dumps({**run, "setup_s": setups, "line": json.loads(line)}, indent=1),
        encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
