"""Run one workload once per seed and report each metric's spread.

    python3 bench/spread.py --workload oracle --seeds 1-10 [--seconds 25] [--trace 0]

The spread is the distance between the first and third quartile of the
runs (statistics.quantiles, n=4) as a share of their median, the figure the
bounds in BENCHMARK.json are compared with.  Prints one line per run and a
table; the raw results go to bench/out/spread-<workload>-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            check=True, capture_output=True, text=True)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        line["seed"], line["wall_s"] = seed, time.monotonic() - t0
        runs.append(line)
        print(json.dumps(line), flush=True)
    print(f"\n{args.workload}: {len(runs)} runs, "
          f"wall {min(r['wall_s'] for r in runs):.1f}-{max(r['wall_s'] for r in runs):.1f} s, "
          f"correct {all(r['correct'] for r in runs)}, "
          f"failed {sorted({r['failed'] / r['attempted'] for r in runs})}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:40s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {(q3 - q1) / median:8.2%}")
    out = HERE / "out" / f"spread-{args.workload}-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
