"""One workload in a fresh process: set up, run the passes, check, report.

Started by run.py as
``worker.py WORKLOAD SEED MODE TRACE SECONDS SPAWNED_AT WORKDIR RESULT``.
MODE is ``setup`` (import and make the inputs, then stop) or ``run``.
SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before the spawn,
so set-up time counts interpreter start-up.  The package is imported from
the checkout's ``src/``; the result goes to the JSON file RESULT.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

#: Untraced warm passes a run makes even when SECONDS runs out first.
MIN_WARM = 2


def measure(workload, seconds: float, tracer) -> dict:
    """Cold pass, then warm passes (each followed by a traced one when
    tracing) until SECONDS have passed since the cold pass began."""

    def timed(times: list, traced: bool):
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        result = workload.run_pass()
        times.append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
        return result

    start = time.perf_counter()
    cold_s: list[float] = []
    warm, traced = [], []
    cold = timed(cold_s, False)
    passes = [cold]
    if tracer:
        tracer.tag = "pass"
    while len(warm) < MIN_WARM or time.perf_counter() - start < seconds:
        passes.append(timed(warm, False))
        if tracer:
            passes.append(timed(traced, True))
    problems = [p for result in passes for p in workload.check(cold, result)]
    return {
        "cold_s": cold_s[0], "warm_s": warm, "traced_s": traced,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "problems": problems,
    }


def main(argv: list[str]) -> int:
    name, seed, mode, trace, seconds, spawned_at, workdir, result_path = argv
    seed, workdir = int(seed), Path(workdir)
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    import homogenize

    if Path(homogenize.__file__).resolve().parent != (src / "homogenize").resolve():
        print(f"error: homogenize imported from {homogenize.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    out = {"setup_s": time.monotonic() - float(spawned_at)}
    if mode == "run":
        tracer = None
        if trace == "1":
            from tracing import Tracer
            tracer = Tracer()
        out.update(measure(workload, float(seconds), tracer))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            out["layers"] = trace_layers(tracer, name, workdir, seed, out)
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


def trace_layers(tracer, name: str, workdir: Path, seed: int, out: dict) -> dict:
    """Run the layer suite, write the trace, return the per-layer metrics."""
    from layers import layer_metrics, run_suite
    from tracing import summary
    from workloads import Queries, make_laws, write_law

    import numpy as np

    law_file = workdir / "suite-law.json"
    write_law(make_laws(np.random.default_rng(seed), 1)[0], law_file)
    cli_calls = Queries(seed, workdir / "suite-queries").calls[:100]
    run_suite(tracer, workdir, law_file, seed, cli_calls)
    layers = layer_metrics(tracer.spans)
    overhead = statistics.median(out["traced_s"]) / statistics.median(out["warm_s"]) - 1.0
    layers["trace.overhead_pct"] = (100.0 * overhead, "%")
    tags = sorted({s["tag"] for s in tracer.spans} - {"pass"})
    trace = {
        "workload": name,
        "seed": seed,
        "traced_passes": len(out["traced_s"]),
        "pass_summary": summary(tracer.spans, "pass"),
        "suite_summary": {tag: summary(tracer.spans, tag) for tag in tags},
        "spans": tracer.spans,
    }
    (workdir / "trace.json").write_text(json.dumps(trace), encoding="utf-8")
    return layers


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
