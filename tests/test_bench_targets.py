"""The benchmark still reaches the package: every function its tracer wraps
exists, every attribute reader finds its fields, and every CLI call its
workloads make parses.

`bench/tracing.py` looks its targets up by (module, name) at run time and
reads attributes off their arguments and results, and `bench/workloads.py`
builds argv lists for the CLI, so a deleted function, field, keyword,
command or flag would only show as a failed benchmark run.  Both files are
loaded by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from homogenize import (
    bruggeman,
    cli,
    constants,
    distributions,
    enumerator,
    expansion,
    kernel,
    resistor,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_every_traced_target_resolves():
    tracing = _load("bench_tracing", BENCH / "tracing.py")
    assert tracing.TARGETS
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"homogenize.{module}"), name, None))
    ]
    assert missing == []


def test_every_reader_fills_its_attrs(tmp_path, monkeypatch):
    """One small real call per target with an attribute reader, with the
    keywords the benchmark passes, under an installed tracer."""
    tracing = _load("bench_tracing", BENCH / "tracing.py")
    monkeypatch.setenv("HOMOGENIZE_CACHE_DIR", str(tmp_path))
    law = distributions.two_component(0.6, 1.4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        table = kernel.get_kernel_table(2, 16, 3)  # built and saved
        kernel.get_kernel_table(2, 16, 3)  # loaded
        kernel.direct_quadrature(2, 16, (1, 0), 1, 1)
        consts = constants.dimension_constants(table=table)[0]
        enumerator.enumerate_order(2, table)
        bruggeman.solve_bruggeman(law, 2)
        resistor.estimate_sigma_e(2, 4, law, samples=2, seed=0, keep_per_sample=True)
        distributions.duality_residual_series(
            distributions.DualityProbe(p=0.3, alpha_ratio=2.0, order=6),
            expansion.coefficients(2, 6, consts),
        )
    finally:
        tracer.uninstall()
    readers = {f"{module}.{name}" for module, name, reader in tracing.TARGETS if reader}
    filled = {
        span["name"] for span in tracer.spans
        if span.get("attrs") and None not in span["attrs"].values()
    }
    assert sorted(readers - filled) == []


def test_every_workload_call_parses(tmp_path):
    workloads = _load("bench_workloads", BENCH / "workloads.py")
    calls = workloads.Queries(0, tmp_path).calls + [workloads.Reproduce(0, tmp_path).argv]
    assert len(calls) > 1
    parser = cli.build_parser()
    refused = []
    for argv in calls:
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused.append(argv)
    assert refused == []
