"""The benchmark still reaches the package: every function its tracer wraps
exists, and every CLI call its workloads make parses.

`bench/tracing.py` looks its targets up by (module, name) at run time, and
`bench/workloads.py` builds argv lists for the CLI, so a deleted function,
command or flag would only show as a failed benchmark run.  Both files are
loaded by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from homogenize import cli

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
