"""Each benchmark check accepts the program's real output and rejects a
perturbed copy of it.

Run from the root of a checkout: ``python3 -m pytest -q bench/tests``.
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from workloads import Oracle, Queries, call_cli  # noqa: E402

KD = math.sqrt(0.6 * 1.4)


@pytest.fixture(scope="module")
def queries(tmp_path_factory):
    root = tmp_path_factory.mktemp("queries")
    mp = pytest.MonkeyPatch()
    mp.setenv("HOMOGENIZE_CACHE_DIR", str(root / "cache"))
    work = Queries(3, root)
    outputs = {}
    for argv in work.calls:
        if "--dim" in argv and argv[argv.index("--dim") + 1] != "2":
            continue  # d=2 covers every command; larger tables only cost time
        code, text = call_cli(argv)
        assert code == 0
        outputs.setdefault(argv[0], (argv, json.loads(text)))
    yield work, outputs
    mp.undo()


def _atoms(work, argv):
    return work.atoms.get(argv[argv.index("--dist") + 1]) if "--dist" in argv else None


def _rejects(work, argv, out):
    return checks.check_query(argv, out, _atoms(work, argv)) != []


def test_real_query_outputs_pass(queries):
    work, outputs = queries
    assert set(outputs) == {"constants", "expand", "compare", "bruggeman",
                            "duality-check", "enumerate"}
    for argv, out in outputs.values():
        assert checks.check_query(argv, out, _atoms(work, argv)) == []


@pytest.mark.parametrize("command,path,factor", [
    ("expand", ("terms", "2"), 1 + 1e-9),
    ("expand", ("terms", "3"), 1 + 1e-9),
    ("compare", ("sigma_e_series", "terms", "2"), 1 + 1e-9),
    ("compare", ("sigma_B",), 1 + 1e-8),
    ("bruggeman", ("sigma_B",), 1 + 1e-8),
    ("constants", ("H",), 1.01),
    ("constants", ("I1",), 1.01),
])
def test_perturbed_query_value_rejected(queries, command, path, factor):
    work, outputs = queries
    argv, out = outputs[command]
    bad = copy.deepcopy(out)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= factor
    assert _rejects(work, argv, bad)


def test_bruggeman_root_outside_means_rejected(queries):
    work, outputs = queries
    argv, out = outputs["bruggeman"]
    atoms = _atoms(work, argv)
    assert checks.check_bruggeman_root(max(v for v, _ in atoms), atoms, 2, "x")


def test_duality_residual_rejected(queries):
    work, outputs = queries
    argv, out = outputs["duality-check"]
    bad = copy.deepcopy(out)
    bad["abs_even_residuals"]["4"] = 2e-8
    assert _rejects(work, argv, bad)


def test_enumerated_coefficient_rejected(queries):
    work, outputs = queries
    argv, out = outputs["enumerate"]
    assert out["k"] in (2, 3, 4, 5)
    for k, sig, target in ((2, "2", -0.5), (3, "3", 0.25)):
        good = {"d": 2, "k": k, "polynomial": {sig: target}, "error": {sig: 0.0}}
        assert checks.check_query(argv, good, None) == []
        good["polynomial"][sig] = target + 1e-5
        assert checks.check_query(argv, good, None) != []


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_pass():
    work = Oracle(5, None)
    small = [dict(case, L=8, samples=12) for case in work.cases]
    work.cases = small
    return work, work.run_pass()


def test_real_oracle_pass_passes(oracle_pass):
    work, result = oracle_pass
    assert result.failed == 0
    assert work.check(result, result) == []
    assert work.check(result, work.run_pass()) == []


def test_oracle_mean_off_keller_dykhne_rejected(oracle_pass):
    work, result = oracle_pass
    case = work.cases[0]
    out = dict(result.outputs[case["name"]])
    out["mean"] = KD + 1.1 * checks.mean_tolerance(out["stderr"], out["samples"])
    assert checks.check_oracle_case(case, out)


def test_oracle_3d_mean_outside_wiener_bounds_rejected(oracle_pass):
    work, result = oracle_pass
    case = next(c for c in work.cases if c["d"] == 3)
    out = dict(result.outputs[case["name"]], mean=0.83)
    assert checks.check_oracle_case(case, out)


def test_oracle_sample_outside_atoms_rejected(oracle_pass):
    work, result = oracle_pass
    case = work.cases[0]
    out = dict(result.outputs[case["name"]])
    out["per_sample"] = out["per_sample"][:-1] + (1.5,)
    assert checks.check_oracle_case(case, out)


def test_oracle_samples_not_repeated_rejected(oracle_pass):
    _, result = oracle_pass
    bad = copy.deepcopy(result.outputs)
    name = next(iter(bad))
    first = bad[name]["per_sample"]
    bad[name]["per_sample"] = (math.nextafter(first[0], 2.0),) + first[1:]
    assert checks.same_samples(result.outputs, bad)


# ---------------------------------------------------------------------------
# reproduce (a synthetic report with the published values)
# ---------------------------------------------------------------------------

def _report():
    rows = [{"name": n, "value": t, "target": t, "tol": tol, "pass": True}
            for n, (t, tol) in checks.PUBLISHED.items()]
    rows.append({"name": "mc_kd_mean", "value": KD + 1e-4, "target": KD,
                 "tol": 1.5e-3, "pass": True, "stderr": 5e-4})
    return {"command": "reproduce", "timestamp": "t0", "checks": rows, "all_pass": True}


def test_reproduce_report_passes():
    assert checks.check_reproduce(_report()) == []
    later = dict(_report(), timestamp="t1")
    assert checks.same_report(_report(), later) == []


@pytest.mark.parametrize("name,value", [
    ("H2", 1.002), ("H3", 0.929), ("H5", 0.84), ("I1_d2", 0.0645),
    ("I2_d2", 0.0050), ("I_d2", 0.0695), ("mc_kd_mean", KD + 1.6e-3),
])
def test_reproduce_perturbed_value_rejected(name, value):
    report = _report()
    next(c for c in report["checks"] if c["name"] == name)["value"] = value
    assert checks.check_reproduce(report)


def test_reproduce_not_all_pass_rejected():
    assert checks.check_reproduce(dict(_report(), all_pass=False))


def test_reproduce_reports_differing_beyond_timestamp_rejected():
    later = _report()
    later["checks"][0]["value"] += 1e-12
    assert checks.same_report(_report(), later)
