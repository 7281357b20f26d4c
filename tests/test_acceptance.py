"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The criteria read the report of `homogenize reproduce --seed 7`, run once
per session; the report is the only place their numbers are computed.
`GATES` pins every check of that report by name, in order, with its
target and tolerance, so an edit to the report that drops, renames or
loosens a gate fails here.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines for
passing criteria as well; they are always shown for failures).
"""

import json
import math

import pytest

from homogenize import cli, coefficients, enumerate_order, k5_via_H, max_order


def _three_stderr(check, report, ctx):
    return 3.0 * check["stderr"]


def _k5_via_h(d):
    return lambda check, report, ctx: k5_via_H(ctx["consts"][d])


def _k5_tol(d):
    return lambda check, report, ctx: max(2.0 * ctx["consts"][d].err["K5"], 1e-9)


def _closed_form(d, sig):
    return lambda check, report, ctx: ctx["closed_form"][d].a[sig]


def _coef_tol(d, k, sig):
    """The larger of a floor (1e-6 for a pure moment; else 1e-4 relative, or
    absolute near zero) and the summed enumerator and closed-form errors."""

    def rule(check, report, ctx):
        ref = ctx["closed_form"][d]
        want = ref.a[sig]
        if len(sig) == 1:
            floor = 1e-6
        else:
            floor = 1e-4 * abs(want) if abs(want) > 1e-3 else 1e-4
        return max(floor, ctx["enum_error"][d, k].get(sig, 0.0) + ref.err.get(sig, 0.0))

    return rule


def _enum_gates():
    gates = {}
    for d in (2, 3):
        for k, sigs in ((2, [(2,)]), (3, [(3,)]), (4, [(2, 2), (4,)]), (5, [(2, 3), (5,)])):
            for sig in sigs:
                name = f"enum_d{d}_k{k}_a[{','.join(map(str, sig))}]"
                gates[name] = (_closed_form(d, sig), _coef_tol(d, k, sig))
    return gates


def _kd(eps):
    return math.sqrt(1.0 - eps**2)


#: Every check of the report, in order: name -> (target, tol).  A number is
#: pinned exactly; a function is the rule the report must follow, evaluated
#: on the check, the report's checks by name and the error estimates the
#: rule is built from.
GATES = {
    "gamma11_origin_d2": (-0.5, 1e-6),
    "gamma11_origin_d3": (-1.0 / 3, 1e-6),
    "row_square_sum_d2": (1.0 / 2, 1e-4),
    "row_square_sum_d3": (1.0 / 3, 1e-4),
    "offorigin_cube_sum_d2": (0.0, 1e-5),
    "H2": (1.0, 1e-3),
    "H3": (0.923, 5e-3),
    "H4": (0.874, 5e-3),
    "H5": (0.846, 5e-3),
    "I1_d2": (0.06391, 5e-4),
    "I2_d2": (0.00439, 5e-4),
    "I_d2": (0.0683, 1e-3),
    "H_strictly_decreasing": (1.0, 0.0),
    **{f"K5_two_routes_d{d}": (_k5_via_h(d), _k5_tol(d)) for d in (2, 3, 4, 5)},
    **_enum_gates(),
    "duality_residual_max": (0.0, 1e-8),
    "relations_order4_a3=0.25": (0.0, 1e-8),
    "relations_order4_a3=0.4": (0.0, 1e-8),
    "relations_order6": (0.0, 1e-8),
    "kd_series_eps=0.1": (_kd(0.1), 2 * 0.1**8),
    "kd_bruggeman_eps=0.1": (_kd(0.1), 1e-10),
    "kd_series_eps=0.2": (_kd(0.2), 2 * 0.2**8),
    "kd_bruggeman_eps=0.2": (_kd(0.2), 1e-10),
    "kd_series_eps=0.4": (_kd(0.4), 2 * 0.4**8),
    "kd_bruggeman_eps=0.4": (_kd(0.4), 1e-10),
    "mc_kd_mean": (math.sqrt(0.6 * 1.4), _three_stderr),
    "mc_kd_stderr": (0.0, 3e-3),
    "mc_selfdual_mean": (1.0, _three_stderr),
    "mc_vs_series": (
        lambda check, report, ctx: report["mc_kd_mean"]["value"],
        lambda check, report, ctx: 3.0 * report["mc_kd_mean"]["stderr"],
    ),
    "remainder_honesty_violations": (0.0, 0.0),
    "comparison_sign_failures": (0.0, 0.0),
}

#: Extra fields that a check must carry with exactly these values.
PINNED_FIELDS = {
    "remainder_honesty_violations": {"cases": 80},  # 20 laws x orders 2..5
    "comparison_sign_failures": {"cases": 17},
}


@pytest.fixture(scope="session")
def reproduce_run(tmp_path_factory):
    """One `reproduce --seed 7` run on an empty kernel cache: (cache dir, report)."""
    work = tmp_path_factory.mktemp("reproduce")
    cache, out = work / "cache", work / "report.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HOMOGENIZE_CACHE_DIR", str(cache))
        cli.main(["reproduce", "--seed", "7", "--output", str(out)])
    return cache, json.loads(out.read_text())


@pytest.fixture(scope="session")
def report(reproduce_run):
    return reproduce_run[1]


@pytest.fixture(scope="session")
def checks(report):
    return {c["name"]: c for c in report["checks"]}


@pytest.fixture(scope="session")
def rule_inputs(table2, table3, const2, const3, const4, const5):
    """The error estimates and closed-form coefficients the rules read."""
    consts = {2: const2, 3: const3, 4: const4, 5: const5}
    tables = {2: table2, 3: table3}
    return {
        "consts": consts,
        "closed_form": {d: coefficients(d, max_order(d), consts[d]) for d in tables},
        "enum_error": {
            (d, k): enumerate_order(k, tables[d]).error for d in tables for k in (2, 3, 4, 5)
        },
    }


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def _gate_problems(name, checks, rule_inputs):
    """What is wrong with one pinned check of the report: missing, moved
    target or tolerance, a field changed, or a failed gate."""
    if name not in checks:
        return [f"{name}: missing from the report"]
    check = checks[name]
    problems = []
    for field, pinned in zip(("target", "tol"), GATES[name]):
        want = pinned(check, checks, rule_inputs) if callable(pinned) else pinned
        if check[field] != float(want):
            problems.append(f"{name}: {field} {check[field]!r}, pinned {float(want)!r}")
    for field, want in PINNED_FIELDS.get(name, {}).items():
        if check.get(field) != want:
            problems.append(f"{name}: {field} {check.get(field)!r}, pinned {want!r}")
    if not (check["pass"] and abs(check["value"] - check["target"]) <= check["tol"]):
        problems.append(
            f"{name}: value {check['value']:.6g} vs {check['target']:.6g} ± {check['tol']:.2g}"
        )
    return problems


def _criterion(num, title, names, checks, rule_inputs, detail):
    """Print and assert one criterion over its named checks; `detail()`
    describes a pass, and is called only once every check is present."""
    problems = [p for name in names for p in _gate_problems(name, checks, rule_inputs)]
    _report(num, title, not problems, "; ".join(problems) if problems else detail())


def test_report_holds_exactly_the_pinned_gates(report):
    names = [c["name"] for c in report["checks"]]
    assert names == list(GATES)
    assert (report["L"], report["samples"]) == (64, 50)
    # tighter than plain means over 200 samples (4.4e-4 and 8.6e-4 at seed 7)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["mc_kd_mean"]["stderr"] < 1e-4
    assert checks["mc_selfdual_mean"]["stderr"] < 4e-4


def test_criterion_01_kernel_identities(checks, rule_inputs):
    names = ["gamma11_origin_d2", "gamma11_origin_d3", "row_square_sum_d2",
             "row_square_sum_d3", "offorigin_cube_sum_d2"]
    _criterion(1, "kernel identities", names, checks, rule_inputs,
               lambda: "; ".join(f"{n}={checks[n]['value']:.8g}" for n in names))


def test_criterion_02_published_constants(checks, rule_inputs):
    names = ["H2", "H3", "H4", "H5", "I1_d2", "I2_d2", "I_d2", "H_strictly_decreasing",
             *(f"K5_two_routes_d{d}" for d in (2, 3, 4, 5))]
    _criterion(2, "published constants", names, checks, rule_inputs,
               lambda: ", ".join(f"{n}={checks[n]['value']:.5f}" for n in names[:7]))
    hs = [checks[f"H{d}"]["value"] for d in (2, 3, 4, 5)]
    assert checks["H_strictly_decreasing"]["H_values"] == hs


def test_criterion_03_enumerator_vs_closed_form(checks, rule_inputs):
    names = [n for n in GATES if n.startswith("enum_")]
    _criterion(3, "enumerator matches closed form", names, checks, rule_inputs,
               lambda: f"{len(names)} coefficients checked")


def test_criterion_04_duality_relations(checks, rule_inputs):
    names = ["duality_residual_max", "relations_order4_a3=0.25",
             "relations_order4_a3=0.4", "relations_order6"]
    _criterion(4, "duality residuals and relation recovery", names, checks, rule_inputs,
               lambda: f"max residual {checks[names[0]]['value']:.2e}, max relation "
                       f"deviation {max(checks[n]['value'] for n in names[1:]):.2e}")


def test_criterion_05_keller_dykhne_closure(checks, rule_inputs):
    names = [f"kd_{kind}_eps={eps}" for eps in (0.1, 0.2, 0.4) for kind in ("series", "bruggeman")]
    _criterion(5, "Keller-Dykhne closure", names, checks, rule_inputs,
               lambda: "; ".join(f"{n}: |dev|={abs(checks[n]['value'] - checks[n]['target']):.2e}"
                                 for n in names[::2]))


def test_criterion_06_monte_carlo_oracle(checks, rule_inputs):
    names = ["mc_kd_mean", "mc_kd_stderr", "mc_selfdual_mean"]

    def detail():
        kd, sd = checks["mc_kd_mean"], checks["mc_selfdual_mean"]
        return (f"kd mean={kd['value']:.6f}±{kd['stderr']:.6f} (target {kd['target']:.7f}); "
                f"self-dual mean={sd['value']:.6f}±{sd['stderr']:.6f}")

    _criterion(6, "Monte Carlo oracle", names, checks, rule_inputs, detail)
    assert checks["mc_kd_stderr"]["value"] == checks["mc_kd_mean"]["stderr"]
    # the certified solver bias of each mean stays under 1% of its gate
    for name in ("mc_kd_mean", "mc_selfdual_mean"):
        assert 0.0 < checks[name]["max_error"] <= 0.01 * checks[name]["tol"]


def test_criterion_07_expansion_vs_oracle(checks, rule_inputs):
    c = checks.get("mc_vs_series", {})
    _criterion(7, "expansion agrees with oracle", ["mc_vs_series"], checks, rule_inputs,
               lambda: f"|series-MC| = {abs(c['value'] - c['target']):.2e} "
                       f"vs 3*stderr = {c['tol']:.2e}")


def test_criterion_08_comparison_signs(checks, rule_inputs):
    _criterion(8, "comparison sign predictions", ["comparison_sign_failures"], checks,
               rule_inputs, lambda: "grid of 17 laws, u0 <= 0.2")


def test_criterion_09_remainder_bound_honesty(checks, rule_inputs):
    _criterion(9, "remainder bound honesty", ["remainder_honesty_violations"], checks,
               rule_inputs, lambda: "20 laws, n=2..5")


def test_criterion_10_reproduce_determinism(reproduce_run, tmp_path, monkeypatch):
    cache, first = reproduce_run
    monkeypatch.setenv("HOMOGENIZE_CACHE_DIR", str(cache))  # now warm
    out = tmp_path / "report.json"
    code = cli.main(["reproduce", "--seed", "7", "--output", str(out)])
    second = json.loads(out.read_text())
    first, second = dict(first), dict(second)
    first.pop("timestamp"), second.pop("timestamp")
    identical = json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    _report(10, "reproduce determinism", code == 0 and identical and second["all_pass"],
            f"{second['passed']}/{second['passed'] + second['failed']} checks pass, "
            f"exit {code}, reports identical: {identical}")
