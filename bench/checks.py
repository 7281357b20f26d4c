"""Correctness checks on the outputs of the three workloads.

Every check returns a list of problems (empty when the output is right).
Targets are computed here from the inputs, or are properties the method
must have; no check reads its target from the program's own output.
"""

from __future__ import annotations

import math

from scipy.special import stdtrit

#: Published values and tolerances (the paper's three-digit constants).
PUBLISHED = {
    "H2": (1.0, 1e-3),
    "H3": (0.923, 5e-3),
    "H4": (0.874, 5e-3),
    "H5": (0.846, 5e-3),
    "I1_d2": (0.06391, 5e-4),
    "I2_d2": (0.00439, 5e-4),
    "I_d2": (0.0683, 1e-3),
}

#: Two-sided false-alarm probability of the Monte Carlo mean checks; the
#: tolerance is the Student-t quantile for the sample count, so a correct
#: estimator fails one check in a million seeds, whatever its sample size.
FALSE_ALARM = 1e-6

#: The enumerator's pure coefficients are checked to the reproduce tolerance.
PURE_COEF_TOL = 1e-6
DUALITY_TOL = 1e-8
BRUGGEMAN_ROOT_TOL = 1e-10


def _close(value, target) -> bool:
    # float rounding between two summation orders, far below any real error
    return abs(value - target) <= 1e-16 + 1e-12 * abs(target)


def law_moments(atoms):
    """Mean, <u^2>, <u^3> and the harmonic mean of an atomic law."""
    mean = math.fsum(p * v for v, p in atoms)
    m2 = math.fsum(p * (v / mean - 1.0) ** 2 for v, p in atoms)
    m3 = math.fsum(p * (v / mean - 1.0) ** 3 for v, p in atoms)
    harmonic = 1.0 / math.fsum(p / v for v, p in atoms)
    return mean, m2, m3, harmonic


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def check_reproduce(report: dict) -> list[str]:
    problems = []
    if report.get("all_pass") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c["pass"]]
        problems.append(f"reproduce all_pass is not true (failed: {failed})")
    by_name = {c["name"]: c for c in report.get("checks", [])}
    mc = by_name.get("mc_kd_mean")
    if mc is None:
        problems.append("reproduce report has no mc_kd_mean")
    else:
        target = math.sqrt(0.6 * 1.4)
        if not abs(mc["value"] - target) <= 3.0 * mc["stderr"]:
            problems.append(
                f"mc_kd_mean {mc['value']} not within 3 stderr ({mc['stderr']}) of {target}"
            )
    for name, (target, tol) in PUBLISHED.items():
        entry = by_name.get(name)
        if entry is None:
            problems.append(f"reproduce report has no {name}")
        elif not abs(entry["value"] - target) <= tol:
            problems.append(f"{name}={entry['value']} not within {tol} of {target}")
    return problems


def same_report(first: dict, second: dict) -> list[str]:
    """Reports must agree in everything but the timestamp."""
    a = {k: v for k, v in first.items() if k != "timestamp"}
    b = {k: v for k, v in second.items() if k != "timestamp"}
    return [] if a == b else ["reproduce reports differ apart from timestamp"]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def mean_tolerance(stderr: float, samples: int) -> float:
    return float(stdtrit(samples - 1, 1.0 - FALSE_ALARM / 2.0)) * stderr


def check_oracle_case(case: dict, result: dict) -> list[str]:
    """case: name, d, atoms; result: mean, stderr, samples, per_sample."""
    name = case["name"]
    values = [v for v, _ in case["atoms"]]
    problems = []
    lo, hi = min(values), max(values)
    outside = [x for x in result["per_sample"] if not lo <= x <= hi]
    if outside:
        problems.append(f"{name}: {len(outside)} per-sample estimates outside [{lo}, {hi}]")
    mean = result["mean"]
    symmetric = len(values) == 2 and case["atoms"][0][1] == case["atoms"][1][1]
    if case["d"] == 2 and symmetric:
        exact = math.sqrt(values[0] * values[-1])
        tol = mean_tolerance(result["stderr"], result["samples"])
        if not abs(mean - exact) <= tol:
            problems.append(
                f"{name}: mean {mean} not within {tol:.3g} of the Keller-Dykhne value {exact}"
            )
    else:
        arith, _, _, harmonic = law_moments(case["atoms"])
        if not harmonic <= mean <= arith:
            problems.append(f"{name}: mean {mean} outside Wiener bounds [{harmonic}, {arith}]")
    return problems


def same_samples(first: dict, second: dict) -> list[str]:
    """Seeded per-sample estimates must repeat bit for bit."""
    return [
        f"{name}: per-sample estimates differ between passes"
        for name in first
        if first[name]["per_sample"] != second[name]["per_sample"]
    ]


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def check_terms(terms: dict, atoms, d: int, where: str) -> list[str]:
    _, m2, m3, _ = law_moments(atoms)
    problems = []
    if not _close(terms["2"], -m2 / d):
        problems.append(f"{where}: order-2 term {terms['2']} != -<u^2>/d = {-m2 / d}")
    if not _close(terms["3"], m3 / d**2):
        problems.append(f"{where}: order-3 term {terms['3']} != <u^3>/d^2 = {m3 / d**2}")
    return problems


def check_bruggeman_root(sigma_b: float, atoms, d: int, where: str) -> list[str]:
    mean, _, _, harmonic = law_moments(atoms)
    residual = math.fsum(p * (v - sigma_b) / (v + (d - 1) * sigma_b) for v, p in atoms)
    problems = []
    if not abs(residual) <= BRUGGEMAN_ROOT_TOL:
        problems.append(f"{where}: sigma_B={sigma_b} leaves residual {residual}")
    if not harmonic <= sigma_b <= mean:
        problems.append(f"{where}: sigma_B={sigma_b} outside [{harmonic}, {mean}]")
    return problems


def check_query(argv: list[str], out: dict, atoms) -> list[str]:
    """Check one CLI call's JSON output; atoms are the law file's atoms."""
    command = argv[0]
    where = " ".join(argv)
    if command == "constants":
        d = out["d"]
        fields = [("H", f"H{d}")]
        if d == 2:
            fields += [("I1", "I1_d2"), ("I2", "I2_d2"), ("I", "I_d2")]
        problems = []
        for field, name in fields:
            target, tol = PUBLISHED[name]
            if not abs(out[field] - target) <= tol:
                problems.append(f"{where}: {name}={out[field]} not within {tol} of {target}")
        return problems
    if command == "expand":
        return check_terms(out["terms"], atoms, out["d"], where)
    if command == "compare":
        return check_terms(out["sigma_e_series"]["terms"], atoms, out["d"], where) + (
            check_bruggeman_root(out["sigma_B"], atoms, out["d"], where)
        )
    if command == "bruggeman":
        return check_bruggeman_root(out["sigma_B"], atoms, out["d"], where)
    if command == "duality-check":
        determined = [
            v for k, v in out["abs_even_residuals"].items()
            if int(k) not in out["informational_orders"]
        ]
        worst = max(determined + [out["max_determined_residual"]])
        return [] if worst <= DUALITY_TOL else [f"{where}: duality residual {worst}"]
    if command == "enumerate":
        d, k = out["d"], out["k"]
        expected = {2: ("2", -1.0 / d), 3: ("3", 1.0 / d**2)}.get(k)
        if expected is None:
            return []
        sig, target = expected
        value = out["polynomial"].get(sig)
        tol = max(PURE_COEF_TOL, out["error"].get(sig, 0.0))
        if value is None or not abs(value - target) <= tol:
            return [f"{where}: coefficient {value} != {target}"]
        return []
    return [f"{where}: no check for command {command}"]
