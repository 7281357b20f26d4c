"""Command-line interface.

One subcommand per capability: kernel tables, dimension constants, series
expansion, brute-force enumeration, Bruggeman root and comparison, duality
checks, the Monte Carlo oracle, and `reproduce`, which reruns the headline
numbers against their targets and tolerances and emits the pass/fail
report the acceptance tests read.

Every command writes JSON, to stdout or to `--output FILE`.  Exit codes:
1 usage error, 2 invalid input, 3 numerical failure.  Kernel tables are
cached on disk keyed by (d, N, R) under $HOMOGENIZE_CACHE_DIR (default
~/.cache/homogenize).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

import numpy as np

from .bruggeman import bruggeman_series, compare, solve_bruggeman
from .constants import dimension_constants, k5_via_H
from .distributions import (
    DUALITY_GATE,
    DistributionSpec,
    DualityProbe,
    _order4_relations,
    duality_residual_series,
    load_distribution,
    moment_sum,
    moments,
    recover_relations_order4,
    recover_relations_order6,
    three_value,
    two_component,
)
from .enumerator import enumerate_order
from .errors import CapacityError, SolverError
from .expansion import coefficients, max_order, sigma_e_series
from .kernel import channel_array, gamma, get_kernel_table, lattice_power_sum
from .resistor import _require_tol, estimate_sigma_e


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sig_key(sig) -> str:
    return ",".join(str(s) for s in sig)


def _poly_dict(poly: dict) -> dict:
    return {_sig_key(sig): poly[sig] for sig in sorted(poly)}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_constants(args) -> dict:
    table = get_kernel_table(args.dim, N=args.resolution, R=args.radius)
    consts, _ = dimension_constants(table=table)
    return {
        "d": consts.d,
        "H": consts.H,
        "I1": consts.I1,
        "I2": consts.I2,
        "I": consts.I,
        "K5": consts.K5,
        "K5_via_H": k5_via_H(consts),
        "err": consts.err,
        "N": table.N,
        "R": table.R,
    }


def cmd_kernel(args) -> dict:
    table = get_kernel_table(args.dim, N=args.resolution, R=args.radius)
    d = table.d
    row = [lattice_power_sum(table, 1, a, 2) for a in range(1, d + 1)]
    row_value = sum(p.value for p in row)
    row_tail = sum(p.tail for p in row)
    norm = 0.0
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            p = lattice_power_sum(table, min(a, b), max(a, b), 2)
            norm += p.value + p.tail
    odd = lattice_power_sum(table, 1, 1, 3, include_origin=False)
    out = {
        "d": d,
        "N": table.N,
        "R": table.R,
        "gamma11_origin": gamma(table, 1, 1, (0,) * d),
        "row_square_sum": row_value,
        "row_square_sum_tail": row_tail,
        "row_square_target": 1.0 / d,
        "normalization_sum": norm,
        "offorigin_cube_sum": odd.value + odd.tail,
        "quad_defect": table.quad_defect,
    }
    if d == 2:
        arr = channel_array(table, 1, 1)
        folded = arr + arr.T
        folded[table.R, table.R] = 0.0  # the origin carries the trace
        out["antisymmetry_max"] = float(np.max(np.abs(folded)))
    return out


def _load_dist(args) -> DistributionSpec:
    if args.dist is None:
        raise ValueError("this command requires --dist FILE")
    return load_distribution(args.dist)


def _series_dict(s) -> dict:
    return {
        "sigma_e": s.sigma_e,
        "mean_sigma": s.mean_sigma,
        "terms": {str(k): v for k, v in sorted(s.terms.items())},
        "remainder": s.remainder_bound,
        "order": s.order,
        "valid": s.valid,
    }


def cmd_expand(args) -> dict:
    dist = _load_dist(args)
    consts, _ = dimension_constants(args.dim)
    series = sigma_e_series(dist, args.dim, args.order, consts)
    return {"d": args.dim} | _series_dict(series)


def cmd_enumerate(args) -> dict:
    table = get_kernel_table(args.dim, N=args.resolution, R=args.radius)
    eo = enumerate_order(args.k, table)
    out = {
        "d": args.dim,
        "k": args.k,
        "families": [
            {
                "pattern": list(f.pattern),
                "multiplicities": list(f.multiplicities),
                "direction_pinned": f.direction_pinned,
            }
            for f in eo.families
        ],
        "polynomial": _poly_dict(eo.polynomial),
        "error": _poly_dict(eo.error),
    }
    if not args.symbolic:
        dist = _load_dist(args)
        mom = moments(dist, args.k)
        out["value"] = moment_sum(eo.polynomial, mom.u_moment)
    return out


def cmd_bruggeman(args) -> dict:
    dist = _load_dist(args)
    root = solve_bruggeman(dist, args.dim)
    out = {
        "d": args.dim,
        "sigma_B": root.sigma_B,
        "xi": root.xi,
        "residual": root.residual,
        "iterations": root.iterations,
    }
    if args.series_order is not None:
        out["series"] = _series_dict(bruggeman_series(dist, args.dim, args.series_order))
    return out


def cmd_compare(args) -> dict:
    dist = _load_dist(args)
    consts, _ = dimension_constants(args.dim)
    report = compare(dist, args.dim, consts)
    return {
        "d": args.dim,
        "sigma_e_series": _series_dict(report.sigma_e_series),
        "sigma_B": report.sigma_B.sigma_B,
        "leading_difference": report.leading_difference,
        "leading_order": report.leading_order,
        "predicted_sign": report.predicted_sign,
        "case": report.case,
    }


def cmd_duality_check(args) -> dict:
    consts, _ = dimension_constants(2)
    coeffs = coefficients(2, 6, consts)
    probe = DualityProbe(p=args.p, alpha_ratio=args.alpha, order=args.order)
    res = duality_residual_series(probe, coeffs)
    even = {k: float(abs(res[k])) for k in range(2, args.order + 1, 2)}
    determined = [k for k in even if k <= coeffs.order]
    return {
        "p": args.p,
        "alpha": args.alpha,
        "order": args.order,
        "residual_coefficients": [float(c) for c in res],
        "abs_even_residuals": {str(k): v for k, v in even.items()},
        "max_determined_residual": max(even[k] for k in determined),
        "informational_orders": [k for k in even if k > coeffs.order],
    }


def cmd_oracle(args) -> dict:
    _require_tol(args.tol, "--tol")
    dist = _load_dist(args)
    est = estimate_sigma_e(
        args.dim,
        args.L,
        dist,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
        keep_per_sample=bool(args.per_sample_csv),
    )
    if args.per_sample_csv:
        with open(args.per_sample_csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["sample", "estimate"])
            for i, v in enumerate(est.per_sample):
                w.writerow([i, repr(v)])
    return {
        "d": args.dim,
        "L": args.L,
        "samples": est.samples,
        "skipped": est.skipped,
        "seed": args.seed,
        "mean": est.mean,
        "stderr": est.stderr,
        "max_error": est.max_error,
        "max_rel_error": est.max_rel_error,
    }


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _check(checks, name, value, target, tol, **extra):
    entry = {
        "name": name,
        "value": float(value),
        "target": float(target),
        "tol": float(tol),
        "pass": bool(abs(value - target) <= tol),
    }
    entry.update(extra)
    checks.append(entry)


def _mc_check(checks, name, est, target):
    """A Monte Carlo mean within 3 stderr of target, over all its samples:
    a skipped (unsolved) sample fails the check instead of shrinking n."""
    _check(checks, name, est.mean, target, 3.0 * est.stderr,
           stderr=est.stderr, skipped=est.skipped)
    checks[-1]["pass"] &= est.skipped == 0


def _coef_tol(ref: float, pure: bool) -> float:
    # relative for sizeable references, absolute floor near zero
    if pure:
        return 1e-6
    return 1e-4 * abs(ref) if abs(ref) > 1e-3 else 1e-4


#: Torus side and sample count of the two Monte Carlo runs of `reproduce`.
_MC_L = 64
_MC_SAMPLES = 50


def cmd_reproduce(args) -> dict:
    seed = args.seed
    checks: list[dict] = []

    tables = {d: get_kernel_table(d) for d in (2, 3, 4, 5)}
    consts = {d: dimension_constants(table=tables[d])[0] for d in (2, 3, 4, 5)}

    # kernel identities
    _check(checks, "gamma11_origin_d2", gamma(tables[2], 1, 1, (0, 0)), -0.5, 1e-6)
    _check(checks, "gamma11_origin_d3", gamma(tables[3], 1, 1, (0, 0, 0)), -1.0 / 3, 1e-6)
    for d in (2, 3):
        ps = [lattice_power_sum(tables[d], 1, a, 2) for a in range(1, d + 1)]
        _check(
            checks,
            f"row_square_sum_d{d}",
            sum(p.value + p.tail for p in ps),
            1.0 / d,
            1e-4,
        )
    odd = lattice_power_sum(tables[2], 1, 1, 3, include_origin=False)
    _check(checks, "offorigin_cube_sum_d2", odd.value + odd.tail, 0.0, 1e-5)

    # published constants
    _check(checks, "H2", consts[2].H, 1.0, 1e-3)
    _check(checks, "H3", consts[3].H, 0.923, 5e-3)
    _check(checks, "H4", consts[4].H, 0.874, 5e-3)
    _check(checks, "H5", consts[5].H, 0.846, 5e-3)
    _check(checks, "I1_d2", consts[2].I1, 0.06391, 5e-4)
    _check(checks, "I2_d2", consts[2].I2, 0.00439, 5e-4)
    _check(checks, "I_d2", consts[2].I, 0.0683, 1e-3)
    hs = [consts[d].H for d in (2, 3, 4, 5)]
    decreasing = all(a > b for a, b in zip(hs, hs[1:]))
    _check(checks, "H_strictly_decreasing", float(decreasing), 1.0, 0.0, H_values=hs)
    for d in (2, 3, 4, 5):
        _check(
            checks,
            f"K5_two_routes_d{d}",
            consts[d].K5,
            k5_via_H(consts[d]),
            max(2.0 * consts[d].err["K5"], 1e-9),
        )

    # enumerator vs closed form
    for d in (2, 3):
        table, cst = tables[d], consts[d]
        ref = coefficients(d, max_order(d), cst)
        enums = {k: enumerate_order(k, table) for k in (2, 3, 4, 5)}
        for k, eo in enums.items():
            for sig in (s for s in sorted(ref.a) if sum(s) == k):
                refval = ref.a[sig]
                pure = len(sig) == 1
                tol = max(
                    _coef_tol(refval, pure),
                    eo.error.get(sig, 0.0) + ref.err.get(sig, 0.0),
                )
                _check(
                    checks,
                    f"enum_d{d}_k{k}_a[{_sig_key(sig)}]",
                    eo.polynomial.get(sig, 0.0),
                    refval,
                    tol,
                )

    # duality residual suite
    coeffs2 = coefficients(2, 6, consts[2])
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        p = float(rng.uniform(0.05, 0.45))
        alpha = float(rng.uniform(-3.0, 3.0))
        res = duality_residual_series(DualityProbe(p=p, alpha_ratio=alpha, order=6), coeffs2)
        worst = max(worst, max(abs(res[2]), abs(res[4]), abs(res[6])))
    _check(checks, "duality_residual_max", worst, 0.0, DUALITY_GATE)

    for a3 in (0.25, 0.4):
        rel4 = recover_relations_order4(a3)
        dev4 = max(abs(rel4[sig] - c) for sig, c in _order4_relations(a3).items())
        _check(checks, f"relations_order4_a3={a3}", dev4, 0.0, 1e-8)
    a = coeffs2.a
    rel6 = recover_relations_order6(a[(3,)], a[(5,)], a[(2, 3)])
    dev6 = max(abs(rel6[sig] - a[sig]) for sig in ((2, 2, 2), (3, 3), (2, 4), (6,)))
    _check(checks, "relations_order6", dev6, 0.0, 1e-8)

    # Keller-Dykhne closure
    for eps in (0.1, 0.2, 0.4):
        dist = two_component(1.0 - eps, 1.0 + eps)
        exact = float(np.sqrt(1.0 - eps**2))
        series = sigma_e_series(dist, 2, 6, consts[2]).sigma_e
        _check(checks, f"kd_series_eps={eps}", series, exact, 2.0 * eps**8)
        root = solve_bruggeman(dist, 2).sigma_B
        _check(checks, f"kd_bruggeman_eps={eps}", root, exact, 1e-10)

    # Monte Carlo oracle
    kd = two_component(0.6, 1.4)
    est = estimate_sigma_e(2, _MC_L, kd, samples=_MC_SAMPLES, seed=seed)
    _mc_check(checks, "mc_kd_mean", est, float(np.sqrt(0.6 * 1.4)))
    _check(checks, "mc_kd_stderr", est.stderr, 0.0, 3e-3)
    sd = two_component(2.0, 0.5)
    est_sd = estimate_sigma_e(2, _MC_L, sd, samples=_MC_SAMPLES, seed=seed + 1)
    _mc_check(checks, "mc_selfdual_mean", est_sd, 1.0)
    series_kd = sigma_e_series(kd, 2, 6, consts[2]).sigma_e
    _check(checks, "mc_vs_series", series_kd, est.mean, 3.0 * est.stderr)

    # remainder-bound honesty on random laws
    violations = 0
    total = 0
    for dist in _random_laws(rng, count=20, u0_max=0.4):
        results = {
            n: sigma_e_series(dist, 2, n, consts[2]) for n in range(2, 7)
        }
        for n in range(2, 6):
            total += 1
            step = abs(results[n].sigma_e - results[n + 1].sigma_e)
            if step > results[n].remainder_bound:
                violations += 1
    _check(checks, "remainder_honesty_violations", violations, 0.0, 0.0, cases=total)

    # comparison signs
    sign_cases = [(two_component(1 - eps, 1 + eps), 3, "positive") for eps in (0.05, 0.1, 0.2)]
    for eps in (0.05, 0.15):
        for p1 in (0.6, 0.7):
            sign_cases += [(two_component(1 - eps, 1 + eps, p1), 2, "positive"),
                           (two_component(1 + eps, 1 - eps, p1), 2, "negative")]
    sign_cases += [(three_value(eps, -1.0, p), 2, "negative")
                   for eps in (0.1, 0.2) for p in (0.2, 0.3, 0.4)]
    sign_fail = sum(compare(dist, d, consts[d]).predicted_sign != want
                    for dist, d, want in sign_cases)
    _check(checks, "comparison_sign_failures", sign_fail, 0.0, 0.0, cases=len(sign_cases))

    failed = sum(1 for c in checks if not c["pass"])
    return {
        "command": "reproduce",
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "L": _MC_L,
        "samples": _MC_SAMPLES,
        "checks": checks,
        "passed": len(checks) - failed,
        "failed": failed,
        "all_pass": failed == 0,
    }


def _random_laws(rng, count, u0_max):
    laws = []
    while len(laws) < count:
        n = int(rng.integers(2, 5))
        values = 1.0 + rng.uniform(-0.3, 0.3, size=n)
        probs = rng.dirichlet(np.ones(n))
        try:
            dist = DistributionSpec(atoms=tuple(zip(values, probs)))
        except ValueError:
            continue
        if moments(dist, 2).u0 < u0_max:
            laws.append(dist)
    return laws


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="homogenize", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dist=False, table=False):
        p.add_argument("--output", help="write the report to a file instead of stdout")
        if dist:
            p.add_argument("--dist", help="distribution JSON file")
        if table:
            p.add_argument("--resolution", type=int, default=None, metavar="N")
            p.add_argument("--radius", type=int, default=None, metavar="R")

    p = sub.add_parser("constants", help="dimension constants H, I1, I2, K5")
    p.add_argument("--dim", type=int, required=True)
    common(p, table=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("kernel", help="build a kernel table and report its identities")
    p.add_argument("--dim", type=int, required=True)
    common(p, table=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("expand", help="truncated effective-conductivity expansion")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    common(p, dist=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("enumerate", help="brute-force per-order term")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--symbolic", action="store_true")
    common(p, dist=True, table=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("bruggeman", help="effective-medium root (and series)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--series-order", type=int, default=None)
    common(p, dist=True)
    p.set_defaults(func=cmd_bruggeman)

    p = sub.add_parser("compare", help="exact expansion vs Bruggeman")
    p.add_argument("--dim", type=int, required=True)
    common(p, dist=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("duality-check", help="2D duality residual on the three-value family")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--order", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_duality_check)

    p = sub.add_parser("oracle", help="Monte Carlo torus estimate")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--per-sample-csv", default=None)
    common(p, dist=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reproduce", help="rerun the headline numbers with tolerances")
    p.add_argument("--seed", type=int, default=7)
    common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def _parser() -> _Parser:
    """The parser `main` uses, built once per process.

    Building one costs ~2 ms (argparse makes a help formatter, which queries
    the terminal size, for every argument it adds); parsing with it costs
    ~0.1 ms, leaves it unchanged and fills a fresh namespace per call.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits; surface the code to callers
        return exc.code if isinstance(exc.code, int) else 1
    try:
        payload = args.func(args)
        _emit(payload, args)
    except (CapacityError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if payload.get("all_pass") is False:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
