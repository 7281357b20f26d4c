"""Command-line interface.

One subcommand per capability: kernel tables, dimension constants, series
expansion, brute-force enumeration, Bruggeman root and comparison, duality
checks, the Monte Carlo oracle, and `reproduce`, which reruns the headline
numbers against their targets and tolerances and emits the pass/fail
report the acceptance tests read.  Its kernel-identity and duality checks
are the values `kernel` and `duality-check` print, from the same code.
Its two Monte Carlo runs solve each sample to a certified relative error
of 1e-6, not `oracle`'s default 1e-10, and a run whose certified solver
bias exceeds 1% of its 3-stderr gate fails that gate.

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
    duality_residual_series,
    load_distribution,
    moment_sum,
    moments,
    recover_relations,
    three_value,
    two_component,
)
from .enumerator import enumerate_order
from .errors import CapacityError, SolverError
from .expansion import ExpansionCoefficients, coefficients, max_order, sigma_e_series
from .kernel import KernelTable, channel_array, gamma, get_kernel_table, lattice_power_sum
from .resistor import estimate_sigma_e, require_tol


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


def _kernel_report(table: KernelTable) -> dict:
    """The identities `kernel` prints, and `reproduce` gates, for one table."""
    d = table.d
    # each distinct squared channel once; (a, b) and (b, a) are one channel
    sq = {(a, b): lattice_power_sum(table, a, b, 2)
          for a in range(1, d + 1) for b in range(a, d + 1)}
    row = [sq[1, a] for a in range(1, d + 1)]
    square = [sq[min(a, b), max(a, b)] for a in range(1, d + 1) for b in range(1, d + 1)]
    odd = lattice_power_sum(table, 1, 1, 3, include_origin=False)
    out = {
        "d": d,
        "N": table.N,
        "R": table.R,
        "gamma11_origin": gamma(table, 1, 1, (0,) * d),
        "row_square_sum": sum(p.value for p in row),
        "row_square_sum_tail": sum(p.tail for p in row),
        "row_square_target": 1.0 / d,
        "normalization_sum": sum(p.value + p.tail for p in square),
        "offorigin_cube_sum": odd.value + odd.tail,
        "quad_defect": table.quad_defect,
    }
    if d == 2:
        arr = channel_array(table, 1, 1)
        folded = arr + arr.T
        folded[table.R, table.R] = 0.0  # the origin carries the trace
        out["antisymmetry_max"] = float(np.max(np.abs(folded)))
    return out


def cmd_kernel(args) -> dict:
    return _kernel_report(get_kernel_table(args.dim, N=args.resolution, R=args.radius))


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


def _duality_report(probe: DualityProbe, coeffs: ExpansionCoefficients) -> dict:
    """The residuals `duality-check` prints, and `reproduce` gates, for one probe."""
    res = duality_residual_series(probe, coeffs)
    even = {k: float(abs(res[k])) for k in range(2, probe.order + 1, 2)}
    determined = [k for k in even if k <= coeffs.order]
    return {
        "p": probe.p,
        "alpha": probe.alpha_ratio,
        "order": probe.order,
        "residual_coefficients": [float(c) for c in res],
        "abs_even_residuals": {str(k): v for k, v in even.items()},
        "max_determined_residual": max(even[k] for k in determined),
        "informational_orders": [k for k in even if k > coeffs.order],
    }


def cmd_duality_check(args) -> dict:
    coeffs = coefficients(2, 6, dimension_constants(2)[0])
    probe = DualityProbe(p=args.p, alpha_ratio=args.alpha, order=args.order)
    return _duality_report(probe, coeffs)


def cmd_oracle(args) -> dict:
    require_tol(args.tol, "--tol")
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
        "cg_iterations": dict(zip(("min", "median", "max"), est.cg_iterations)),
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
    a skipped (unsolved) sample fails the check instead of shrinking n, and
    so does a solver bias bound `max_error` above 1% of the tolerance."""
    tol = 3.0 * est.stderr
    _check(checks, name, est.mean, target, tol,
           stderr=est.stderr, skipped=est.skipped, max_error=est.max_error)
    checks[-1]["pass"] &= est.skipped == 0 and est.max_error <= 0.01 * tol


def _coef_tol(ref: float, pure: bool) -> float:
    # relative for sizeable references, absolute floor near zero
    if pure:
        return 1e-6
    return 1e-4 * abs(ref) if abs(ref) > 1e-3 else 1e-4


#: Torus side, sample count and solve tolerance of the two Monte Carlo runs
#: of `reproduce`.  Each raw estimate lies in [exact, exact + error], and the
#: control variate's Born term is CG's first scalar, which no tolerance
#: moves, so `max_error` bounds the solver bias of the mean.  A relative
#: 1e-6 keeps that bound under 1e-6, and under 1% of the smaller 3-stderr
#: tolerance, the kd law's (1.2e-4 to 2.0e-4 over seeds 0..79): a bias of
#: 0.03 stderr raises a normal two-sided 3-stderr failure rate from 0.270%
#: to 0.271%.  `_mc_check` fails a run whose bound is larger.
_MC_L = 64
_MC_SAMPLES = 50
_MC_TOL = 1e-6


def cmd_reproduce(args) -> dict:
    seed = args.seed
    checks: list[dict] = []

    tables = {d: get_kernel_table(d) for d in (2, 3, 4, 5)}
    consts = {d: dimension_constants(table=tables[d])[0] for d in (2, 3, 4, 5)}

    # kernel identities, as `kernel` prints them
    kernel = {d: _kernel_report(tables[d]) for d in (2, 3)}
    for d, rep in kernel.items():
        _check(checks, f"gamma11_origin_d{d}", rep["gamma11_origin"], -1.0 / d, 1e-6)
    for d, rep in kernel.items():
        _check(checks, f"row_square_sum_d{d}", rep["row_square_sum"] + rep["row_square_sum_tail"],
               rep["row_square_target"], 1e-4)
    _check(checks, "offorigin_cube_sum_d2", kernel[2]["offorigin_cube_sum"], 0.0, 1e-5)

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

    # duality residual suite, as `duality-check` prints it
    coeffs2 = coefficients(2, 6, consts[2])
    rng = np.random.default_rng(seed)
    probes = [DualityProbe(p=float(rng.uniform(0.05, 0.45)),
                           alpha_ratio=float(rng.uniform(-3.0, 3.0))) for _ in range(10)]
    worst = max(_duality_report(probe, coeffs2)["max_determined_residual"] for probe in probes)
    _check(checks, "duality_residual_max", worst, 0.0, DUALITY_GATE)

    for a3 in (0.25, 0.4):
        rel4 = recover_relations({**coeffs2.a, (3,): a3}, 4)
        target4 = {(4,): 0.25 - 1.5 * a3, (2, 2): 1.5 * a3 - 0.375}
        dev4 = max(abs(rel4[sig] - c) for sig, c in target4.items())
        _check(checks, f"relations_order4_a3={a3}", dev4, 0.0, 1e-8)
    rel6 = recover_relations(coeffs2.a, 6)
    dev6 = max(abs(rel6[sig] - coeffs2.a[sig]) for sig in ((2, 2, 2), (3, 3), (2, 4), (6,)))
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
    est = estimate_sigma_e(2, _MC_L, kd, samples=_MC_SAMPLES, seed=seed, tol=_MC_TOL)
    _mc_check(checks, "mc_kd_mean", est, float(np.sqrt(0.6 * 1.4)))
    _check(checks, "mc_kd_stderr", est.stderr, 0.0, 3e-3)
    sd = two_component(2.0, 0.5)
    est_sd = estimate_sigma_e(2, _MC_L, sd, samples=_MC_SAMPLES, seed=seed + 1, tol=_MC_TOL)
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
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:  # NaN or infinity, which JSON cannot hold
        raise SolverError("the result is not finite (NaN or infinity); nothing written") from None
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
