"""The layer suite of a traced run, and the per-layer metrics read off it.

The suite calls each module's public functions directly at fixed cases
(the same in every workload's traced run, so the numbers compare across
workloads and commits).  Every step sets the tracer's tag; a metric is a
median, sum or count over the spans of one tag.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics

import homogenize.bruggeman as bruggeman
import homogenize.cli as cli
import homogenize.constants as constants
import homogenize.distributions as distributions
import homogenize.enumerator as enumerator
import homogenize.expansion as expansion
import homogenize.kernel as kernel
import homogenize.resistor as resistor

from tracing import self_times

DIMS = (2, 3, 4, 5)
ORDERS = (2, 3, 4, 5)
REPEATS = 5          # calls per millisecond-scale case; the metric is their median
FAST_REPEATS = 50    # calls per microsecond-scale case
#: Torus cases: name, d, L, law, samples (medians over the samples).
RESISTOR_CASES = (
    ("d2_L64", 2, 64, (0.6, 1.4), 5),
    ("d2_L128", 2, 128, (0.6, 1.4), 3),
    ("d2_L256", 2, 256, (0.6, 1.4), 3),
    ("d2_L64_c100", 2, 64, (0.1, 10.0), 5),
    ("d3_L24", 3, 24, (0.6, 1.4), 5),
)


def run_suite(tracer, workdir, law_file, seed: int, cli_calls) -> None:
    """Make every traced call of the suite; spans land in tracer.spans."""
    os.environ["HOMOGENIZE_CACHE_DIR"] = str(workdir / "suite-cache")
    tracer.install()
    try:
        tracer.tag = "build"
        tables = {d: kernel.get_kernel_table(d) for d in DIMS}
        tracer.tag = "load"
        for d in DIMS:
            for _ in range(REPEATS):
                kernel.get_kernel_table(d)
        tracer.tag = "constants"
        consts = {}
        for d in DIMS:
            for _ in range(REPEATS):
                consts[d] = constants.dimension_constants(table=tables[d])[0]
        tracer.tag = "enumerate"
        for _ in range(REPEATS):
            for k in ORDERS:
                enumerator.enumerate_order(k, tables[2])

        tracer.tag = "analytic"
        law = distributions.load_distribution(law_file)
        probe = distributions.DualityProbe(p=0.3, alpha_ratio=2.0, order=6)
        coeffs = expansion.coefficients(2, 6, consts[2])
        for _ in range(FAST_REPEATS):
            distributions.load_distribution(law_file)
            distributions.moments(law, 6)
            expansion.coefficients(2, 6, consts[2])
            expansion.sigma_e_series(law, 2, 6, consts[2])
            bruggeman.solve_bruggeman(law, 2)
            bruggeman.bruggeman_series(law, 2, 6)
            bruggeman.compare(law, 2, consts[2])
        for _ in range(REPEATS):
            distributions.duality_residual_series(probe, coeffs)

        for i, (case, d, L, (s1, s2), samples) in enumerate(RESISTOR_CASES):
            tracer.tag = case
            resistor.estimate_sigma_e(
                d, L, distributions.two_component(s1, s2), samples=samples, seed=seed + i
            )

        tracer.tag = "cli"
        for argv in cli_calls:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.tag = None


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from the suite's spans."""
    own = self_times(spans)

    def pick(name, tag, top=False, **attrs):
        return [
            s for s in spans
            if s["name"] == name and s["tag"] == tag
            and (not top or s["parent"] is None)
            and all(s.get("attrs", {}).get(k) == v for k, v in attrs.items())
        ]

    def dur(found):
        return [s["end"] - s["start"] for s in found]

    def med(name, tag, scale, **attrs):
        return statistics.median(dur(pick(name, tag, top=True, **attrs))) * scale

    m: dict[str, tuple[float, str]] = {}
    builds = pick("kernel.build_kernel_table", "build")
    for d in DIMS:
        m[f"kernel.build_s.d{d}"] = (sum(dur(pick("kernel.build_kernel_table", "build", d=d))), "s")
        m[f"kernel.direct_quadrature_s.d{d}"] = (
            sum(dur(pick("kernel.direct_quadrature", "build", d=d))), "s")
    m["kernel.channels_built"] = (sum(s["attrs"]["channels"] for s in builds), "count")
    m["kernel.fft_points"] = (sum(s["attrs"]["fft_points"] for s in builds), "count")
    m["kernel.cache_bytes"] = (
        sum(s["attrs"]["bytes"] for s in pick("kernel.save_table", "build")), "bytes")
    for d in DIMS:
        m[f"kernel.load_ms.d{d}"] = (
            statistics.median(dur(pick("kernel.load_table", "load", d=d))) * 1e3, "ms")
    m["kernel.lattice_power_sum_us"] = (
        statistics.median(dur(pick("kernel.lattice_power_sum", "constants"))) * 1e6, "us")
    for d in DIMS:
        m[f"constants.dimension_constants_ms.d{d}"] = (
            med("constants.dimension_constants", "constants", 1e3, d=d), "ms")
    for k in ORDERS:
        m[f"enumerator.enumerate_order_ms.k{k}"] = (
            med("enumerator.enumerate_order", "enumerate", 1e3, k=k), "ms")
    m["lattice.path_cumulant_calls"] = (
        len(pick("lattice.path_cumulant", "enumerate")) // REPEATS, "count")
    for metric, name, scale, unit in (
        ("expansion.coefficients_us", "expansion.coefficients", 1e6, "us"),
        ("expansion.sigma_e_series_us", "expansion.sigma_e_series", 1e6, "us"),
        ("distributions.load_distribution_us", "distributions.load_distribution", 1e6, "us"),
        ("distributions.moments_us", "distributions.moments", 1e6, "us"),
        ("distributions.duality_residual_series_ms",
         "distributions.duality_residual_series", 1e3, "ms"),
        ("bruggeman.solve_bruggeman_us", "bruggeman.solve_bruggeman", 1e6, "us"),
        ("bruggeman.bruggeman_series_us", "bruggeman.bruggeman_series", 1e6, "us"),
        ("bruggeman.compare_us", "bruggeman.compare", 1e6, "us"),
    ):
        m[metric] = (med(name, "analytic", scale), unit)
    roots = pick("bruggeman.solve_bruggeman", "analytic", top=True)
    m["bruggeman.iterations"] = (roots[0]["attrs"]["iterations"], "count")
    for case, *_ in RESISTOR_CASES:
        solves = [s for s in pick("resistor.solve_corrector", case) if "attrs" in s]
        m[f"resistor.sample_network_ms.{case}"] = (
            statistics.median(dur(pick("resistor.sample_network", case))) * 1e3, "ms")
        m[f"resistor.solve_corrector_ms.{case}"] = (statistics.median(dur(solves)) * 1e3, "ms")
        m[f"resistor.cg_iterations.{case}"] = (
            statistics.median(s["attrs"]["iterations"] for s in solves), "count")
        m[f"resistor.residual_max.{case}"] = (
            max(s["attrs"]["residual"] for s in solves), "1")
    m["resistor.samples_skipped"] = (
        sum(s["attrs"]["skipped"] for case, *_ in RESISTOR_CASES
            for s in pick("resistor.estimate_sigma_e", case)), "count")
    cli_self = [t for s, t in zip(spans, own) if s["name"] == "cli.main" and s["tag"] == "cli"]
    m["cli.self_ms"] = (statistics.median(cli_self) * 1e3, "ms")
    return m
