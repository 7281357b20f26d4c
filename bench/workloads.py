"""The three workloads: inputs made from the seed, one timed pass, checks.

A pass is one round of the workload's operations; every pass of a run does
the same operations on the same inputs, so `attempted` and `failed` grow by
whole rounds.  `check` compares each pass with the first (cold) one and
runs the output checks of `checks.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass

import numpy as np

import homogenize.cli as cli
import homogenize.distributions as distributions
import homogenize.resistor as resistor
from homogenize.errors import SolverError

DIMS = (2, 3, 4, 5)


@dataclass
class Pass:
    outputs: object
    attempted: int
    failed: int


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns the exit code and what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def make_laws(rng, count: int) -> list[tuple[tuple[float, float], ...]]:
    """Atomic laws of 2..4 atoms within +-35% of 1 whose series converge (u0 < 0.45)."""
    laws = []
    while len(laws) < count:
        n = int(rng.integers(2, 5))
        values = 1.0 + rng.uniform(-0.35, 0.35, size=n)
        probs = rng.dirichlet(np.ones(n))
        mean = float(probs @ values)
        if probs.min() < 0.02 or np.max(np.abs(values / mean - 1.0)) >= 0.45:
            continue
        laws.append(tuple(zip(values.tolist(), probs.tolist())))
    return laws


def write_law(atoms, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"atoms": [{"value": v, "prob": p} for v, p in atoms]}, fh)


class Reproduce:
    """`homogenize reproduce --seed 7`, the documented command, at its
    defaults (L=64, 200 samples).

    The run does not vary the reproduce seed with the benchmark seed: the
    report's 3-stderr Monte Carlo checks fail on some seeds (26 and 27 of
    0..79), and an operation that fails on some seeds only would make the
    failed share differ between sets of runs.
    """

    SEED = 7

    def __init__(self, seed: int, workdir):
        self.argv = ["reproduce", "--seed", str(self.SEED)]

    def run_pass(self) -> Pass:
        code, text = call_cli(self.argv)
        report = json.loads(text) if text else None
        return Pass({"code": code, "report": report}, 1, int(code != 0 or report is None))

    def check(self, cold: Pass, later: Pass) -> list[str]:
        from checks import check_reproduce, same_report

        if later.failed:
            return []
        problems = check_reproduce(later.outputs["report"])
        if later is not cold and not cold.failed:
            problems += same_report(cold.outputs["report"], later.outputs["report"])
        return problems


class Oracle:
    """`estimate_sigma_e` over a finite-size sweep of five (d, L, law) cases."""

    #: name, d, L, atoms, samples.  Every law is an equiprobable
    #: two-component one, so the 2D means have the Keller-Dykhne value; the
    #: sample counts keep each case within 1-5 s of Jacobi-preconditioned CG.
    CASES = (
        ("d2_L64", 2, 64, ((0.6, 0.5), (1.4, 0.5)), 48),
        ("d2_L128", 2, 128, ((0.6, 0.5), (1.4, 0.5)), 16),
        ("d2_L256", 2, 256, ((0.6, 0.5), (1.4, 0.5)), 6),
        ("d2_L64_c100", 2, 64, ((0.1, 0.5), (10.0, 0.5)), 24),
        ("d3_L24", 3, 24, ((0.6, 0.5), (1.4, 0.5)), 24),
    )

    def __init__(self, seed: int, workdir):
        seeds = np.random.SeedSequence(seed).generate_state(len(self.CASES), dtype=np.uint64)
        self.cases = [
            {"name": name, "d": d, "L": L, "atoms": atoms, "samples": n,
             "law": distributions.DistributionSpec(atoms=atoms),
             "seed": int(s)}
            for (name, d, L, atoms, n), s in zip(self.CASES, seeds)
        ]

    def run_pass(self) -> Pass:
        outputs, attempted, failed = {}, 0, 0
        for case in self.cases:
            attempted += case["samples"]
            try:
                est = resistor.estimate_sigma_e(
                    case["d"], case["L"], case["law"], samples=case["samples"],
                    seed=case["seed"], keep_per_sample=True,
                )
            except SolverError:
                failed += case["samples"]
                continue
            failed += est.skipped
            outputs[case["name"]] = {
                "mean": est.mean, "stderr": est.stderr,
                "samples": est.samples, "per_sample": est.per_sample,
            }
        return Pass(outputs, attempted, failed)

    def check(self, cold: Pass, later: Pass) -> list[str]:
        from checks import check_oracle_case, same_samples

        problems = []
        for case in self.cases:
            if case["name"] in later.outputs:
                problems += check_oracle_case(case, later.outputs[case["name"]])
        if later is not cold:
            common = cold.outputs.keys() & later.outputs.keys()
            problems += same_samples(
                {k: cold.outputs[k] for k in common}, {k: later.outputs[k] for k in common}
            )
        return problems


class Queries:
    """Short CLI calls in-process: 24 generated laws, each queried over d=2..5."""

    ROUNDS = 24

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        laws_dir = workdir / "laws"
        laws_dir.mkdir(parents=True, exist_ok=True)
        self.atoms = {}
        calls = []
        for i, atoms in enumerate(make_laws(rng, self.ROUNDS)):
            path = str(laws_dir / f"law{i:02d}.json")
            write_law(atoms, path)
            self.atoms[path] = atoms
            for d in DIMS:
                order = "6" if d == 2 else "5"
                dim = ["--dim", str(d)]
                calls += [
                    ["constants", *dim],
                    ["expand", *dim, "--order", order, "--dist", path],
                    ["compare", *dim, "--dist", path],
                    ["bruggeman", *dim, "--dist", path, "--series-order", order],
                ]
            p, alpha = float(rng.uniform(0.05, 0.45)), float(rng.uniform(-3.0, 3.0))
            calls.append(["duality-check", f"--p={p!r}", f"--alpha={alpha!r}", "--order", "6"])
        calls += [
            ["enumerate", "--dim", str(d), "--k", str(k), "--symbolic"]
            for d in DIMS for k in (2, 3, 4, 5)
        ]
        self.calls = [calls[i] for i in rng.permutation(len(calls))]

    def run_pass(self) -> Pass:
        outputs = [call_cli(argv) for argv in self.calls]
        return Pass(outputs, len(outputs), sum(code != 0 for code, _ in outputs))

    def check(self, cold: Pass, later: Pass) -> list[str]:
        from checks import check_query

        problems = []
        for argv, (code, text) in zip(self.calls, later.outputs):
            if code == 0:
                atoms = self.atoms.get(argv[argv.index("--dist") + 1]) if "--dist" in argv else None
                problems += check_query(argv, json.loads(text), atoms)
        if later is not cold and later.outputs != cold.outputs:
            problems.append("query outputs differ between the cold and a warm pass")
        return problems


WORKLOADS = {"reproduce": Reproduce, "oracle": Oracle, "queries": Queries}
