"""CLI surface: output schemas, exit codes, determinism, file handling."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homogenize
import homogenize.lattice as lattice
from homogenize import (
    SigmaEstimate,
    cli,
    constant,
    enumerate_order,
    get_kernel_table,
    moments,
    two_component,
)
from homogenize.distributions import moment_sum


def write_law(path, dist):
    """Write an atomic law in the documented JSON file format."""
    atoms = [{"value": v, "prob": p} for v, p in dist.atoms]
    path.write_text(json.dumps({"atoms": atoms}))


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("kernel-cache")


@pytest.fixture(autouse=True)
def _use_cache(monkeypatch, cache_dir):
    monkeypatch.setenv("HOMOGENIZE_CACHE_DIR", str(cache_dir))


@pytest.fixture(scope="module")
def kd_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("dists") / "kd.json"
    write_law(path, two_component(0.6, 1.4))
    return str(path)


@pytest.fixture(scope="module")
def const_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("dists") / "one.json"
    write_law(path, constant(1.0))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestCommands:
    def test_constants_d2(self, capsys):
        data = run_json(capsys, "constants", "--dim", "2")
        assert data["H"] == pytest.approx(1.0, abs=1e-3)
        assert data["I1"] == pytest.approx(0.06391, abs=5e-4)
        assert data["N"] == 512 and data["R"] == 24
        assert set(data["err"]) == {"H", "I1", "I2", "I", "K5"}

    def test_constants_d3(self, capsys):
        data = run_json(capsys, "constants", "--dim", "3")
        assert data["H"] == pytest.approx(0.923, abs=5e-3)

    def test_constants_at_the_largest_radius_are_finite(self, capsys):
        args = ("constants", "--dim", "2", "--resolution", "512", "--radius", "255")
        code, out = run(capsys, *args)
        assert code == 0 and "NaN" not in out
        data = json.loads(out)
        got = [data[k] for k in ("H", "I1", "I2", "I", "K5", "K5_via_H")]
        got += data["err"].values()
        assert all(math.isfinite(v) for v in got), out

    @pytest.mark.parametrize("argv", [
        ("constants", "--dim", "2", "--resolution", "8", "--radius", "1"),
        ("kernel", "--dim", "3", "--resolution", "16", "--radius", "1"),
    ])
    def test_radius_one_tables_build(self, capsys, argv):
        data = run_json(capsys, *argv)
        assert data["R"] == 1

    def test_kernel_report(self, capsys):
        data = run_json(capsys, "kernel", "--dim", "2", "--resolution", "64", "--radius", "6")
        assert data["gamma11_origin"] == pytest.approx(-0.5, abs=1e-6)
        assert data["antisymmetry_max"] < 1e-6

    def test_expand_two_component(self, capsys, kd_file):
        data = run_json(capsys, "expand", "--dim", "2", "--order", "6", "--dist", kd_file)
        assert data["sigma_e"] == pytest.approx(0.916544, abs=1e-9)
        assert data["valid"] is True

    def test_expand_constant_law(self, capsys, const_file):
        data = run_json(capsys, "expand", "--dim", "2", "--order", "6", "--dist", const_file)
        assert data["sigma_e"] == pytest.approx(1.0, abs=1e-14)
        assert data["remainder"] == 0.0

    def test_enumerate_symbolic(self, capsys):
        data = run_json(
            capsys, "enumerate", "--dim", "2", "--k", "4", "--symbolic",
            "--resolution", "128", "--radius", "10",
        )
        assert len(data["families"]) == 4
        assert data["polynomial"]["4"] == pytest.approx(-0.125, abs=1e-6)

    def test_enumerate_numeric(self, capsys, kd_file):
        data = run_json(
            capsys, "enumerate", "--dim", "2", "--k", "2", "--dist", kd_file,
            "--resolution", "128", "--radius", "10",
        )
        assert data["value"] == pytest.approx(-0.5 * 0.16, abs=1e-6)  # a2 * <u^2>

    def test_enumerate_dist_evaluates_the_enumerated_polynomial(
        self, capsys, monkeypatch, tmp_path
    ):
        law = two_component(1.0, 4.0)  # skewed: every order-5 signature contributes
        path = tmp_path / "skewed.json"
        write_law(path, law)
        calls = []
        original = lattice.path_cumulant
        monkeypatch.setattr(lattice, "path_cumulant",
                            lambda *a: calls.append(a) or original(*a))
        data = run_json(
            capsys, "enumerate", "--dim", "2", "--k", "5", "--dist", str(path),
            "--resolution", "128", "--radius", "10",
        )
        assert len(calls) == len(data["families"]) == 11  # one path sum per family
        eo = enumerate_order(5, get_kernel_table(2, 128, 10))
        assert data["value"] == moment_sum(eo.polynomial, moments(law, 5).u_moment)

    def test_expand_raw_moment_law(self, capsys, tmp_path):
        path = tmp_path / "raw.json"
        path.write_text(
            json.dumps({"u_moments": [0.16, 0.0, 0.0256, 0.0], "mean": 1.0, "u0": 0.4})
        )
        data = run_json(capsys, "expand", "--dim", "2", "--order", "5", "--dist", str(path))
        assert data["sigma_e"] == pytest.approx(1 - 0.16 / 2 - 0.0256 / 8, abs=1e-12)

    def test_bruggeman_with_series(self, capsys, kd_file):
        data = run_json(
            capsys, "bruggeman", "--dim", "2", "--dist", kd_file, "--series-order", "6"
        )
        assert data["sigma_B"] == pytest.approx(0.9165151, abs=1e-6)
        assert data["series"]["sigma_e"] == pytest.approx(0.916544, abs=1e-6)

    def test_compare(self, capsys, kd_file):
        data = run_json(capsys, "compare", "--dim", "2", "--dist", kd_file)
        assert data["case"] == "2d_symmetric"
        assert data["predicted_sign"] == "indeterminate"

    def test_duality_check(self, capsys):
        data = run_json(capsys, "duality-check", "--p", "0.3", "--alpha", "2", "--order", "6")
        assert data["max_determined_residual"] < 1e-8

    def test_oracle_json_and_csv(self, capsys, kd_file, tmp_path):
        csv_path = tmp_path / "samples.csv"
        data = run_json(
            capsys, "oracle", "--dim", "2", "--L", "8", "--samples", "4",
            "--seed", "3", "--dist", kd_file, "--per-sample-csv", str(csv_path),
        )
        assert data["samples"] == 4 and data["skipped"] == 0
        its = data["cg_iterations"]
        assert list(its) == ["min", "median", "max"]
        assert 0 < its["min"] <= its["median"] <= its["max"]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "sample,estimate"
        assert len(lines) == 5

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_oracle_reports_certified_error(self, capsys, kd_file, tol):
        data = run_json(capsys, "oracle", "--dim", "2", "--L", "16", "--samples", "4",
                        "--seed", "3", "--tol", str(tol), "--dist", kd_file)
        assert 0.0 < data["max_rel_error"] <= tol

    def test_oracle_deterministic(self, capsys, kd_file):
        args = ("oracle", "--dim", "2", "--L", "8", "--samples", "4", "--seed", "3",
                "--dist", kd_file)
        assert run(capsys, *args) == run(capsys, *args)

    def test_reproduce_checks_are_what_kernel_and_duality_check_print(self, capsys):
        # bit for bit: the report and the commands that inspect it run one code path
        checks = {c["name"]: c for c in run_json(capsys, "reproduce", "--seed", "7")["checks"]}
        kernel = {d: run_json(capsys, "kernel", "--dim", str(d)) for d in (2, 3)}
        for d, out in kernel.items():
            assert checks[f"gamma11_origin_d{d}"]["value"] == out["gamma11_origin"]
            row = checks[f"row_square_sum_d{d}"]
            assert row["value"] == out["row_square_sum"] + out["row_square_sum_tail"]
            assert row["target"] == out["row_square_target"]
        assert checks["offorigin_cube_sum_d2"]["value"] == kernel[2]["offorigin_cube_sum"]
        rng = np.random.default_rng(7)  # the ten probes `reproduce` draws
        worst = []
        for _ in range(10):
            p, alpha = float(rng.uniform(0.05, 0.45)), float(rng.uniform(-3.0, 3.0))
            out = run_json(capsys, "duality-check", f"--p={p!r}", f"--alpha={alpha!r}",
                           "--order", "6")
            worst.append(out["max_determined_residual"])
        assert checks["duality_residual_max"]["value"] == max(worst)

    def test_calls_in_one_process_do_not_share_options(self, capsys, tmp_path):
        out = tmp_path / "constants.json"
        code, stdout = run(capsys, "constants", "--dim", "2", "--output", str(out))
        assert code == 0 and stdout == ""
        first = out.read_text()
        code, stdout = run(capsys, "constants", "--dim", "2")
        assert code == 0 and stdout == first  # --output did not carry over
        assert cli.main(["constants", "--dim"]) == 1
        assert run(capsys, "constants", "--dim", "2") == (0, first)

    def test_output_file(self, capsys, kd_file, tmp_path):
        out = tmp_path / "report.json"
        code, stdout = run(
            capsys, "expand", "--dim", "2", "--order", "4", "--dist", kd_file,
            "--output", str(out),
        )
        assert code == 0 and stdout == ""
        assert json.loads(out.read_text())["order"] == 4


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert cli.main(["expand", "--dim", "2"]) == 1

    def test_unknown_command_is_1(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_dist_file_is_2(self, capsys):
        code = cli.main(["expand", "--dim", "2", "--order", "4", "--dist", "/nope.json"])
        assert code == 2

    def test_enumerate_without_dist_or_symbolic_is_2(self, capsys):
        argv = ["enumerate", "--dim", "2", "--k", "3", "--resolution", "128", "--radius", "10"]
        assert cli.main(argv) == 2
        assert "requires --dist FILE" in capsys.readouterr().err

    def test_invalid_order_is_2(self, capsys, kd_file):
        code = cli.main(["expand", "--dim", "3", "--order", "6", "--dist", kd_file])
        assert code == 2

    @pytest.mark.parametrize(
        "atom", ['{"value": Infinity, "prob": 0.5}', '{"value": 1.0, "prob": NaN}']
    )
    def test_non_finite_law_is_2(self, capsys, tmp_path, atom):
        path = tmp_path / "bad.json"
        path.write_text('{"atoms": [%s, {"value": 2.0, "prob": 0.5}]}' % atom)
        code = cli.main(["expand", "--dim", "2", "--order", "4", "--dist", str(path)])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "law, message",
        [
            ('{"u_moments": [NaN, 0.001], "mean": 1.0, "u0": 0.25}', "<u^2> must be finite"),
            ('{"u_moments": [0.04, 0.001], "mean": 1.0, "u0": NaN}', "u0 must be finite"),
            ('{"u_moments": [-0.5], "mean": 1.0, "u0": -1}', "u0 must be finite and >= 0"),
        ],
    )
    def test_invalid_raw_moment_law_is_2(self, capsys, tmp_path, law, message):
        path = tmp_path / "raw.json"
        path.write_text(law)
        code = cli.main(["expand", "--dim", "2", "--order", "3", "--dist", str(path)])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-8", "1e-20", "1"])
    def test_oracle_tol_out_of_range_is_2(self, capsys, kd_file, tol):
        argv = ["oracle", "--dim", "2", "--L", "8", "--samples", "2", "--dist", kd_file]
        assert cli.main(argv + [f"--tol={tol}"]) == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dim, L, code, message",
        [
            ("0", "8", 2, "dimension must be >= 1"),
            ("-1", "8", 2, "dimension must be >= 1"),
            ("3", "100000", 3, "feasible L <= 161 for d=3"),
            ("1", "8", 0, ""),
        ],
    )
    def test_oracle_torus_exit_codes(self, capsys, kd_file, dim, L, code, message):
        argv = ["oracle", f"--dim={dim}", "--L", L, "--samples", "4", "--dist", kd_file]
        assert cli.main(argv) == code
        assert message in capsys.readouterr().err

    def test_oracle_tol_floor_is_accepted(self, capsys, kd_file):
        argv = ["oracle", "--dim", "2", "--L", "8", "--samples", "2", "--dist", kd_file]
        assert cli.main(argv + ["--tol", "1e-13"]) == 0

    @pytest.mark.parametrize("command, dim", [("bruggeman", "2"), ("compare", "3")])
    def test_bruggeman_slope_out_of_float_range_is_3(self, capsys, tmp_path, command, dim):
        path = tmp_path / "extreme.json"
        write_law(path, two_component(1e-300, 1e300))
        assert cli.main([command, "--dim", dim, "--dist", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "float range" in err

    def test_non_finite_result_is_3_and_writes_nothing(self, capsys, tmp_path):
        # 1e200 moments overflow the series to inf - inf = NaN, in Python floats only
        path = tmp_path / "raw.json"
        path.write_text('{"u_moments": [1e200, 1e200, 1e200, 1e200, 1e200], '
                        '"mean": 1.0, "u0": 1e200}')
        argv = ["expand", "--dim", "2", "--order", "6", "--dist", str(path)]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "not finite" in err
        assert cli.main(argv + ["--output", str(tmp_path / "report.json")]) == 3
        assert not (tmp_path / "report.json").exists()

    def test_bruggeman_root_hidden_by_rounding_is_3(self, capsys, tmp_path):
        path = tmp_path / "contrast.json"
        write_law(path, two_component(1e-12, 1e12))
        assert cli.main(["bruggeman", "--dim", "2", "--dist", str(path)]) == 3
        assert "did not reach" in capsys.readouterr().err

    @pytest.mark.parametrize("skipped, biased, want", [
        pytest.param(0, False, [], id="0"),
        pytest.param(1, False, ["mc_kd_mean", "mc_selfdual_mean"], id="1"),
        pytest.param(0, True, ["mc_selfdual_mean"], id="bias"),
    ])
    def test_skipped_monte_carlo_sample_fails_reproduce(self, monkeypatch, tmp_path,
                                                        skipped, biased, want):
        # each stubbed estimate sits on its Keller-Dykhne target, so only a
        # skipped sample, or a solver bias bound above 1% of the 3-stderr
        # tolerance (3e-6 here; the self-dual run's when biased), can fail
        # the Monte Carlo gates
        def estimate(d, L, dist, samples, seed, tol):
            mean = math.sqrt(math.prod(dist.values()))
            max_error = 3.3e-6 if biased and mean == 1.0 else 1e-6
            return SigmaEstimate(mean=mean, stderr=1e-4, samples=samples - skipped,
                                 skipped=skipped, max_error=max_error)

        monkeypatch.setattr(cli, "estimate_sigma_e", estimate)
        out = tmp_path / "report.json"
        assert cli.main(["reproduce", "--output", str(out)]) == (3 if want else 0)
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        failed = sorted(name for name, c in checks.items() if not c["pass"])
        assert failed == want
        assert checks["mc_kd_mean"]["skipped"] == checks["mc_selfdual_mean"]["skipped"] == skipped
        assert checks["mc_selfdual_mean"]["max_error"] == (3.3e-6 if biased else 1e-6)

    def test_understated_remainder_bound_fails_reproduce(self, monkeypatch, tmp_path):
        # a zero bound is exceeded by every nonzero step between orders
        monkeypatch.setattr(homogenize.expansion, "remainder_bound", lambda *args: 0.0)
        out = tmp_path / "report.json"
        assert cli.main(["reproduce", "--output", str(out)]) == 3
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert sorted(name for name, c in checks.items() if not c["pass"]) == [
            "remainder_honesty_violations"]
        assert checks["remainder_honesty_violations"]["value"] > 0

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e300"])
    def test_duality_alpha_without_finite_residual_is_2(self, capsys, alpha):
        assert cli.main(["duality-check", "--p", "0.3", f"--alpha={alpha}"]) == 2
        assert "alpha ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1e3", "1e5", "1e10"])
    def test_duality_alpha_lost_to_rounding_is_2(self, capsys, alpha):
        # the exact residual is 0, and float rounding would report 46 at 1e3
        assert cli.main(["duality-check", "--p", "0.3", f"--alpha={alpha}"]) == 2
        err = capsys.readouterr().err
        assert f"p=0.3, alpha ratio {float(alpha)}" in err
        assert "lost to rounding" in err

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_bruggeman_series_order_out_of_range_is_2(self, capsys, kd_file, order):
        argv = ["bruggeman", "--dim", "2", "--dist", kd_file, "--series-order", order]
        assert cli.main(argv) == 2
        assert "orders 2..6" in capsys.readouterr().err

    def test_capacity_error_is_3(self, capsys):
        code = cli.main(["kernel", "--dim", "6", "--resolution", "64", "--radius", "3"])
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--dim", "2", "--format", "json"],
            ["constants", "--dim", "2", "--no-cache"],
            ["reproduce", "--L", "32"],
        ],
        ids=["format", "no_cache", "reproduce_L"],
    )
    def test_removed_options_are_usage_errors(self, capsys, argv):
        assert cli.main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "law, field",
        [
            ('{"atoms": [{"value": 0.6}, {"value": 1.4, "prob": 0.5}]}', "atoms[0].prob"),
            ('{"u_moments": [null], "mean": 1.0, "u0": 0.2}', "u_moments[0]"),
            ('{"u_moments": [0.01], "mean": "1", "u0": 0.2}', "mean"),
            ('{"atoms": 5}', "atoms"),
            ("[1, 2]", "JSON object"),
            ('{"atoms": [{"value": "0.6", "prob": 0.5}, {"value": 1.4, "prob": 0.5}]}',
             "atoms[0].value"),
            ('{"atoms": [{"value": true, "prob": 0.5}, {"value": 1.4, "prob": 0.5}]}',
             "atoms[0].value"),
            ('{"atoms": [[0.6, 0.5], {"value": 1.4, "prob": 0.5}]}', "atoms[0] must be an object"),
            ('{"u_moments": [0.01], "mean": 1%s, "u0": 0.2}' % ("0" * 400),
             "too large for a float"),
        ],
        ids=["missing_prob", "null_moment", "string_mean", "atoms_not_list",
             "top_level_list", "string_value", "bool_value", "atom_not_object",
             "huge_integer"],
    )
    def test_malformed_law_file_is_2(self, capsys, tmp_path, law, field):
        path = tmp_path / "law.json"
        path.write_text(law)
        assert cli.main(["bruggeman", "--dim", "2", "--dist", str(path)]) == 2
        assert field in capsys.readouterr().err


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from homogenize import cli
law = sys.argv[1]
runs = [["constants", "--dim", str(d)] for d in (2, 3, 4, 5)]
runs += [["expand", "--dim", "2", "--order", "6", "--dist", law],
         ["bruggeman", "--dim", "2", "--dist", law]]
codes = [cli.main(argv) for argv in runs]
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None]
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_runtime_runs_without_scipy(kd_file, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    src = str(Path(homogenize.__file__).parents[1])
    env = dict(os.environ, HOMOGENIZE_CACHE_DIR=str(cache),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, kd_file], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0] * 6, "scipy": []}
