import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from multifract import cli, symbolic, thermo


ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def fib_file(tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(symbolic.fibonacci_automaton().to_json())
    return str(path)


class TestSpectrumCommand:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = run(
            ["spectrum", "--potential", "rademacher", "--grid=-4:4:9", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,pressure,alpha,dim"
        assert len(lines) == 10
        middle = lines[5].split(",")
        assert float(middle[3]) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_curve(self, tmp_path):
        out = tmp_path / "curve.json"
        code = run(
            [
                "spectrum",
                "--potential",
                "rademacher",
                "--grid=-6:6:25",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        dims = [r["dim"] for r in rows]
        assert dims == pytest.approx(dims[::-1], abs=1e-9)
        assert max(dims) == pytest.approx(1.0, abs=1e-9)

    def test_potential_file(self, tmp_path):
        cfg = tmp_path / "phi.json"
        cfg.write_text(thermo.indicator_potential(2, 2).to_json())
        out = tmp_path / "curve.csv"
        assert run(["spectrum", "--config", str(cfg), "--grid=-2:2:5", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6

    def test_missing_potential_is_config_error(self):
        assert run(["spectrum", "--grid=-1:1:3"]) == cli.EXIT_CONFIG

    def test_bad_grid_is_config_error(self):
        assert run(["spectrum", "--potential", "rademacher", "--grid", "0:1:1"]) == cli.EXIT_CONFIG

    def test_non_finite_grid_is_config_error(self, capfd):
        # numpy would warn inside linspace before the grid reached the solver
        assert run(["spectrum", "--potential", "rademacher", "--grid=0:inf:3"]) == cli.EXIT_CONFIG
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_overflow_is_numeric_error(self, tmp_path):
        # range 150 overflows exp(s phi) by |s| = 10, but the ground-state
        # weights lie in [0, 1], so every s solves. Exit 3 stays covered by the
        # walk test test_lost_perron_vector_is_numeric_error
        cfg, out = tmp_path / "phi.json", tmp_path / "curve.csv"
        cfg.write_text(
            thermo.Potential.from_values(2, 2, 2, [[0.0, 100.0], [3.0, -50.0]]).to_json()
        )
        assert run(["spectrum", "--config", str(cfg), "--grid=-10:10:401", "--out", str(out)]) == 0
        header, *rows = csv.reader(out.read_text().splitlines())
        assert header == ["s", "pressure", "alpha", "dim"] and len(rows) == 401
        assert all(math.isfinite(float(x)) for row in rows for x in row)

    def test_no_partial_output_on_bad_config(self, tmp_path):
        out = tmp_path / "curve.csv"
        cfg = tmp_path / "phi.json"
        cfg.write_text("{broken")
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()


class TestDimsCommand:
    def test_fibonacci(self, fib_file, tmp_path):
        out = tmp_path / "dims.json"
        assert run(["dims", "--config", fib_file, "--q", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["dim_H"] == pytest.approx(0.8114, abs=5e-4)
        assert report["dim_B"] == pytest.approx(0.8243, abs=5e-4)
        assert report["symmetric"] is False

    def test_full_shift(self, tmp_path):
        cfg = tmp_path / "full.json"
        cfg.write_text(symbolic.full_shift(2).to_json())
        out = tmp_path / "dims.json"
        assert run(["dims", "--config", cfg.as_posix(), "--q", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["dim_H"] == pytest.approx(1.0, abs=1e-8)
        assert report["symmetric"] is True

    def test_semigroup(self, fib_file, tmp_path):
        out = tmp_path / "dims23.json"
        code = run(
            ["dims", "--config", fib_file, "--semigroup", "2,3", "--tol", "1e-5",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert 0.0 < report["dim_H"] < 1.0
        assert report["dim_B"] >= report["dim_H"] - 1e-6

    def test_missing_file(self):
        assert run(["dims", "--config", "/nonexistent.json", "--q", "2"]) == cli.EXIT_CONFIG

    @pytest.mark.filterwarnings("error")
    def test_four_primes_write_strict_json(self, fib_file, capsys):
        # NaN and Infinity are not JSON: parse_constant is called only for them
        def reject(token):
            raise ValueError(f"non-finite {token} in the dims report")

        assert run(["dims", "--config", fib_file, "--semigroup", "2,3,5,7"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert 0.0 < report["dim_H"] < report["dim_B"] < 1.0


class TestWalkCommand:
    def test_case1_alpha(self, capsys):
        assert run(["walk", "--system", "case1", "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "alpha,dim"
        assert float(out[1].split(",")[1]) == pytest.approx(0.8113, abs=5e-4)

    def test_case2_alpha(self, capsys):
        assert run(["walk", "--system", "case2", "--alpha", "0.0,0.0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[1].split(",")[-1]) == pytest.approx(1.0, abs=1e-9)

    def test_grid_curve(self, tmp_path):
        out = tmp_path / "walk.csv"
        assert run(["walk", "--system", "case1", "--grid=-2:2:9", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        dims = [float(r.split(",")[2]) for r in rows]
        assert max(dims) == pytest.approx(1.0, abs=1e-9)

    def test_non_finite_grid_is_config_error(self, capfd):
        assert run(["walk", "--system", "case1", "--grid=nan:1:3"]) == cli.EXIT_CONFIG
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_wrong_alpha_arity(self):
        assert run(["walk", "--system", "case2", "--alpha", "0.5"]) == cli.EXIT_CONFIG

    def test_lower_dimensional_drift_returns(self, tmp_path, capsys):
        # S_n/n lies on the plane sum(alpha) = 1; alpha on that triangle's
        # edge is the boundary of the drift range and reads NaN
        system = tmp_path / "rotation3.json"
        system.write_text(
            json.dumps({"p": 3, "tau": [[0, 0, 1], [1, 0, 0], [0, 1, 0]], "v": [1, 0, 0], "A": [0, 1]})
        )
        assert run(["walk", "--system", str(system), "--alpha", "0.5,0.5,0"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0.5,0.5,0,nan"

    def test_json_writes_nan_as_null(self, capsys):
        assert run(["walk", "--system", "case1", "--alpha", "1.2", "--format", "json"]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rows = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert rows == [{"alpha": "1.2", "dim": None}]

    def test_csv_header_names_each_coordinate(self, capsys):
        assert run(["walk", "--system", "case2", "--alpha", "0.1,0.2"]) == 0
        header, row = csv.reader(capsys.readouterr().out.splitlines())
        assert header == ["alpha_1", "alpha_2", "dim"]
        assert len(row) == 3

    def test_lost_perron_vector_is_numeric_error(self, tmp_path, capfd):
        # parity18 of tests/test_walks.py: at s = 50 the Perron vector is lost
        # to rounding, where the grid printed 50,nan,nan and exited 0
        system = tmp_path / "parity18.json"
        system.write_text(json.dumps({"p": 18, "tau": [[-1]], "v": [1], "A": [0, *range(1, 18, 2)]}))
        assert run(["walk", "--system", str(system), "--grid=0:50:2"]) == cli.EXIT_NUMERIC
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "s=[50.0]" in err[0], err


class TestSampleAndRiesz:
    def test_sample_reproducible(self, capsys):
        assert run(["sample", "--measure", "uniform", "--n", "10", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert run(["sample", "--measure", "uniform", "--n", "10", "--seed", "1"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip()) == 10

    def test_riesz_path(self, tmp_path, capsys):
        out = tmp_path / "path.txt"
        code = run(
            ["riesz", "--d", "2", "--b", "0.5", "--n", "10000", "--seed", "7",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["empirical_average"] - 0.5) < 0.05
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10000
        assert set(lines) <= {"+1", "-1"}

    def test_riesz_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            run(["riesz", "--d", "2", "--b", "-0.4", "--n", "500", "--seed", "3",
                 "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_riesz_too_short_to_average(self, tmp_path, capfd):
        # n // d = 0 leaves no block to average: a usage error, not NaN in the JSON
        out = tmp_path / "path.txt"
        assert run(["riesz", "--d", "3", "--n", "2", "--out", str(out)]) == cli.EXIT_CONFIG
        captured = capfd.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
            "error: --n must be at least --d = 3 to average, got 2"
        ]
        assert not out.exists()


class TestVerifyCommand:
    def test_single_check(self, capsys):
        assert run(["verify", "--only", "x2-count"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report[0]["pass"] is True
        assert "stat" in report[0] and "bound" in report[0]

    def test_unknown_check(self):
        assert run(["verify", "--only", "nope"]) == cli.EXIT_CONFIG

    def test_fast_suite(self, capsys):
        for name in ("legendre-ruelle", "walk-closed-form"):
            assert run(["verify", "--only", name]) == 0
            assert json.loads(capsys.readouterr().out)[0]["pass"] is True


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dims", "--config", "fib.json", "--q", "2", "--format", "csv"],
            ["spectrum", "--potential", "rademacher", "--tol", "1e-3"],
            ["verify", "--n", "3"],
            ["sample", "--format", "json"],
        ],
    )
    def test_unread_option_is_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_readme_commands_parse(self):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [
            shlex.split(line, comments=True)
            for line in block.splitlines()
            if line.startswith("multifract ")
        ]
        assert commands
        parser = cli.build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])

    def test_module_entry_point_is_silent(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "multifract.cli",
             "sample", "--n", "10", "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert len(proc.stdout.strip()) == 10
