import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from multifract import cli, symbolic, telescopic, thermo, walks


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

    @pytest.mark.parametrize("flags, named", [(["--potential", "rademacher"], "--potential"),
                                              (["--q", "3", "--d", "4"], "--q, --d")])
    def test_options_beside_config_are_config_error(self, tmp_path, capfd, flags, named):
        # the file once won silently over --potential, --q and --d
        cfg = tmp_path / "phi.json"
        cfg.write_text(thermo.indicator_potential(2, 2).to_json())
        assert run(["spectrum", "--config", str(cfg), *flags, "--grid=-1:1:3"]) == cli.EXIT_CONFIG
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: spectrum takes {named} only without --config\n"

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

    def test_duplicate_transition_is_config_error(self, tmp_path, capfd):
        cfg = tmp_path / "two.json"
        cfg.write_text(json.dumps({"alphabet": 2, "states": ["a", "b"], "initial": "a", "transitions": [
            {"from": "a", "symbol": 0, "to": "a"}, {"from": "a", "symbol": 0, "to": "b"},
            {"from": "b", "symbol": 0, "to": "a"}]}))
        assert run(["dims", "--config", str(cfg), "--q", "2"]) == cli.EXIT_CONFIG
        assert capfd.readouterr().err == "error: two transitions from state 'a' on symbol 0\n"

    def test_missing_file(self):
        assert run(["dims", "--config", "/nonexistent.json", "--q", "2"]) == cli.EXIT_CONFIG

    def test_tol_below_floats_is_config_error(self, fib_file, capfd):
        argv = ["dims", "--config", fib_file, "--q", "2", "--tol", "1e-320"]
        assert run(argv) == cli.EXIT_CONFIG
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: tol"), err

    def test_bad_semigroup_is_config_error(self, fib_file, capfd):
        # int("x") once ended in a ValueError traceback with exit 1
        assert run(["dims", "--config", fib_file, "--semigroup", "2,x"]) == cli.EXIT_CONFIG
        err = capfd.readouterr().err
        assert err == "error: --semigroup must be comma-separated ints, got '2,x'\n"

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

    def test_bad_alpha_is_config_error(self, capfd):
        # float("x") once ended in a ValueError traceback with exit 1
        assert run(["walk", "--system", "case1", "--alpha", "x"]) == cli.EXIT_CONFIG
        assert capfd.readouterr().err == "error: --alpha must be comma-separated floats, got 'x'\n"

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

    @pytest.mark.parametrize("mode", [["--alpha", "0.3"], ["--grid=-1:1:3"]])
    def test_non_finite_system_is_config_error(self, tmp_path, capfd, mode):
        # a NaN v once ended in a LinAlgError traceback from the eigensolve
        system = tmp_path / "nan.json"
        system.write_text('{"p": 2, "tau": [[-1]], "v": [NaN], "A": [0, 1]}')
        assert run(["walk", "--system", str(system), *mode]) == cli.EXIT_CONFIG
        assert capfd.readouterr().err == "error: tau and v must be finite\n"

    def test_non_integer_step_is_config_error(self, tmp_path, capfd):
        system = tmp_path / "half.json"
        system.write_text('{"p": 2, "tau": [[-1]], "v": [1], "A": [0, 1.5]}')
        assert run(["walk", "--system", str(system), "--alpha", "0.3"]) == cli.EXIT_CONFIG
        assert capfd.readouterr().err == "error: steps must be integers, got (0, 1.5)\n"

    def test_boolean_steps_are_config_error(self, tmp_path, capfd):
        # json_int's rule for each step: true once read as the step 1, while 1.0 is 1
        system = tmp_path / "steps.json"
        system.write_text('{"p": 2, "tau": [[-1]], "v": [1], "A": [true, false]}')
        assert run(["walk", "--system", str(system), "--alpha", "0.3"]) == cli.EXIT_CONFIG
        assert capfd.readouterr().err == "error: steps must be integers, got (True, False)\n"
        system.write_text('{"p": 2, "tau": [[-1]], "v": [1], "A": [0.0, 1.0]}')
        assert run(["walk", "--system", str(system), "--alpha", "0.3"]) == 0

    def test_grid_beside_alpha_is_config_error(self, capfd):
        # the grid was never parsed
        assert run(["walk", "--system", "case1", "--alpha", "0.5", "--grid=bad"]) == cli.EXIT_CONFIG
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "error: walk takes --grid only without --alpha\n"

    def test_grid_solves_each_s_once(self, monkeypatch, capsys):
        # P and grad P were once two Perron solves per s, 242 on the default grid
        calls, solve = [], walks.walk_pressure
        monkeypatch.setattr(walks, "walk_pressure", lambda *args: calls.append(args) or solve(*args))
        assert run(["walk", "--system", "case1", "--grid=-3:3:121"]) == 0
        assert len(calls) == 121
        assert len(capsys.readouterr().out.splitlines()) == 122

    def test_lost_perron_vector_is_numeric_error(self, tmp_path, capfd):
        # parity18 of tests/test_walks.py: at s = 50 the Perron vector is lost
        # to rounding, where the grid printed 50,nan,nan and exited 0
        system = tmp_path / "parity18.json"
        system.write_text(json.dumps({"p": 18, "tau": [[-1]], "v": [1], "A": [0, *range(1, 18, 2)]}))
        assert run(["walk", "--system", str(system), "--grid=0:50:2"]) == cli.EXIT_NUMERIC
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "s=[50.0]" in err[0], err


# each loader once truncated a non-integer field with int(): "p": 2.7 read as 2
NON_INTEGER_CONFIGS = {
    "spectrum": ("--config", {"m": 2, "q": 2.9, "d": 2, "table": {"00": 0, "01": 1, "10": 1, "11": 0}},
                 "q", ["--grid=-1:1:3"]),
    "dims": ("--config", {"alphabet": 2.5, "states": ["a"], "initial": "a",
                          "transitions": [{"from": "a", "symbol": 0, "to": "a"}]}, "alphabet", ["--q", "2"]),
    "walk": ("--system", {"p": 2.7, "tau": [[-1]], "v": [1], "A": [0, 1]}, "p", ["--alpha", "0.3"]),
    "sample": ("--measure", {"m": 2, "order": 1.5, "initial": [0.5, 0.5], "kernel": [[0.5, 0.5]] * 2},
               "order", []),
}


@pytest.mark.parametrize("command", sorted(NON_INTEGER_CONFIGS))
def test_non_integer_config_field_is_config_error(tmp_path, capfd, command):
    flag, doc, field, rest = NON_INTEGER_CONFIGS[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert run([command, flag, str(path), *rest]) == cli.EXIT_CONFIG
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field} must be an integer, got {doc[field]!r}\n"


# each once ended in a traceback with exit 1 (the first five) or loaded without error (the states)
MALFORMED_CONFIGS = [
    pytest.param(["spectrum", "--grid=-1:1:3", "--config"], {"m": 2, "q": 2, "d": 2, "table": [1, 2, 3, 4]},
                 id="table-array"),
    pytest.param(["spectrum", "--grid=-1:1:3", "--config"],
                 {"m": 2, "q": 2, "d": 2, "table": {"00": 0, "01": 1, "10": 1, "11": "x"}}, id="table-text"),
    pytest.param(["sample", "--n", "5", "--measure"], {"m": 2, "order": 0, "initial": [1], "kernel": [[0.5, "a"]]},
                 id="kernel-text"),
    pytest.param(["sample", "--n", "5", "--measure"],
                 {"m": 2, "order": 1, "initial": [0.5, 0.5], "kernel": [[0.5, 0.5], [1]]}, id="kernel-ragged"),
    pytest.param(["walk", "--alpha", "0.3", "--system"], {"p": 2, "tau": [["a"]], "v": [1], "A": [0, 1]},
                 id="tau-text"),
    pytest.param(["dims", "--q", "2", "--config"],
                 {"alphabet": 2, "states": "ab", "initial": "a",
                  "transitions": [{"from": "a", "symbol": 0, "to": "b"}, {"from": "b", "symbol": 1, "to": "a"}]},
                 id="states-string"),
    pytest.param(["dims", "--q", "2", "--config"],
                 {"alphabet": 2, "states": [1, 2], "initial": 1,
                  "transitions": [{"from": 1, "symbol": 0, "to": 2}, {"from": 2, "symbol": 1, "to": 1}]},
                 id="states-numbers"),
    *(pytest.param([command, flag], [1, 2], id=f"{command}-top-level-array")
      for command, flag in (("spectrum", "--config"), ("sample", "--measure"), ("walk", "--system"),
                            ("dims", "--config"))),
]


@pytest.mark.parametrize("argv, doc", MALFORMED_CONFIGS)
def test_malformed_config_is_config_error(tmp_path, capfd, argv, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert run([*argv, str(path)]) == cli.EXIT_CONFIG
    captured = capfd.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed ") and " document: " in err[0], captured.err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf8", "nested-too-deep"])
def test_undecodable_config_is_config_error(tmp_path, capfd, content):
    # each once ended in a traceback with exit 1
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert run(["dims", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_json_is_decoded_only_by_the_one_reader():
    # errors.json_document owns the malformed-document rule; a loader that
    # decoded JSON itself would need its own copy of it
    readers = [path.name for path in sorted((ROOT / "src" / "multifract").glob("*.py"))
               if "json.load" in path.read_text()]
    assert readers == ["errors.py"]


class TestSampleAndRiesz:
    def test_sample_reproducible(self, capsys):
        assert run(["sample", "--measure", "uniform", "--n", "10", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert run(["sample", "--measure", "uniform", "--n", "10", "--seed", "1"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip()) == 10

    def test_sample_one_character_per_symbol(self, tmp_path, capsys):
        # symbols 10 and up are letters, so "b" is 11 and every path decodes
        assert run(["sample", "--m", "12", "--n", "400", "--seed", "4"]) == 0
        text = capsys.readouterr().out.strip()
        base = telescopic.BaseMeasure.uniform(12)
        path = telescopic.sample(telescopic.TelescopicMeasure(base=base, q=2), 400, 4)
        assert [int(c, 36) for c in text] == path.symbols.tolist()
        assert {"a", "b"} <= set(text)

    def test_sample_rejects_more_symbols_than_characters(self, capfd):
        assert run(["sample", "--measure", "uniform", "--m", "37"]) == cli.EXIT_CONFIG
        captured = capfd.readouterr()
        assert captured.out == "" and "m must be <= 36" in captured.err

    def test_sample_rejects_non_finite_measure(self, tmp_path, capfd):
        # the NaN kernel passed every check and printed twenty 0s
        law = tmp_path / "nan.json"
        law.write_text('{"m": 2, "order": 0, "initial": [1.0], "kernel": [[NaN, 1.0]]}')
        argv = ["sample", "--measure", str(law), "--n", "20", "--seed", "1"]
        assert run(argv) == cli.EXIT_CONFIG
        captured = capfd.readouterr()
        assert captured.out == "" and captured.err == "error: probabilities must be finite\n"

    def test_sample_m_must_match_measure_file(self, tmp_path, capfd):
        # the file's m = 2 once won silently over --m 5
        law = tmp_path / "law.json"
        law.write_text('{"m": 2, "order": 0, "initial": [1.0], "kernel": [[0.5, 0.5]]}')
        argv = ["sample", "--measure", str(law), "--n", "5", "--seed", "1"]
        assert run([*argv, "--m", "5"]) == cli.EXIT_CONFIG
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --m 5 does not match the measure file's m = 2\n"
        assert run([*argv, "--m", "2"]) == 0
        assert len(capfd.readouterr().out.strip()) == 5

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
