"""Command-line surface: dispatch, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diobasis.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_basic_solve(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--algo", "lex", "--no-timing", "1 = 2")
        assert code == 0
        assert out == "2 1\nbasis size: 1\n"

    def test_every_algorithm_agrees(self, capsys):
        outputs = set()
        for algo in ("lex", "completion", "graph", "slopes"):
            code, out, _ = run_cli(capsys, "solve", "--algo", algo, "--no-timing", "2 1 = 1")
            assert code == 0
            outputs.add(out)
        assert outputs == {"0 1 1\n1 0 2\nbasis size: 2\n"}

    def test_timing_line_present_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "1 = 2")
        assert "time:" in out.splitlines()[-1]

    def test_byte_identical_without_timing(self, capsys):
        _, first, _ = run_cli(capsys, "solve", "--no-timing", "3 = 5 7")
        _, second, _ = run_cli(capsys, "solve", "--no-timing", "3 = 5 7")
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--format", "json", "--no-timing", "1 = 2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "diobasis.solve/1"
        assert payload["basis"] == [[2, 1]]
        assert payload["size"] == 1
        assert "time_s" not in payload

    def test_json_timing_field(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--format", "json", "1 = 2")
        assert "time_s" in json.loads(out)

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 = 2\n"))
        code, out, _ = run_cli(capsys, "solve", "--no-timing", "-")
        assert code == 0 and out.startswith("2 1\n")

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "eq.txt"
        path.write_text("2 = 2\n")
        code, out, _ = run_cli(capsys, "solve", "--no-timing", "--file", str(path))
        assert code == 0 and out.startswith("1 1\n")

    def test_dump_slopes3(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--dump-slopes3", "5", "3", "2")
        assert code == 0
        assert out == "1 1 1\n2 0 5\n3 5 0\n"

    @pytest.mark.parametrize(
        "a,message",
        [("0", "coefficient must be >= 1"), ("1048577", "over limit 1048576")],
        ids=["zero", "over_limit"],
    )
    def test_dump_slopes3_rejects_out_of_range_coefficients(self, capsys, a, message):
        # The same checks, messages and exit code as an equation's text.
        code, out, err = run_cli(capsys, "solve", "--dump-slopes3", a, "3", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: token 1: ") and message in err
        assert "Traceback" not in err

    def test_emit_graph(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        code, _, _ = run_cli(
            capsys, "solve", "--no-timing", "--emit-graph", str(path), "1 = 2"
        )
        assert code == 0
        assert path.read_text().splitlines()[0] == "-2: (1->-1)"

    def test_malformed_equation_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "1 x = 2")
        assert code == 2
        assert "token 2" in err

    def test_missing_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "missing.txt"
        code, out, err = run_cli(capsys, "solve", "--file", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    def test_emit_graph_into_missing_directory_exit_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "graph.txt"
        code, out, err = run_cli(capsys, "solve", "--emit-graph", str(path), "2 1 = 1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err


class TestVerify:
    def test_agree_line(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "2 1 = 1")
        assert code == 0
        assert out == "AGREE (4 algorithms, oracle), basis size 2\n"

    def test_oracle_skipped_over_cap(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--oracle-cap", "10", "2 1 = 1")
        assert code == 0
        assert out == "AGREE (4 algorithms), basis size 2\n"
        assert "oracle skipped" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json", "1 = 2")
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["sizes"]["oracle"] == 1
        assert code == 0


class TestGen:
    def test_emits_ten_lines_per_class(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--class", "2,3,13", "--seed", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert all("=" in line for line in lines)

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "gen", "--class", "1,2,5", "--seed", "3")
        _, second, _ = run_cli(capsys, "gen", "--class", "1,2,5", "--seed", "3")
        assert first == second


class TestMalformedOptions:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("gen", "--class", "1,2,x"), "argument --class: class spec '1,2,x' is not N,M,A"),
            (("gen", "--class", "1,2"), "argument --class: class spec '1,2' is not N,M,A"),
            (("gen", "--class", "3,2,5"), "argument --class: need 1 <= N <= M"),
            (("bench", "--classes", "1,2,2;x"), "argument --classes: class spec 'x' is not N,M,A"),
            (("bench", "--runs", "0"), "argument --runs: '0' is not an integer >= 1"),
            (("bench", "--runs", "-3"), "argument --runs: '-3' is not an integer >= 1"),
            (("bench", "--timeout", "-1"), "argument --timeout: '-1' is not a finite number > 0"),
            (("bench", "--timeout", "0"), "argument --timeout: '0' is not a finite number > 0"),
            (("bench", "--timeout", "nan"), "argument --timeout: 'nan' is not a finite number > 0"),
            (("bench", "--early-stop", "0"),
             "argument --early-stop: '0' is not a finite number > 0"),
            (("bench", "--early-stop", "x"),
             "argument --early-stop: 'x' is not a finite number > 0"),
            (("bench", "--epsilon", "-0.5"),
             "argument --epsilon: '-0.5' is not a finite number >= 0"),
            (("bench", "--epsilon", "inf"),
             "argument --epsilon: 'inf' is not a finite number >= 0"),
            (("solve", "--time-limit", "nan", "1 = 1"),
             "argument --time-limit: 'nan' is not a finite number > 0"),
            (("solve", "--time-limit", "0", "1 = 1"),
             "argument --time-limit: '0' is not a finite number > 0"),
            (("verify", "--time-limit", "-1", "1 = 1"),
             "argument --time-limit: '-1' is not a finite number > 0"),
            (("unify", "--time-limit", "inf", "1 = 1"),
             "argument --time-limit: 'inf' is not a finite number > 0"),
            (("verify", "--oracle-cap", "-3", "1 = 1"),
             "argument --oracle-cap: '-3' is not an integer >= 1"),
            (("verify", "--oracle-cap", "0", "1 = 1"),
             "argument --oracle-cap: '0' is not an integer >= 1"),
        ],
        ids=[
            "gen-not-int", "gen-two-fields", "gen-n-over-m", "bench-classes", "runs-0",
            "runs-negative", "timeout-negative", "timeout-0", "timeout-nan", "early-stop-0",
            "early-stop-not-number", "epsilon-negative", "epsilon-inf", "solve-time-limit-nan",
            "solve-time-limit-0", "verify-time-limit-negative", "unify-time-limit-inf",
            "oracle-cap-negative", "oracle-cap-0",
        ],
    )
    def test_exit_2_with_an_error_line(self, capsys, argv, message):
        # argparse rejects them: a usage line, an error line, exit 2.
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(f"error: {message}")


class TestUnify:
    def test_trivial_problem(self, capsys):
        code, out, _ = run_cli(capsys, "unify", "1 = 1")
        assert code == 0
        assert out == "u1 = z1\nv1 = z1\n"

    def test_doubling_problem(self, capsys):
        code, out, _ = run_cli(capsys, "unify", "2 = 1 1")
        assert code == 0
        assert out.splitlines() == [
            "u1 = z1 + z2 + z3",
            "v1 = z2 + 2*z3",
            "v2 = 2*z1 + z2",
        ]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "unify", "--format", "json", "1 = 1")
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["fresh_variables"] == 1


class TestBenchCommand:
    def test_tiny_benchmark_run(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--classes", "1,2,2;1,2,3",
            "--seed", "1",
            "--runs", "1",
            "--out", str(tmp_path),
            "--quiet",
        )
        assert code == 0
        assert "classes: 2" in out
        assert (tmp_path / "wins.txt").exists()
        assert (tmp_path / "metadata.json").exists()
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["policy"]["runs"] == 1

    def test_exec_mode(self, capsys, tmp_path):
        import stat

        solver = tmp_path / "external"
        solver.write_text("#!/bin/sh\ncat > /dev/null\necho '1 1'\n")
        solver.chmod(solver.stat().st_mode | stat.S_IEXEC)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--classes", "1,2,2",
            "--runs", "1",
            "--exec", str(solver),
            "--out", str(out_dir),
            "--quiet",
        )
        assert code == 0
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["timing_mode"] == "internal-vs-subprocess"

    def test_unwritable_out_fails_before_the_run(self, capsys, tmp_path, monkeypatch):
        from diobasis import bench

        def refuse(*args, **kwargs):
            raise AssertionError("the benchmark ran before --out was checked")

        monkeypatch.setattr(bench, "run_benchmark", refuse)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(
            capsys,
            "bench",
            "--classes", "1,2,2",
            "--runs", "1",
            "--out", str(blocker / "out"),
            "--quiet",
        )
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""


def fresh_cli(*argv):
    """Run ``python -m diobasis.cli`` in a fresh interpreter with ``src``
    first on PYTHONPATH, and return its standard output and the names of
    the modules it imported.  ``-X importtime`` logs every import on standard
    error, so a module is missing from the names exactly when it never
    entered ``sys.modules``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "diobasis.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.stdout, names


class TestColdStart:
    """A command imports numpy, and the bench harness, only when it needs
    them."""

    def test_small_commands_run_without_numpy(self):
        out, names = fresh_cli("solve", "--no-timing", "2 1 = 1")
        assert out == "0 1 1\n1 0 2\nbasis size: 2\n"
        assert "numpy" not in names
        assert "diobasis.bench" not in names
        for argv in (
            ("verify", "3 5 = 7 2"),
            ("unify", "3 5 = 7 2"),
            ("gen", "--class", "1,2,3"),
        ):
            _, names = fresh_cli(*argv)
            assert "numpy" not in names, argv

    def test_emit_graph_runs_without_numpy(self, tmp_path):
        path = tmp_path / "graph.txt"
        _, names = fresh_cli("solve", "--no-timing", "--emit-graph", str(path), "2 1 = 1")
        assert path.read_text().splitlines() == [
            "-1: (1->1) (2->0)",
            "0: (1->2) (2->1) (3->-1)",
            "1: (2->2) (3->0)",
            "2: (3->1)",
        ]
        assert "numpy" not in names

    def test_a_wide_graph_level_imports_numpy(self):
        # Its widest level holds 586 walks.
        out, names = fresh_cli("solve", "--no-timing", "104 167 = 165 154 148")
        assert out.endswith("basis size: 410\n")
        assert "numpy" in names
