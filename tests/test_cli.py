import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lampgrid
from lampgrid import metric, selftest
from lampgrid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_single_press_json(self, capsys):
        code, out, _ = run(capsys, "eval", "a", "--json")
        assert code == 0
        assert json.loads(out) == {"lamps": [[0, 0]], "pos": [0, 0]}

    def test_anchor_word(self, capsys):
        code, out, _ = run(capsys, "eval", "s a s^-1 t a t^-2 a t", "--json")
        assert code == 0
        assert json.loads(out) == {
            "lamps": [[-1, 0], [0, -1], [0, 1]],
            "pos": [0, 0],
        }

    def test_metric_alphabet_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "at", "--alphabet", "metric", "--json")
        assert code == 0
        assert json.loads(out) == {"lamps": [[0, 1]], "pos": [0, 1]}

    def test_unknown_token_fails(self, capsys):
        code, _, err = run(capsys, "eval", "x")
        assert code == 1
        assert "'x'" in err


class TestWitness:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "witness", "", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["a_length"] == 0 and data["bound"] == 0

    def test_anchor(self, capsys):
        code, out, _ = run(capsys, "witness", "s a s^-1 t a t^-2 a t", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["a_length"] == 6 and data["bound"] == 6

    def test_long_translation_is_geodesic(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "witness", "s^2000", "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        data = json.loads(out)
        assert (data["word"], data["a_length"]) == ("s^2000", 2000)

    def test_input_limit_hits_the_memory_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "witness", "s^2147483647")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "MiB cap" in err


class TestNumericCommands:
    def test_tour(self, capsys):
        code, out, _ = run(capsys, "tour", "3")
        assert code == 0
        assert out.strip() == "18"

    def test_tour_at_the_input_limit(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "tour", "2147483647")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.strip() == "12884901882"

    def test_dist(self, capsys):
        code, out, _ = run(capsys, "dist", "s a s^-1 t a t^-2 a t")
        assert code == 0
        assert out.strip() == "6"

    def test_dist_radius_exceeded(self, capsys):
        code, _, err = run(
            capsys, "dist", "s a s^-1 t a t^-2 a t", "--max-radius", "3"
        )
        assert code == 1
        assert "radius 3; it is at least 6" in err

    def test_dist_memory_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(metric, "DEFAULT_MEMORY_LIMIT_MB", 0)
        code, _, err = run(capsys, "dist", "s a s^-1 t a t^-2 a t")
        assert code == 1
        assert err.startswith("error:")

    def test_dist_never_searches(self, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("dist searched")

        monkeypatch.setattr(metric, "_expand_layer", no_search)
        code, out, _ = run(capsys, "dist", "s a s^-1 t a t^-2 a t")
        assert (code, out.strip()) == (0, "6")
        assert run(capsys, "dist", "a")[:2] == (0, "1\n")
        code, _, err = run(capsys, "dist", "s a s^-1 t a t^-2 a t", "--memory-limit-mb", "0")
        assert code == 1
        assert err.startswith("error:")

    def test_dist_memory_limit_flag(self, capsys):
        # a's one-letter tour is charged to the cap like any other
        assert run(capsys, "dist", "a")[:2] == (0, "1\n")
        code, _, err = run(capsys, "dist", "a", "--memory-limit-mb", "0")
        assert code == 1
        assert err.startswith("error:")

    def test_spheres(self, capsys):
        code, out, _ = run(capsys, "spheres", "1")
        assert code == 0
        assert out.strip() == "[1, 17]"

    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "t", "a", "--json")
        assert code == 0
        assert json.loads(out) == {"lamps": [[0, 0]], "pos": [0, 1]}

    def test_inv(self, capsys):
        code, out, _ = run(capsys, "inv", "s t", "--json")
        assert code == 0
        assert json.loads(out) == {"lamps": [], "pos": [-1, -1]}


class TestCertify:
    def test_dead_end(self, capsys):
        code, out, _ = run(capsys, "certify-depth", "1", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "certified"
        assert data["neighborhood_size"] == 18

    def test_usage_error_when_k_exceeds_n(self, capsys):
        code, _, err = run(capsys, "certify-depth", "1", "2")
        assert code == 2
        assert "usage error" in err


class TestRender:
    def test_marks_lamplighter_and_lamps(self, capsys):
        code, out, _ = run(capsys, "render", "a t")
        assert code == 0
        assert "*" in out and "L" in out

    def test_negative_window_fails(self, capsys):
        code, out, err = run(capsys, "render", "a", "--window", "-2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "window" in err

    def test_window_at_the_limit(self, capsys):
        code, out, _ = run(capsys, "render", "s^400")
        assert code == 0
        assert out.count("\n") == 801 + 4

    @pytest.mark.parametrize(
        "argv", [("s^2147483647",), ("a", "--window", "2147483647")], ids=["implied", "given"]
    )
    def test_huge_window_fails(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "render", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert "window 2147483647 exceeds the render limit 500" in err


class TestSelftest:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "selftest", "--suite", "core-pascal")
        assert code == 0
        assert out.startswith("PASS")

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "selftest", "--suite", "nope")
        assert code == 1
        assert "unknown selftest suite" in err

    def test_raising_suite_fails_alone(self, capsys, monkeypatch):
        def broken(n):
            raise ValueError("broken bound")

        monkeypatch.setattr(selftest, "tour_lower_bound", broken)
        suites = ("core-pascal", "metric-tour", "core-hexagon")
        code, out, _ = run(capsys, "selftest", *(f"--suite={name}" for name in suites))
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["PASS", "core-pascal"],
            ["FAIL", "metric-tour"],
            ["PASS", "core-hexagon"],
        ]
        assert lines[1].endswith("ValueError: broken bound")
        assert code == 1

    def test_checks_hold_under_optimize(self):
        # halfplane_bound one too high must fail the suite even with the
        # interpreter's asserts stripped.
        script = (
            "import sys\n"
            "from lampgrid import selftest\n"
            "from lampgrid.cli import main\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit('not running under -O')\n"
            "bound = selftest.halfplane_bound\n"
            "selftest.halfplane_bound = lambda g: bound(g) + 1\n"
            "sys.exit(main(['selftest', '--suite', 'metric-witness']))\n"
        )
        src = str(Path(lampgrid.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.stdout.startswith("FAIL  metric-witness"), proc.stdout + proc.stderr
        assert proc.returncode == 1


class TestEnvironmentDefaults:
    def test_env_sets_max_radius(self, capsys, monkeypatch):
        monkeypatch.setenv("LAMPGRID_MAX_RADIUS", "3")
        code, _, err = run(capsys, "dist", "s a s^-1 t a t^-2 a t")
        assert code == 1
        assert "radius 3; it is at least 6" in err

    def test_malformed_env_integer_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LAMPGRID_MAX_RADIUS", "abc")
        with pytest.raises(SystemExit) as info:
            main(["dist", "a"])
        assert info.value.code == 2
        assert "--max-radius" in capsys.readouterr().err
        assert run(capsys, "eval", "a")[0] == 0

    def test_env_sets_dist_memory_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("LAMPGRID_MEMORY_LIMIT_MB", "0")
        code, _, err = run(capsys, "dist", "a")
        assert code == 1
        assert err.startswith("error:")

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LAMPGRID_MAX_RADIUS", "3")
        code, out, _ = run(
            capsys, "dist", "s a s^-1 t a t^-2 a t", "--max-radius", "6"
        )
        assert code == 0
        assert out.strip() == "6"


class TestOutputFingerprint:
    def test_quick_run(self):
        root = Path(__file__).resolve().parents[1]
        src = str(Path(lampgrid.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "output_fingerprint.py"), "--quick"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[:2] == ["# sphere sizes r <= 6", "[1, 17, 70, 240, 722, 2000, 5234]"]
        headers = [i for i, line in enumerate(lines) if line.startswith("# ")]
        ball = lines[headers[2] + 1:headers[3]]
        assert len(ball) == 1 + 17 + 70 + 240
        assert ball[0] == " |  | 0"
        assert lines.count("exit 0") > lines.count("exit 1") > 0
