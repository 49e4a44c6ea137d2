import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lampgrid
from lampgrid import cli, metric, selftest, words
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

    def test_lamp_set_over_the_limit_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(words, "RUN_LAMP_LIMIT", 6)
        code, out, err = run(capsys, "eval", "at^4 t^4 at^4", "--alphabet", "metric")
        assert (code, out, err) == (1, "", "error: 8 lamps lit, over the limit of 6\n")

    def test_exponent_that_is_not_ascii_digits_fails(self, capsys):
        code, out, err = run(capsys, "eval", "s^1_000", "--alphabet", "metric")
        assert (code, out) == (1, "")
        assert err.startswith("parse error: malformed exponent")


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

    def test_word_that_does_not_replay_is_not_printed(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "witness_word", lambda el: lampgrid.parse("s", lampgrid.METRIC))
        with pytest.raises(RuntimeError, match="does not replay"):
            main(["witness", "t"])
        assert capsys.readouterr().out == ""

    def test_word_longer_than_a_geodesic_is_not_printed(self, capsys, monkeypatch):
        # It replays, but two letters past the proved lower length.
        real = cli.witness_word
        padded = lampgrid.parse("a a", lampgrid.PRESENTATION)
        monkeypatch.setattr(cli, "witness_word", lambda el: lampgrid.concat(real(el), padded))
        with pytest.raises(RuntimeError, match="does not replay in 1 letters"):
            main(["witness", "t"])
        assert capsys.readouterr().out == ""

    def test_input_limit_hits_the_memory_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "witness", "s^2147483647")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "MiB cap" in err


@pytest.mark.parametrize("command", ["eval", "inv", "mul", "render", "witness", "dist"])
@pytest.mark.parametrize(
    "word", [f"s^{s}2147483647 t^{t}2147483647 a" for s in ("", "-") for t in ("", "-")]
)
def test_word_command_at_the_input_limit(capsys, command, word):
    # An answer or a refusal within a second, never a partial answer.
    argv = [command, word, word] if command == "mul" else [command, word]
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1)
    if code:
        assert out == ""


@pytest.mark.parametrize(
    "argv, pos",
    [
        (("mul", "s^-2147483647", "s^-2147483647"), "(-4294967294,0)"),
        (("eval", "s^2147483647 s^2147483647"), "(4294967294,0)"),
    ],
    ids=["mul", "eval"],
)
def test_results_past_the_input_limit_are_exact(capsys, argv, pos):
    # The limit bounds the exponents read, not the element they spell.
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, f"pos: {pos}\nlamps: (none)\n")


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

    def test_dist_memory_cap_states_a_proved_lower_bound(self, capsys):
        # g_{10^5}'s walk of 600,001 vertices is charged over 1 MiB at once.
        word = lampgrid.format_word(lampgrid.make_gn(10**5)[1])
        argv = ("dist", word, "--alphabet", "metric", "--max-radius", "600000")
        code, out, err = run(capsys, *argv, "--memory-limit-mb", "1")
        assert (code, out) == (1, "")
        assert err == "error: distance to radius 600000 exceeds the 1 MiB cap; it is at least 600000\n"
        assert run(capsys, *argv, "--memory-limit-mb", "16")[:2] == (0, "600000\n")

    def test_dist_never_searches(self, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("dist searched")

        monkeypatch.setattr(metric._Search, "grow", no_search)
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
        code, out, err = run(capsys, "spheres", "-1")
        assert (code, out) == (1, "")
        assert "radius must be nonnegative" in err

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

    def test_depth_of_the_first_anchor_is_three(self, capsys):
        code, out, _ = run(capsys, "certify-depth", "1", "2", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"
        code, out, _ = run(capsys, "certify-depth", "1", "3")
        assert code == 1
        data = json.loads(out.splitlines()[0])
        assert (data["verdict"], data["failure_witness"]) == ("failed", "s^3")
        assert "dead-end depth of the anchor is at most 3" in out

    @pytest.mark.parametrize(
        "k, code, out, err",
        [
            (
                0,
                0,
                '{"n": 357913941, "k": 0, "ball_radius": 2147483646, "neighborhood_size": 1,'
                ' "max_witness_length": 2147483646, "verdict": "certified",'
                ' "failure_witness": null}\n',
                "",
            ),
            (
                1,
                1,
                "",
                "error: distance to radius 2147483646 exceeds the 2048 MiB cap;"
                " it is at least 2147483646\n",
            ),
        ],
        ids=["k0-proved-by-its-word", "k1-witness-meets-the-cap"],
    )
    def test_largest_anchor(self, capsys, k, code, out, err):
        # 6n = 2^31 - 2.  The anchor's length is proved by its word; only as
        # the parent of B(1) is it measured by a witness, which the cap refuses.
        assert run(capsys, "certify-depth", "357913941", str(k), "--json") == (code, out, err)

    def test_usage_error_when_k_is_negative(self, capsys):
        code, _, err = run(capsys, "certify-depth", "1", "-1")
        assert code == 2
        assert "usage error" in err


class TestRender:
    def test_marks_lamplighter_and_lamps(self, capsys):
        code, out, _ = run(capsys, "render", "a t")
        assert code == 0
        assert "*" in out and "L" in out
        code, text, _ = run(capsys, "render", "a t", "--json")
        assert code == 0
        assert json.loads(text) == {
            "element": {"lamps": [[0, 1]], "pos": [0, 1]},
            "lines": out.splitlines(),
        }

    def test_counts_lamps_outside_the_window(self, capsys):
        code, out, _ = run(capsys, "render", "t^5 a t^-5 s^3 a s^-3", "--window", "2")
        assert code == 0
        assert out.splitlines()[-1] == "(2 lit lamp(s) outside this window)"

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
        # A usage error on the command line, a ValueError to library callers.
        with pytest.raises(SystemExit) as info:
            main(["selftest", "--suite", "nope"])
        assert info.value.code == 2
        assert "argument --suite: invalid choice: 'nope'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="unknown selftest suite 'nope'"):
            selftest.run(["nope"])

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_seed_reaches_every_seeded_suite(self, capsys, monkeypatch, via):
        seeds = []
        generator = selftest.random.Random

        def recorded(seed=None):
            seeds.append(seed)
            return generator(seed)

        monkeypatch.setattr(selftest.random, "Random", recorded)
        if via == "env":
            monkeypatch.setenv("LAMPGRID_SEED", "7")
            code, out, _ = run(capsys, "selftest")
        else:
            code, out, _ = run(capsys, "selftest", "--seed", "7")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 12
        assert {"states:7", "conj:7", "hom:7", "rt:7", "wit:7"} <= set(seeds)

    def test_raising_suite_fails_alone(self, capsys, monkeypatch):
        # One suite raises, two fail a check; each fails alone.  A search
        # that finds every translate within 6 keeps s^3 * g_1 in the ball.
        def broken(n):
            raise ValueError("broken bound")

        monkeypatch.setattr(selftest, "tour_lower_bound", broken)
        monkeypatch.setattr(selftest, "in_hex", lambda pos, n: False)
        monkeypatch.setattr(selftest, "search_distance", lambda g, max_r: 6)
        suites = ("core-pascal", "metric-tour", "core-hexagon", "metric-depth", "core-bilinearity")
        code, out, _ = run(capsys, "selftest", *(f"--suite={name}" for name in suites))
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["PASS", "core-pascal"],
            ["FAIL", "metric-tour"],
            ["FAIL", "core-hexagon"],
            ["FAIL", "metric-depth"],
            ["PASS", "core-bilinearity"],
        ]
        assert lines[1].endswith("ValueError: broken bound")
        assert lines[2].endswith("press at (0, 0) escapes the hexagon H_0")
        assert lines[3].endswith("s^3 left the n=1 anchor inside the radius-6 ball")
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

    def test_unknown_env_alphabet_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LAMPGRID_ALPHABET", "foo")
        with pytest.raises(SystemExit) as info:
            main(["eval", "a"])
        assert info.value.code == 2
        assert "argument --alphabet: invalid choice: 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (argv, flag)
            for argv, flags in [
                (("eval", "a"), ("ALPHABET", "JSON")),
                (("render", "a"), ("ALPHABET", "JSON")),
                (("mul", "a", "a"), ("ALPHABET", "JSON")),
                (("inv", "a"), ("ALPHABET", "JSON")),
                (("dist", "a"), ("ALPHABET", "JSON", "MAX_RADIUS", "MEMORY_LIMIT_MB")),
                (("witness", "a"), ("ALPHABET", "JSON")),
                (("tour", "1"), ("JSON",)),
                (("spheres", "1"), ("MEMORY_LIMIT_MB", "JSON")),
                (("certify-depth", "1", "1"), ("MEMORY_LIMIT_MB", "JSON")),
                (("selftest",), ("SEED",)),
            ]
            for flag in flags
        ],
    )
    def test_env_sets_every_mirrored_flag(self, monkeypatch, argv, flag):
        # A value other than the default, read with the flag absent.
        value, expected = {
            "ALPHABET": ("metric", "metric"),
            "JSON": ("1", True),
            "MAX_RADIUS": ("3", 3),
            "MEMORY_LIMIT_MB": ("7", 7),
            "SEED": ("5", 5),
        }[flag]
        monkeypatch.setenv(f"LAMPGRID_{flag}", value)
        args = cli.build_parser().parse_args(argv)
        assert getattr(args, flag.lower()) == expected

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
        assert ball[0] == " | 0"
        assert lines.count("exit 0") > lines.count("exit 1") > 0
        # Every result, byte for byte.  A change that alters one on purpose
        # regenerates the file with scripts/output_fingerprint.py --quick.
        assert proc.stdout == (root / "tests" / "data" / "fingerprint_quick.txt").read_text()


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(*argv: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    src = str(Path(lampgrid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *flags, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def patched_certificate_script(patch: str, max_n: int) -> str:
    # Runs the script with one lampgrid name replaced, under -O.
    path = SCRIPTS / "run_depth_certificates.py"
    return (
        "import runpy, sys\n"
        "import lampgrid\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        f"{patch}\n"
        f"sys.argv = ['run_depth_certificates.py', '--max-n', '{max_n}']\n"
        f"runpy.run_path({str(path)!r}, run_name='__main__')\n"
    )


class TestDepthCertificateScript:
    def test_wrong_anchor_distance_fails_under_optimize(self):
        # A distance other than 6 must exit 1 even with asserts stripped.
        script = patched_certificate_script(
            "lampgrid.search_distance = lambda g, max_r: 5", max_n=1
        )
        proc = run_script("-c", script, flags=("-O",))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "confirmed" not in proc.stdout

    def test_pins_depth_two_n_plus_one(self):
        proc = run_script(str(SCRIPTS / "run_depth_certificates.py"), "--max-n", "2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # Per n, certify_depth(n, 2n) is certified, so depth > 2n, and the
        # escape s^(2n+1) leaves the ball, so depth <= 2n + 1.
        lines = proc.stdout.splitlines()
        end = lines.index("depth(g_n) = 2n + 1 proved for n = 1..2")
        rows = [line.split() for line in lines[1:end]]
        assert [row[:6] for row in rows] == [
            ["1", "2", "88", "6", "certified", "s^3"],
            ["2", "4", "1050", "12", "certified", "s^5"],
        ]

    def test_a_certificate_that_fails_at_two_n_fails(self):
        # A failure within 2n would refute depth 2n + 1: exit 1.
        script = patched_certificate_script(
            "import dataclasses\n"
            "real = lampgrid.certify_depth\n"
            "lampgrid.certify_depth = lambda n, k, **kw: dataclasses.replace(\n"
            "    real(n, k, **kw), verdict='failed', failure_witness=f's^{k}')",
            max_n=1,
        )
        proc = run_script("-c", script, flags=("-O",))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "certify_depth(1, 2) failed" in proc.stdout
        assert "proved" not in proc.stdout

    def test_an_escape_that_stays_inside_fails(self):
        # An escape measured within 6n + 1 stays inside 6n + 1: exit 1.
        script = patched_certificate_script(
            "real = lampgrid.exact_distance\n"
            "lampgrid.exact_distance = lambda g, max_r, *rest: real(g, max_r + 1, *rest)",
            max_n=1,
        )
        proc = run_script("-c", script, flags=("-O",))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "s^3 keeps g_1 within" in proc.stdout
        assert "proved" not in proc.stdout


class TestSphereGrowthScript:
    def test_prints_time_and_peak_rss(self):
        proc = run_script(str(SCRIPTS / "sphere_growth.py"), "--radius", "3")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-2].split() == ["3", "240", "328", "3.43"]
        words = lines[-1].split()
        assert words[:2] == ["enumerated", "in"] and words[3:5] == ["peak", "RSS"]
        assert float(words[5]) > 0 and words[6] == "MB"
