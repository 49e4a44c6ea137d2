import json

from lampgrid import metric
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


class TestNumericCommands:
    def test_tour(self, capsys):
        code, out, _ = run(capsys, "tour", "3")
        assert code == 0
        assert out.strip() == "18"

    def test_dist(self, capsys):
        code, out, _ = run(capsys, "dist", "s a s^-1 t a t^-2 a t")
        assert code == 0
        assert out.strip() == "6"

    def test_dist_radius_exceeded(self, capsys):
        code, _, err = run(
            capsys, "dist", "s a s^-1 t a t^-2 a t", "--max-radius", "3"
        )
        assert code == 1
        assert "at least 4" in err

    def test_dist_memory_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(metric, "DEFAULT_MEMORY_LIMIT_MB", 0)
        code, _, err = run(capsys, "dist", "s a s^-1 t a t^-2 a t")
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


class TestSelftest:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "selftest", "--suite", "core-pascal")
        assert code == 0
        assert out.startswith("PASS")

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "selftest", "--suite", "nope")
        assert code == 1
        assert "unknown selftest suite" in err


class TestEnvironmentDefaults:
    def test_env_sets_max_radius(self, capsys, monkeypatch):
        monkeypatch.setenv("LAMPGRID_MAX_RADIUS", "3")
        code, _, err = run(capsys, "dist", "s a s^-1 t a t^-2 a t")
        assert code == 1
        assert "at least 4" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LAMPGRID_MAX_RADIUS", "3")
        code, out, _ = run(
            capsys, "dist", "s a s^-1 t a t^-2 a t", "--max-radius", "6"
        )
        assert code == 0
        assert out.strip() == "6"
