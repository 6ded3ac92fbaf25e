import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import CW_CONFIG, REPO_ROOT
from oracles import make_psd, write_ensemble_csv, write_trajectories_csv

from sensact import __version__, cli, linalg, search, sim
from sensact.cli import build_parser, main
from sensact.covariance import steady_augmented_cov, steady_error_cov
from sensact.exceptions import DomainError, SchemaError
from sensact.modelio import load_model, parse_matrix, save_model
from sensact.plant import GainSet, SystemModel, mode_matrices
from sensact.sequence import _MAX_POWERS


class TestMatrixForms:
    def test_nested_lists(self):
        np.testing.assert_allclose(parse_matrix([[1.0, 2.0], [3.0, 4.0]], "$"),
                                   [[1.0, 2.0], [3.0, 4.0]])

    def test_eye_with_scale(self):
        np.testing.assert_allclose(parse_matrix({"eye": 3, "scale": 0.5}, "$"),
                                   0.5 * np.eye(3))

    def test_diag(self):
        np.testing.assert_allclose(parse_matrix({"diag": [1.0, 2.0]}, "$"),
                                   np.diag([1.0, 2.0]))

    def test_vector_promoted_to_row(self):
        assert parse_matrix([1.0, 2.0, 3.0], "$").shape == (1, 3)

    def test_ragged_rejected(self):
        with pytest.raises(SchemaError):
            parse_matrix([[1.0], [2.0, 3.0]], "$")

    def test_unknown_object_rejected(self):
        with pytest.raises(SchemaError):
            parse_matrix({"ones": 3}, "$")


@pytest.fixture()
def model_file(tmp_path):
    out = tmp_path / "model.json"
    assert main(["model", "build", str(CW_CONFIG), "-o", str(out)]) == 0
    return str(out)


class TestModelBuild:
    def test_prints_radii_and_constant(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["model", "build", str(CW_CONFIG), "-o", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "rho(feedback)=0.2016" in captured
        assert "rho(observer)=0.0332" in captured
        assert "rho(coast)=1.0000" in captured
        assert "growth constant" in captured

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["model", "build", str(CW_CONFIG), "-o", str(a)]) == 0
        assert main(["model", "build", str(CW_CONFIG), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrip_rebuild(self, tmp_path, model_file):
        # reload, rewrite: byte-identical serialization
        model, gains, cfg = load_model(model_file)
        from sensact.modelio import model_to_dict, dump_json

        doc = json.loads(open(model_file).read())
        redumped = dump_json(model_to_dict(model, gains, doc.get("summary"), cfg))
        assert redumped == open(model_file).read()

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        cfg = json.loads(CW_CONFIG.read_text())
        cfg["plant"]["typo_key"] = 1
        bad.write_text(json.dumps(cfg))
        assert main(["model", "build", str(bad), "-o", str(tmp_path / "m.json")]) == 2
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize("components, message", [
        ([0, 0, 1], "repeats a state index"),
        ([True, False], "expected a list of state indices"),
    ], ids=["repeated", "booleans"])
    def test_chance_components_checked(self, tmp_path, capsys, components, message):
        # a repeated index would count twice in Chebyshev's n_x, and a
        # boolean would be taken as the index 0 or 1
        cfg = json.loads(CW_CONFIG.read_text())
        cfg["chance"]["components"] = components
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["model", "build", str(bad), "-o", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"error: $.chance.components: {message}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("spec, key", [
        ({"eye": "x"}, "$.noise.sigma_w.eye"),
        ({"eye": -1}, "$.noise.sigma_w.eye"),
        ({"eye": True}, "$.noise.sigma_w.eye"),
        ({"eye": 6, "scale": "x"}, "$.noise.sigma_w.scale"),
        ({"diag": "x"}, "$.noise.sigma_w.diag"),
        ({"diag": []}, "$.noise.sigma_w.diag"),
        ({"diag": [1.0, "x"]}, "$.noise.sigma_w.diag[1]"),
        ([[10**400]], "$.noise.sigma_w"),
    ], ids=["eye-text", "eye-negative", "eye-bool", "scale-text", "diag-text",
            "diag-empty", "diag-entry-text", "int-past-float-range"])
    def test_malformed_matrix_shorthand_exit_2(self, tmp_path, capsys, spec, key):
        bad = tmp_path / "bad.json"
        cfg = json.loads(CW_CONFIG.read_text())
        cfg["noise"]["sigma_w"] = spec
        bad.write_text(json.dumps(cfg))
        assert main(["model", "build", str(bad), "-o", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("number, message", [
        ("NaN", "{bad}: NaN is not a finite number"),
        ("Infinity", "{bad}: Infinity is not a finite number"),
        ("-Infinity", "{bad}: -Infinity is not a finite number"),
        ("1e999", "$.noise.sigma_w.scale: expected a finite number"),
    ])
    def test_non_finite_scale_exit_2(self, tmp_path, capsys, number, message):
        bad = tmp_path / "bad.json"
        text = CW_CONFIG.read_text()
        assert '"sigma_w": {"eye": 6, "scale": 1e-4}' in text
        bad.write_text(text.replace('"scale": 1e-4', f'"scale": {number}'))
        assert main(["model", "build", str(bad), "-o", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"error: {message.format(bad=bad)}\n"

    @pytest.mark.parametrize("section, key, spec, message", [
        ("noise", "sigma_w", {"eye": 10**7}, "eye: size 10000000, expected 6"),
        ("noise", "sigma_w", {"eye": 7}, "eye: size 7, expected 6"),
        ("noise", "sigma_v", {"diag": [1.0] * 4}, "diag: size 4, expected 3"),
        ("gains", "r", {"eye": 10**7, "scale": 2.0}, "eye: size 10000000, expected 3"),
        ("cost", "r_state", {"eye": 10**7}, "eye: size 10000000, expected 6"),
        ("sim", "x0_cov", {"eye": 10**7}, "eye: size 10000000, expected 6"),
    ], ids=["sigma_w-eye-huge", "sigma_w-eye-7", "sigma_v-diag-4", "r-eye-huge",
            "r_state-eye-huge", "x0_cov-eye-huge"])
    def test_shorthand_size_checked_before_it_is_built(self, tmp_path, capsys, section, key,
                                                       spec, message):
        # an eye of 10^7 would ask for 728 TiB
        bad = tmp_path / "bad.json"
        cfg = json.loads(CW_CONFIG.read_text())
        cfg[section][key] = spec
        bad.write_text(json.dumps(cfg))
        assert main(["model", "build", str(bad), "-o", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"error: $.{section}.{key}.{message}\n"

    def test_mean_motion_past_float_range_exit_2(self, tmp_path, capsys):
        # 3 w^2 of the CW dynamics would overflow (an OverflowError before)
        bad = tmp_path / "bad.json"
        cfg = json.loads(CW_CONFIG.read_text())
        cfg["plant"]["cw"]["mean_motion"] = 1e300
        bad.write_text(json.dumps(cfg))
        assert main(["model", "build", str(bad), "-o", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (
            "error: $.plant.cw.mean_motion: too large: 3 mean_motion^2 is past float range\n")

    @pytest.mark.parametrize("a, b, c, key, shape, n", [
        ({"eye": 10**7}, [[0.0], [1.0]], [[1.0, 0.0]], "continuous.a.eye", (10**7,) * 2, 2),
        ([[0.0, 1.0], [0.0, 0.0]], {"eye": 10**7}, [[1.0, 0.0]], "continuous.b.eye",
         (10**7,) * 2, 2),
        ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], {"eye": 10**7}, "c.eye", (10**7,) * 2, 2),
        ({"eye": 10**7}, {"eye": 10**7}, [[1.0, 0.0]], "continuous.a.eye", (10**7,) * 2, 2),
        ({"eye": 2}, [[0.0], [1.0], [0.0]], [[1.0, 0.0]], "continuous.a.eye", (2, 2), 3),
        ([[0.0, 1.0]], [[0.0], [1.0]], [[1.0, 0.0]], "continuous.a", (1, 2), 1),
        ([[0.0, 1.0], [0.0, 0.0]], [[0.0]], [[1.0, 0.0]], "continuous.b", (1, 1), 2),
        ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0, 0.0]], "c", (1, 3), 2),
    ], ids=["a-eye-huge", "b-eye-huge", "c-eye-huge", "ab-eye-huge", "a-eye-vs-b",
            "a-not-square", "b-rows", "c-columns"])
    def test_continuous_plant_checked_before_it_is_built(self, tmp_path, capsys, a, b, c,
                                                         key, shape, n):
        # the state dimension comes from a matrix that is not an eye
        # shorthand; an eye of 10^7 would ask for 728 TiB
        cfg = {"plant": {"continuous": {"a": a, "b": b}, "c": c, "ts": 1.0},
               "noise": {"sigma_w": {"eye": n}, "sigma_v": [[0.1]]},
               "gains": {"q": {"eye": n}, "r": [[1.0]]}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["model", "build", str(bad), "-o", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: $.plant.{key}: shape {shape} disagrees with the state dimension {n}\n")

    def test_continuous_plant_of_shorthands_builds(self, tmp_path, capsys):
        cfg = {"plant": {"continuous": {"a": {"eye": 2, "scale": -0.1}, "b": [[0.0], [1.0]]},
                         "c": [[1.0, 0.0]], "ts": 1.0},
               "noise": {"sigma_w": {"eye": 2, "scale": 0.1}, "sigma_v": [[0.1]]},
               "gains": {"q": {"eye": 2}, "r": [[1.0]]}}
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(cfg))
        assert main(["model", "build", str(path), "-o", str(tmp_path / "m.json")]) == 0
        model, _, _ = load_model(tmp_path / "m.json")
        assert (model.n, model.m, model.p) == (2, 1, 1)

    def test_invalid_json_exit_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"plant": \n !')
        assert main(["model", "build", str(bad), "-o", str(tmp_path / "m.json")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_not_stabilizable_exit_3(self, tmp_path):
        cfg = {
            "plant": {"continuous": {"a": [[0.1]], "b": [[0.0]]}, "ts": 1.0,
                      "c": [[1.0]]},
            "noise": {"sigma_w": [[0.01]], "sigma_v": [[0.01]]},
            "gains": {"q": [[1.0]], "r": [[1.0]]},
        }
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(cfg))
        assert main(["model", "build", str(path), "-o", str(tmp_path / "m.json")]) == 3

    @pytest.mark.filterwarnings("error")
    def test_uncontrollable_unstable_mode_exit_3(self, tmp_path):
        # discrete A = diag(1.5, 0.5), B = [0, 1]': B cannot reach the 1.5 mode
        cfg = {
            "plant": {"continuous": {"a": {"diag": [math.log(1.5), math.log(0.5)]},
                                     "b": [[0.0], [1.0]]},
                      "ts": 1.0, "c": [[1.0, 0.0]]},
            "noise": {"sigma_w": {"eye": 2}, "sigma_v": [[1.0]]},
            "gains": {"q": {"eye": 2}, "r": [[1.0]]},
        }
        path = tmp_path / "uncontrollable.json"
        path.write_text(json.dumps(cfg))
        assert main(["model", "build", str(path), "-o", str(tmp_path / "m.json")]) == 3

    def test_runtime_imports_no_scipy(self, tmp_path):
        # scipy is a test dependency only: importing the package and
        # building the case-study model must not load it
        script = ("import sys\n"
                  "import sensact, sensact.cli\n"
                  "code = sensact.cli.main(['model', 'build', sys.argv[1], '-o', sys.argv[2]])\n"
                  "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                  "print(code, loaded)\n")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", script, str(CW_CONFIG),
                               str(tmp_path / "m.json")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["model", "build", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "m.json")]) == 2

    def test_env_config_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SENSACT_CONFIG_DIR", str(CW_CONFIG.parent))
        out = tmp_path / "m.json"
        assert main(["model", "build", "cw.json", "-o", str(out)]) == 0


class TestSeqCheck:
    def test_admissible_report(self, model_file, capsys):
        assert main(["seq", "check", model_file, "0011"]) == 0
        out = capsys.readouterr().out
        assert "qbar=0.5875" in out
        assert "admissible=yes" in out

    def test_core_reported(self, model_file, capsys):
        assert main(["seq", "check", model_file, "00110011"]) == 0
        assert "irreducible core 0011" in capsys.readouterr().out

    def test_inadmissible_pair(self, model_file, capsys):
        assert main(["seq", "check", model_file, "01", "--dwell"]) == 0
        out = capsys.readouterr().out
        assert "admissible=no" in out
        assert "lhs_ctrl=6.30" in out

    def test_malformed_bits_exit_2(self, model_file):
        assert main(["seq", "check", model_file, "01x2"]) == 2

    def test_chance_flag(self, model_file, capsys):
        assert main(["seq", "check", model_file, "0011", "--chance",
                     "--bound", "22", "--delta", "0.05"]) == 0
        assert "exact=pass" in capsys.readouterr().out

    def test_json_report(self, model_file, tmp_path):
        report = tmp_path / "report.json"
        assert main(["seq", "check", model_file, "0011", "--dwell",
                     "--json", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["admissible"] is True
        assert doc["core"] == "0011"
        assert "dwell_screen" in doc

    def test_dwell_screen_passes_an_inadmissible_word(self, model_file, tmp_path):
        # with the case-study c the screen is not a sufficient condition on
        # this model: 0^1000 1^6 passes it, yet its control-side monodromy
        # has spectral radius above 1
        report = tmp_path / "report.json"
        assert main(["seq", "check", model_file, "0" * 1000 + "1" * 6, "--dwell",
                     "--json", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["admissible"] is False
        assert doc["qbar"] == pytest.approx(1.0468, abs=1e-4)
        assert doc["dwell_screen"]["passes"] is True
        assert doc["dwell_screen"]["lhs_ctrl"] == pytest.approx(-1.7065, abs=1e-4)


def _drop_last_column(rows):
    return [row[:-1] for row in rows]


def _first_entry(value):
    return lambda rows: [[value] + rows[0][1:]] + rows[1:]


class TestMalformedModelFile:
    """A model file whose matrices or ts cannot be read, whose gains have
    the wrong shape, or whose config echo or one of its chance, sim and
    cost sections is not an object, is an input error: exit 2 with the key
    named, never a traceback."""

    @pytest.mark.parametrize("key, edit, message", [
        ("k", lambda rows: rows[:-1], "model file key 'k': shape (2, 6), expected (3, 6)"),
        ("k", _drop_last_column, "model file key 'k': shape (3, 5), expected (3, 6)"),
        ("l", _drop_last_column, "model file key 'l': shape (6, 2), expected (6, 3)"),
        ("l", lambda rows: rows[:-1], "model file key 'l': shape (5, 3), expected (6, 3)"),
        ("ts", lambda ts: "thirty", "model file key 'ts': not a number"),
        ("a", _first_entry("x"), "model file key 'a': not a numeric matrix"),
        ("sigma_w", _first_entry("x"), "model file key 'sigma_w': not a numeric matrix"),
        ("k", _first_entry("x"), "model file key 'k': not a numeric matrix"),
        ("a", _drop_last_column, "A must be square, got shape (6, 5)"),
        ("a", lambda rows: rows[:1] + _drop_last_column(rows[1:]),
         "model file key 'a': not a numeric matrix"),
        ("k", _first_entry(math.nan), "K has non-finite entries"),
        ("l", _first_entry(math.inf), "L has non-finite entries"),
    ], ids=["k-rows", "k-columns", "l-columns", "l-rows", "ts-text", "a-text",
            "sigma_w-text", "k-text", "a-not-square", "a-ragged", "k-nan", "l-inf"])
    def test_exit_2_naming_the_key(self, model_file, tmp_path, key, edit, message):
        doc = json.loads(pathlib.Path(model_file).read_text(encoding="utf-8"))
        doc[key] = edit(doc[key])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run([sys.executable, "-m", "sensact", "seq", "check", str(bad), "0011"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("section, value, argv", [
        (None, ["x"], ["chance", "verify", "{bad}", "0011", "--bound", "22", "--delta", "0.05"]),
        (None, ["x"], ["sim", "run", "{bad}", "0011", "--runs", "2", "--steps", "3",
                       "--out", "{out}"]),
        (None, ["x"], ["seq", "search", "{bad}", "--n", "4"]),
        ("chance", [1], ["chance", "verify", "{bad}", "0011", "--bound", "22"]),
        ("sim", [1], ["sim", "run", "{bad}", "0011", "--out", "{out}"]),
        ("cost", "x", ["seq", "search", "{bad}", "--n", "4"]),
    ], ids=["config-chance-verify", "config-sim-run", "config-seq-search",
            "chance-section", "sim-section", "cost-section"])
    def test_config_echo_not_an_object(self, model_file, tmp_path, section, value, argv):
        doc = json.loads(pathlib.Path(model_file).read_text(encoding="utf-8"))
        if section is None:
            doc["config"], key = value, "config"
        else:
            doc["config"][section], key = value, f"config.{section}"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        argv = [a.format(bad=bad, out=tmp_path / "out") for a in argv]
        done = subprocess.run([sys.executable, "-m", "sensact", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr == (f"error: model file key {key!r}: expected an object, "
                               f"got {type(value).__name__}\n")

    @pytest.mark.parametrize("section, key, value, argv, message", [
        ("cost", "r_eta", "x", ["seq", "search", "{bad}", "--n", "4"], "expected a number"),
        ("chance", "bound", "x", ["chance", "verify", "{bad}", "0011"], "expected a number"),
        ("chance", "bound", "x", ["sim", "run", "{bad}", "0011", "--runs", "2", "--steps", "3",
                                  "--out", "{out}"], "expected a number"),
        ("chance", "delta", [], ["chance", "verify", "{bad}", "0011"], "expected a number"),
        ("sim", "x0_mean", "x", ["sim", "run", "{bad}", "0011", "--out", "{out}"],
         "expected a list of 6 numbers"),
        ("chance", "components", [0, 0, 1], ["chance", "verify", "{bad}", "0011", "--bound",
                                             "22"], "repeats a state index"),
        ("chance", "components", [True, False], ["chance", "verify", "{bad}", "0011"],
         "expected a list of state indices"),
    ], ids=["cost-r_eta-seq-search", "chance-bound-chance-verify", "chance-bound-sim-run",
            "chance-delta-chance-verify", "sim-x0_mean-sim-run",
            "chance-components-repeated", "chance-components-booleans"])
    def test_config_echo_value_checked_by_its_reader(self, model_file, tmp_path, capsys,
                                                     section, key, value, argv, message):
        # each command checks the section it reads as config load does
        doc = json.loads(pathlib.Path(model_file).read_text(encoding="utf-8"))
        doc["config"][section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main([a.format(bad=bad, out=tmp_path / "out") for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config.{section}.{key}: {message}\n"
        assert not (tmp_path / "out").exists()


class TestUnreadableFile:
    """A config or model file whose bytes are not UTF-8, or whose JSON
    nests past the parser's recursion limit, is an input error: exit 2
    with one line naming the file, never a traceback."""

    @pytest.mark.parametrize("content, message", [
        (b'{"plant": "caf\xe9"}', "not UTF-8 text: invalid continuation byte at byte 14"),
        (b"[" * 200000 + b"]" * 200000, "JSON nested too deeply to read"),
    ], ids=["not-utf-8", "nested-200000-deep"])
    @pytest.mark.parametrize("argv", [
        ["model", "build", "{bad}", "-o", "{out}"],
        ["seq", "check", "{bad}", "0011", "--json", "{out}"],
    ], ids=["config", "model"])
    def test_exit_2_naming_the_file(self, tmp_path, capsys, content, message, argv):
        bad, out = tmp_path / "bad.json", tmp_path / "out.json"
        bad.write_bytes(content)
        assert main([a.format(bad=bad, out=out) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()


class TestRepeatedWork:
    """Each command takes each eigenvalue decomposition once, and only
    those its output reads: one batched call per admissibility decision
    and one for the error covariance's observer side, which cov steady
    --augmented reads from the joint solve instead. Loading a model
    takes none: the gain set holds K and L only, and ModeMatrices takes
    the mode radii on first read, which only the dwell screen and model
    build do. The steady solves have no stability guard of their own, and
    the joint covariance takes no radius of its block-triangular
    monodromy: the admissibility verdict on its two diagonal blocks
    decides it. The growth constant of --dwell reads the mode radii (and,
    at kstar=1, the Frobenius norms). seq search --n 10 takes one call for
    the sides its radius bounds leave open and one for the winner's
    report; sim run takes none."""

    @pytest.mark.parametrize("argv, count", [
        (["seq", "check", "{model}", "0011"], 1),
        (["seq", "check", "{model}", "0011", "--dwell"], 2),
        (["cov", "steady", "{model}", "0011", "--augmented"], 1),
        (["chance", "verify", "{model}", "0011", "--bound", "22", "--delta", "0.05"], 1),
        (["seq", "search", "{model}", "--n", "10"], 2),
        (["sim", "run", "{model}", "0011", "--runs", "2", "--steps", "8", "--out", "{out}"], 0),
    ], ids=["seq-check", "seq-check-dwell", "cov-steady-augmented", "chance-verify",
            "seq-search-10", "sim-run"])
    def test_eigvals_calls(self, model_file, tmp_path, capsys, monkeypatch, argv, count):
        calls = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or real(a))
        assert main([a.format(model=model_file, out=tmp_path / "out") for a in argv]) == 0
        capsys.readouterr()
        assert len(calls) == count

    def test_one_stacked_nilpotency_test_per_mode_matrices(self, cw_model, cw_gains,
                                                           monkeypatch):
        calls = []
        real = linalg.is_nilpotent
        monkeypatch.setattr(linalg, "is_nilpotent", lambda m: calls.append(np.shape(m)) or real(m))
        mm = mode_matrices(cw_model, cw_gains)
        assert calls == []
        flags = mm.nilpotent
        assert mm.nilpotent is flags
        # A is both omega_bar0 and omega_tilde1: one stack of three matrices
        assert calls == [(3, 6, 6)]
        assert flags == tuple(real(m) for m in (mm.omega_bar0, mm.omega_bar1,
                                                mm.omega_tilde0, mm.omega_tilde1))


def _contractive_plant(n, seed):
    """A plant with B = C = I whose three mode matrices have spectral
    norm 0.8, so that every word is admissible."""
    rng = np.random.default_rng(seed)
    a, feedback, observer = (m * (0.8 / np.linalg.norm(m, 2))
                             for m in rng.standard_normal((3, n, n)))
    model = SystemModel(a=a, b=np.eye(n), c=np.eye(n), sigma_w=make_psd(rng, n, 0.1),
                        sigma_v=make_psd(rng, n, 0.1))
    return model, GainSet(k=feedback - a, l=observer - a)


class TestCovSteadyTraces:
    """The trace lines of cov steady, formatted per phase with np.trace."""

    @pytest.mark.parametrize("plant, word", [
        ("cw", "0001100011"), ("cw", "0011"), ("random-11", "0110100"), ("random-11", "1"),
    ])
    def test_trace_lines(self, model_file, tmp_path, capsys, plant, word):
        if plant == "cw":
            path = model_file
            model, gains, _ = load_model(path)
        else:
            model, gains = _contractive_plant(11, 14)
            path = str(tmp_path / "plant.json")
            save_model(path, model, gains)
        assert main(["cov", "steady", path, word, "--augmented"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the error phases of --augmented are the joint phases' error blocks
        joint, state = steady_augmented_cov(word, mode_matrices(model, gains))
        err = joint.phases[:, model.n:, model.n:]
        assert lines == [
            "steady error covariance traces: " + " ".join(f"{np.trace(p):.6g}" for p in err),
            "steady state covariance traces: " + " ".join(f"{np.trace(p):.6g}" for p in state),
        ]


class TestSeqDwell:
    def test_values_printed(self, model_file, capsys):
        assert main(["seq", "dwell", model_file, "00011111"]) == 0
        out = capsys.readouterr().out
        assert "lhs_ctrl=-0.10" in out
        assert "typeset variant" in out
        assert "passes" in out

    def test_kstar_past_the_cap_exit_2(self, model_file, capsys):
        kstar = str(_MAX_POWERS + 1)
        assert main(["seq", "dwell", model_file, "0011", "--kstar", kstar]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: a growth constant walks at most {_MAX_POWERS} "
                                f"matrix powers, not {kstar}\n")


class TestSeqSearch:
    def test_fixed_length_four(self, model_file, capsys):
        assert main(["seq", "search", model_file, "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "0011" in out
        assert "tie class (4)" in out

    def test_infeasible_exit_zero(self, model_file, capsys):
        assert main(["seq", "search", model_file, "--n-max", "3"]) == 0
        assert "no admissible sequence" in capsys.readouterr().out

    def test_json_output(self, model_file, tmp_path):
        out = tmp_path / "search.json"
        assert main(["seq", "search", model_file, "--n", "7", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["feasible"] is True
        assert "0011100" in doc["tied"]
        assert doc["counts"]["enumerated"] == 128

    def test_json_counts_cover_all_lengths(self, model_file, tmp_path):
        out = tmp_path / "search.json"
        assert main(["seq", "search", model_file, "--n-max", "8", "--all-lengths",
                     "--json", str(out)]) == 0
        counts = json.loads(out.read_text())["counts"]
        assert set(counts) == {"enumerated", "cores_evaluated", "memo_hits", "necklaces"}
        assert counts["enumerated"] == 2**9 - 2
        assert counts["cores_evaluated"] + counts["memo_hits"] == 2**9 - 2
        # one exact evaluation per necklace of lengths 1..8, repeats cached
        assert 0 < counts["necklaces"] < counts["cores_evaluated"]

    @pytest.mark.parametrize("length", ["40", "1000000000"])
    def test_length_past_memory_exit_2(self, model_file, capsys, length):
        # 2^40 / 40 necklaces would need terabytes: one line, no output
        assert main(["seq", "search", model_file, "--n", length]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: a search of length {length} ")

    def test_table_rows_counted_in_memory(self, model_file, capsys, monkeypatch):
        # room for the necklaces of length 12 but not for its 4096 table
        # rows: the table is refused with one line, the search alone runs
        necklaces = search._necklace_count(12) * (search._NECKLACE_BYTES + 8 * 12)
        real = os.sysconf
        memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": necklaces}
        monkeypatch.setattr(os, "sysconf", lambda name: memory.get(name) or real(name))
        capsys.readouterr()
        assert main(["seq", "search", model_file, "--n", "12", "--table"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: a search of length 12 needs ")
        assert captured.err.endswith(" GiB for its necklaces and table, "
                                     "more than this machine's memory\n")
        assert main(["seq", "search", model_file, "--n", "12"]) == 0
        assert capsys.readouterr().out.startswith("optimum at length 12: ")

    def test_table_bound_covers_the_command_peak(self, model_file, tmp_path, capsys):
        # the tracemalloc peak of seq search --table --json, less that of
        # the search alone, stays within the bytes counted for its rows
        import tracemalloc

        for length in (10, 12):
            peaks = []
            for extra in ([], ["--table", "--json", str(tmp_path / "t.json")]):
                tracemalloc.start()
                assert main(["seq", "search", model_file, "--n", str(length)] + extra) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert peaks[1] - peaks[0] <= (search._TABLE_ROW_BYTES + 24 * length) << length
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["seq", "search", "{model}", "--n", "8", "--threads", "2"],
        ["seq", "search", "{model}", "--n", "8", "--prefilter", "screen"],
        ["sim", "run", "{model}", "0011", "--runs", "5", "--steps", "20",
         "--threads", "2", "--out", "{out}"],
    ], ids=["search-threads", "search-prefilter", "sim-threads"])
    def test_retired_flags_exit_2(self, argv, model_file, tmp_path, capsys):
        # --threads and --prefilter changed nothing and were removed
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([arg.format(model=model_file, out=out) for arg in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestCovSteady:
    def test_error_phases(self, model_file, tmp_path):
        out = tmp_path / "cov.json"
        assert main(["cov", "steady", model_file, "0011", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["period"] == 4
        assert set(doc["error_phases"]) == {"0", "1", "2", "3"}
        p0 = np.array(doc["error_phases"]["0"])
        assert p0.shape == (6, 6)

    def test_augmented_blocks(self, model_file, tmp_path):
        out = tmp_path / "cov.json"
        assert main(["cov", "steady", model_file, "0011",
                     "--augmented", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert np.array(doc["state_phases"]["0"]).shape == (6, 6)
        assert np.array(doc["joint_phases"]["0"]).shape == (12, 12)

    def test_unstable_sequence_exit_3(self, model_file):
        assert main(["cov", "steady", model_file, "1"]) == 3


class TestChanceVerify:
    def test_wide_box_passes(self, model_file, capsys):
        assert main(["chance", "verify", model_file, "0011",
                     "--bound", "22", "--delta", "0.05"]) == 0
        assert "exact pass" in capsys.readouterr().out

    def test_config_defaults_used(self, model_file, capsys):
        # bound 2.5 / delta 0.05 come from the embedded config echo
        assert main(["chance", "verify", model_file, "0011"]) == 0
        assert "exact fail" in capsys.readouterr().out


class TestChanceInputs:
    """seq check --chance and chance verify take --bound and --delta, else
    the config echo's chance section, and refuse a missing one alike."""

    @pytest.fixture()
    def no_chance_model(self, tmp_path):
        cfg = json.loads(CW_CONFIG.read_text())
        del cfg["chance"]
        cfg_file = tmp_path / "no_chance.json"
        cfg_file.write_text(json.dumps(cfg))
        model = tmp_path / "model.json"
        assert main(["model", "build", str(cfg_file), "-o", str(model)]) == 0
        return str(model)

    COMMANDS = (["seq", "check", "{model}", "0011", "--chance"],
                ["chance", "verify", "{model}", "0011"])

    @pytest.mark.parametrize("given, missing", [
        ([], "delta"), (["--bound", "22"], "delta"), (["--delta", "0.05"], "bound"),
    ], ids=["neither", "bound-only", "delta-only"])
    def test_missing_input_is_one_error(self, no_chance_model, capsys, given, missing):
        capsys.readouterr()
        errors = []
        for command in self.COMMANDS:
            args = [arg.format(model=no_chance_model) for arg in command] + given
            assert main(args) == 2
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: chance check needs --{missing}: none given "
                          "and none in the model's config echo\n"] * 2

    def test_given_inputs_suffice(self, no_chance_model):
        for command in self.COMMANDS:
            args = [arg.format(model=no_chance_model) for arg in command]
            assert main(args + ["--bound", "22", "--delta", "0.05"]) == 0


class TestSimRun:
    def test_artifacts_written(self, model_file, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert main(["sim", "run", model_file, "0011", "--steps", "40",
                     "--runs", "5", "--seed", "9", "--out", str(out_dir)]) == 0
        assert (out_dir / "trajectories.csv").exists()
        assert (out_dir / "ensemble.csv").exists()
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["seed"] == 9
        assert meta["runs"] == 5
        assert "violation fraction" in capsys.readouterr().out

    def test_csv_shape(self, model_file, tmp_path):
        out_dir = tmp_path / "sim"
        main(["sim", "run", model_file, "0011", "--steps", "12", "--runs", "2",
              "--seed", "1", "--out", str(out_dir)])
        lines = (out_dir / "trajectories.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == (["run", "k", "eta"] + [f"x{i}" for i in range(1, 7)]
                          + [f"xh{i}" for i in range(1, 7)]
                          + [f"u{i}" for i in range(1, 4)])
        assert len(lines) == 1 + 2 * 13
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)
        ens = (out_dir / "ensemble.csv").read_text().strip().splitlines()
        assert ens[0].split(",") == (["k"] + [f"mean_x{i}" for i in range(1, 7)]
                                     + ["violation_fraction"])
        assert len(ens) == 1 + 13

    def test_sensing_rows_have_empty_u(self, model_file, tmp_path):
        out_dir = tmp_path / "sim"
        main(["sim", "run", model_file, "0011", "--steps", "4", "--runs", "1",
              "--seed", "1", "--out", str(out_dir)])
        rows = (out_dir / "trajectories.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            eta = fields[2]
            u_fields = fields[-3:]
            if eta == "0":
                assert all(f == "" for f in u_fields)
            elif eta == "1":
                assert all(f != "" for f in u_fields)

    def test_identical_bytes_same_seed(self, model_file, tmp_path):
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        for d in (d1, d2):
            main(["sim", "run", model_file, "0011", "--steps", "20", "--runs", "1",
                  "--seed", "77", "--out", str(d)])
        assert (d1 / "trajectories.csv").read_bytes() == (d2 / "trajectories.csv").read_bytes()
        assert (d1 / "ensemble.csv").read_bytes() == (d2 / "ensemble.csv").read_bytes()

    @pytest.mark.parametrize("word", ["0011", "0001100011", "0", "1"])
    def test_csv_bytes_match_reference_writer(self, model_file, tmp_path, monkeypatch, word):
        # the block-repr writer against a per-cell csv.writer on the same runs
        reference = tmp_path / "reference.csv"
        write = cli._write_trajectories

        def both(path, stats):
            write(path, stats)
            write_trajectories_csv(reference, stats)

        monkeypatch.setattr(cli, "_write_trajectories", both)
        out_dir = tmp_path / "sim"
        assert main(["sim", "run", model_file, word, "--steps", "30", "--runs", "3",
                     "--seed", "11", "--out", str(out_dir)]) == 0
        written = (out_dir / "trajectories.csv").read_bytes()
        assert written.count(b"\r\n") == 1 + 3 * 31
        assert written == reference.read_bytes()

    def test_zero_bound_rejected_without_chance_section(self, tmp_path):
        # --bound 0 is a bound, not "no bound": it must fail validation even
        # when the model's config has no chance section to fall back on
        cfg = json.loads(CW_CONFIG.read_text())
        del cfg["chance"]
        cfg_file = tmp_path / "no_chance.json"
        cfg_file.write_text(json.dumps(cfg))
        model = tmp_path / "model.json"
        assert main(["model", "build", str(cfg_file), "-o", str(model)]) == 0
        assert main(["sim", "run", str(model), "0011", "--steps", "4", "--runs", "1",
                     "--seed", "1", "--bound", "0", "--out", str(tmp_path / "sim")]) == 2

    @pytest.mark.parametrize("runs, steps", [("100000000", "240"), ("2", "100000000000")])
    def test_oversized_ensemble_refused_before_allocation(self, model_file, tmp_path, capsys,
                                                          runs, steps):
        # terabytes of trajectory arrays: refused with exit 2 and one line
        # naming the runs, steps and size, whatever the overcommit policy
        out_dir = tmp_path / "sim"
        capsys.readouterr()
        assert main(["sim", "run", model_file, "0011", "--runs", runs, "--steps", steps,
                     "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{runs} runs x {steps} steps needs " in err and " GiB" in err
        assert not out_dir.exists()

    def test_ensemble_peak_counted_before_allocation(self, model_file, tmp_path, capsys,
                                                     monkeypatch):
        # room for the five arrays that _simulate holds (5 runs x 20 steps
        # of the 6-state, 3-input, 3-output CW model) but not for the
        # statistics formed beside them: refused before anything is
        # simulated, in Python and on the command line
        runs, steps, n, m, p = 5, 20, 6, 3, 3
        five_arrays = 8 * runs * (2 * (steps + 1) * n + steps * (n + m + p))
        real = os.sysconf
        memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": five_arrays}
        monkeypatch.setattr(os, "sysconf", lambda name: memory.get(name) or real(name))

        def refuse(*args):
            raise AssertionError("the ensemble was simulated")

        monkeypatch.setattr(sim, "_simulate", refuse)
        model, gains, cfg = load_model(model_file)
        sim_cfg = sim.SimConfig(steps=steps, runs=runs, seed=1, x0_mean=np.zeros(n),
                                x0_cov=np.eye(n))
        with pytest.raises(DomainError, match=f"{runs} runs x {steps} steps needs "):
            sim.run_ensemble(model, gains, "0011", sim_cfg)
        out_dir = tmp_path / "sim"
        capsys.readouterr()
        assert main(["sim", "run", model_file, "0011", "--runs", str(runs), "--steps",
                     str(steps), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{runs} runs x {steps} steps needs " in err
        assert not out_dir.exists()

    def test_unwritable_out_exit_4(self, model_file, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["sim", "run", model_file, "0011", "--steps", "4", "--runs", "1",
                     "--seed", "1", "--out", str(blocker)]) == 4


class TestForkedTrajectoryWriter:
    """trajectories.csv is cut into contiguous chunks of runs, and forked
    children format every chunk but the first; the bytes must not depend
    on the worker count, and no child or temporary file may outlive the
    command."""

    @staticmethod
    def force_workers(monkeypatch, cpus, min_rows):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(cli, "_MIN_ROWS_PER_WORKER", min_rows)

    @staticmethod
    def count_forks(monkeypatch):
        forks = []
        real = os.fork

        def counting():
            forks.append(1)
            return real()

        monkeypatch.setattr(os, "fork", counting)
        return forks

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def run_sim(self, model_file, out_dir, runs, steps, word="0011"):
        return main(["sim", "run", model_file, word, "--steps", str(steps), "--runs", str(runs),
                     "--seed", "5", "--out", str(out_dir)])

    @staticmethod
    def write_reference(monkeypatch, reference):
        """Have every trajectories.csv written also be written to reference
        by the per-cell oracle writer."""
        write = cli._write_trajectories

        def both(path, stats):
            write(path, stats)
            write_trajectories_csv(reference, stats)

        monkeypatch.setattr(cli, "_write_trajectories", both)

    @pytest.mark.parametrize("runs", [1, 2, 3, 7])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_bytes_match_reference_for_any_worker_count(self, model_file, tmp_path,
                                                        monkeypatch, capsys, runs, cpus):
        reference = tmp_path / "reference.csv"
        self.write_reference(monkeypatch, reference)
        self.force_workers(monkeypatch, cpus, min_rows=1)
        forks = self.count_forks(monkeypatch)
        out_dir = tmp_path / "sim"
        # 21 rows of a run fit in the text layer's buffer, so a run's rows
        # may still sit there when the children's chunks are copied in
        assert self.run_sim(model_file, out_dir, runs, steps=20) == 0
        capsys.readouterr()
        assert (out_dir / "trajectories.csv").read_bytes() == reference.read_bytes()
        assert len(forks) == min(cpus, runs) - 1
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "ensemble.csv", "meta.json", "trajectories.csv"]
        self.assert_no_children()

    @pytest.mark.parametrize("runs, steps, workers", [
        (1, 240, 1),   # one run is one chunk
        (2, 20, 1),    # 42 rows, below the row floor
        (5, 240, 1),   # 1205 rows: two writers would split them 482 / 723
        (6, 240, 2),   # 1446 rows, 723 per writer
        (7, 240, 2),   # 1687 rows: chunks of 964 beat three of 723
        (20, 240, 3),  # 4820 rows: chunks of 1687 beat four of 1205
    ])
    def test_forks_follow_the_row_floor(self, model_file, tmp_path, monkeypatch, capsys,
                                        runs, steps, workers):
        reference = tmp_path / "reference.csv"
        self.write_reference(monkeypatch, reference)
        self.force_workers(monkeypatch, 8, min_rows=500)
        forks = self.count_forks(monkeypatch)
        assert self.run_sim(model_file, tmp_path / "sim", runs, steps) == 0
        capsys.readouterr()
        assert len(forks) == workers - 1
        assert (tmp_path / "sim" / "trajectories.csv").read_bytes() == reference.read_bytes()
        self.assert_no_children()

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_failed_writer_exits_4_and_leaves_nothing(self, model_file, tmp_path,
                                                      monkeypatch, capsys, failing):
        # a failing parent must kill its children, not wait for them
        parent = os.getpid()
        write_runs = cli._write_runs

        def flaky(fh, stats, runs):
            if (os.getpid() == parent) == (failing == "parent"):
                raise OSError("formatting failed")
            if failing == "parent":
                time.sleep(60)
            write_runs(fh, stats, runs)

        monkeypatch.setattr(cli, "_write_runs", flaky)
        self.force_workers(monkeypatch, 3, min_rows=1)
        out_dir = tmp_path / "sim"
        start = time.monotonic()
        assert self.run_sim(model_file, out_dir, runs=3, steps=30) == 4
        assert time.monotonic() - start < 30
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "wrote" not in captured.out
        self.assert_no_children()
        assert [p.name for p in out_dir.iterdir()] == ["trajectories.csv"]

    def test_children_print_nothing(self, model_file, tmp_path):
        # stdout is a buffered pipe, so the line printed before the command
        # is still in the buffer when the writers fork: a child that flushed
        # it or returned into the caller would print a line twice
        script = ("import os, sys\n"
                  "from sensact import cli\n"
                  "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
                  "cli._MIN_ROWS_PER_WORKER = 1\n"
                  "print('before')\n"
                  "code = cli.main(['sim', 'run', sys.argv[1], '0011', '--steps', '30',\n"
                  "                 '--runs', '3', '--seed', '5', '--out', sys.argv[2]])\n"
                  "print('exit', code)\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        done = subprocess.run([sys.executable, "-c", script, model_file, str(tmp_path / "sim")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "before" and lines[-1] == "exit 0"
        assert lines.count("before") == 1
        assert sum(line.startswith("wrote 3 runs x 30 steps") for line in lines) == 1
        assert done.stderr == ""


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 1e22, 1e-300, 5e-324, 0.1, -2.5]


def special_record(violation=True):
    """An ensemble record of 3 runs x 6 steps of a 2-state, 2-input plant
    built by hand from values no simulation of the CW model produces. Its
    controls cover every case of a control cell: finite in every run
    (step 0); non-finite in every run on an actuation step (step 2,
    column 0; step 5); non-finite in some runs only (steps 2 and 3); NaN
    in every run on a sensing step (step 1); finite in one run on a
    sensing step (step 4). Run 1 has no non-finite control outside the
    cells that are non-finite in every run; runs 0 and 2 have some."""
    runs, steps, n = 3, 6, 2
    states = np.resize(np.array(SPECIAL_FLOATS), runs * (steps + 1) * n)
    u = np.full((runs, steps, 2), math.nan)
    u[:, 0] = [[0.1, -2.5], [-0.0, 1e22], [1e-300, 5e-324]]
    u[:, 2, 1] = [math.inf, -0.0, 0.5]
    u[:, 3] = [[-math.inf, math.nan], [1e22, 1e-300], [5e-324, -0.0]]
    u[1, 4] = [-0.0, 1e22]
    u[:, 5] = [[math.inf, -math.inf], [math.inf, math.nan], [-math.inf, math.inf]]
    return sim.EnsembleStats(
        mean=np.resize(np.roll(SPECIAL_FLOATS, 3), (steps + 1, n)),
        cov=np.zeros((steps + 1, n, n)),
        error_mean=np.zeros((steps + 1, n)),
        eta=np.array([1, 0, 1, 1, 0, 1]),
        x=states.reshape(runs, steps + 1, n),
        xhat=np.roll(states, 5).reshape(runs, steps + 1, n),
        u=u,
        violation=np.resize(np.roll(SPECIAL_FLOATS, 6), steps + 1) if violation else None,
    )


class TestCsvContract:
    """trajectories.csv and ensemble.csv hold, cell for cell, what the
    per-cell csv.writer oracles write, on values the simulated model never
    produces: NaN, infinities, -0.0, 1e22, 1e-300 and the smallest
    subnormal, in states, estimates, controls and statistics."""

    @pytest.mark.parametrize("writers", [1, 2, 3])
    def test_trajectories_match_the_cell_oracle(self, tmp_path, monkeypatch, writers):
        TestForkedTrajectoryWriter.force_workers(monkeypatch, writers, min_rows=1)
        forks = TestForkedTrajectoryWriter.count_forks(monkeypatch)
        stats = special_record()
        cli._write_trajectories(tmp_path / "trajectories.csv", stats)
        write_trajectories_csv(tmp_path / "reference.csv", stats)
        written = (tmp_path / "trajectories.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert len(forks) == writers - 1
        TestForkedTrajectoryWriter.assert_no_children()
        lines = written.split(b"\r\n")
        assert lines[1 + 1] == b"0,1,0,-inf,-0.0,-0.0,1e+22,,"
        assert lines[1 + 7 + 4] == b"1,4,0,1e+22,1e-300,-2.5,nan,-0.0,1e+22"
        for spelling in (b",nan,", b",inf,", b",1e-300,", b",5e-324,", b",-2.5,"):
            assert spelling in written

    @pytest.mark.parametrize("violation", [True, False])
    def test_ensemble_matches_the_cell_oracle(self, tmp_path, violation):
        stats = special_record(violation)
        cli._write_ensemble(tmp_path / "ensemble.csv", stats)
        write_ensemble_csv(tmp_path / "reference.csv", stats)
        written = (tmp_path / "ensemble.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert written.count(b"\r\n") == 1 + 7
        first = b"0,5e-324,0.1," + (b"-0.0" if violation else b"")
        assert written.split(b"\r\n")[1] == first

    @PROPERTY
    @given(data=st.data())
    def test_any_record_matches_the_cell_oracles(self, data):
        runs = data.draw(st.integers(1, 3))
        steps = data.draw(st.integers(1, 5))
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        values = st.floats() | st.sampled_from(SPECIAL_FLOATS)

        def array(*shape):
            return data.draw(hnp.arrays(np.float64, shape, elements=values))

        stats = sim.EnsembleStats(
            mean=array(steps + 1, n), cov=np.zeros((steps + 1, n, n)),
            error_mean=np.zeros((steps + 1, n)),
            eta=np.array(data.draw(st.lists(st.integers(0, 1), min_size=steps,
                                            max_size=steps))),
            x=array(runs, steps + 1, n), xhat=array(runs, steps + 1, n),
            u=array(runs, steps, m),
            violation=array(steps + 1) if data.draw(st.booleans()) else None)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            cli._write_trajectories(tmp / "t", stats)
            write_trajectories_csv(tmp / "t-ref", stats)
            cli._write_ensemble(tmp / "e", stats)
            write_ensemble_csv(tmp / "e-ref", stats)
            assert (tmp / "t").read_bytes() == (tmp / "t-ref").read_bytes()
            assert (tmp / "e").read_bytes() == (tmp / "e-ref").read_bytes()


class TestOneModeMatricesPerCommand:
    """cov steady --augmented, chance verify and seq check --chance build
    the mode matrices of the model once, and their JSON is unchanged by it."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        import sensact
        from sensact import plant

        made = []
        real = plant.mode_matrices

        def counting(model, gains):
            made.append(1)
            return real(model, gains)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "sensact" and getattr(module, "mode_matrices", None) is real:
                monkeypatch.setattr(module, "mode_matrices", counting)
        assert sensact.mode_matrices is counting
        return made

    @pytest.mark.parametrize("argv", [
        ["cov", "steady", "{model}", "0001100011", "--augmented", "--json", "{out}"],
        ["chance", "verify", "{model}", "0001100011", "--bound", "22", "--json", "{out}"],
        ["seq", "check", "{model}", "0011", "--chance", "--bound", "22", "--delta", "0.05",
         "--json", "{out}"],
    ], ids=["cov-steady-augmented", "chance-verify", "seq-check-chance"])
    def test_one_call(self, model_file, tmp_path, capsys, calls, argv):
        argv = [a.format(model=model_file, out=tmp_path / "out.json") for a in argv]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_inadmissible_word_still_exits_3(self, model_file, calls, capsys):
        # the error side of 01 contracts and the control side does not:
        # --augmented fails before it prints the error traces
        assert main(["cov", "steady", model_file, "01", "--augmented"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not admissible (qbar=1.49161, qtilde=0.988993)" in captured.err
        assert main(["chance", "verify", model_file, "01", "--bound", "22"]) == 3
        assert "not admissible" in capsys.readouterr().err


class TestPublicSolversPerCommand:
    """Each command solves its steady covariances through the public
    solvers of sensact.covariance, once; the solvers are counted at every
    binding in sensact, as a tracer that wraps the public names counts
    them."""

    @pytest.fixture()
    def solves(self, monkeypatch):
        from sensact import covariance

        counts = {}
        for fn in ("steady_error_cov", "steady_augmented_cov"):
            real = getattr(covariance, fn)
            counts[fn] = 0

            def counting(*args, _fn=fn, _real=real):
                counts[_fn] += 1
                return _real(*args)

            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "sensact":
                    for attr, value in list(vars(module).items()):
                        if value is real:
                            monkeypatch.setattr(module, attr, counting)
        return counts

    @pytest.mark.parametrize("argv, error, joint", [
        (["cov", "steady", "{model}", "0011"], 1, 0),
        (["cov", "steady", "{model}", "0011", "--augmented"], 0, 1),
        (["chance", "verify", "{model}", "0011", "--bound", "22"], 0, 1),
        (["seq", "check", "{model}", "0011", "--chance", "--bound", "22", "--delta", "0.05"],
         0, 1),
    ], ids=["cov-steady", "cov-steady-augmented", "chance-verify", "seq-check-chance"])
    def test_one_public_solve(self, model_file, capsys, solves, argv, error, joint):
        assert main([a.format(model=model_file) for a in argv]) == 0
        capsys.readouterr()
        assert solves == {"steady_error_cov": error, "steady_augmented_cov": joint}


class TestCanonicalJson:
    """Every JSON file the CLI writes is the stdlib's canonical text of its
    own content: floats repr round-trip, so re-dumping what json.load reads
    back must give the same bytes."""

    @pytest.mark.parametrize("argv", [
        ["seq", "check", "{model}", "0011", "--dwell", "--chance", "--json", "{out}"],
        ["seq", "search", "{model}", "--n", "8", "--table", "--json", "{out}"],
        ["cov", "steady", "{model}", "0001100011", "--augmented", "--json", "{out}"],
        ["chance", "verify", "{model}", "0001100011", "--bound", "22", "--json", "{out}"],
        ["sim", "run", "{model}", "0011", "--steps", "12", "--runs", "2", "--seed", "3",
         "--out", "{dir}"],
    ], ids=["seq-check", "seq-search", "cov-steady", "chance-verify", "sim-meta"])
    def test_outputs_are_stdlib_canonical(self, model_file, tmp_path, capsys, argv):
        out, sim_dir = tmp_path / "out.json", tmp_path / "sim"
        argv = [a.format(model=model_file, out=out, dir=sim_dir) for a in argv]
        assert main(argv) == 0
        capsys.readouterr()
        files = [out] if argv[0] != "sim" else [sim_dir / "meta.json"]
        for path in files + [pathlib.Path(model_file)]:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestCovSteadyValues:
    """The phases cov steady writes read back bit for bit as the matrices
    the library computes, each under its own key and phase."""

    def test_phases_read_back_exactly(self, model_file, tmp_path, capsys):
        out = tmp_path / "cov.json"
        assert main(["cov", "steady", model_file, "0001100011", "--augmented",
                     "--json", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text(encoding="utf-8"))
        model, gains, _ = load_model(model_file)
        err = steady_error_cov("0001100011", mode_matrices(model, gains))
        joint, state = steady_augmented_cov("0001100011", mode_matrices(model, gains))
        # --augmented makes one joint solve: its error phases are the
        # joint phases' error blocks, equal to the error solve to rounding
        for k in range(10):
            assert np.max(np.abs(joint[k][6:, 6:] - err[k])) <= 1e-11 * np.max(np.abs(err[k]))
        for key, phases in [("error_phases", joint.phases[:, 6:, 6:]),
                            ("state_phases", state), ("joint_phases", joint)]:
            assert sorted(doc[key], key=int) == [str(k) for k in range(10)]
            for k, expected in enumerate(phases):
                written = np.array(doc[key][str(k)], dtype=np.float64)
                assert written.shape == expected.shape
                np.testing.assert_array_equal(written.view(np.uint64),
                                              expected.view(np.uint64), err_msg=f"{key}[{k}]")


class TestFullPipeline:
    def test_build_search_check_sim(self, tmp_path, capsys):
        # the shipped case-study config drives every stage unmodified
        model = tmp_path / "model.json"
        assert main(["model", "build", str(CW_CONFIG), "-o", str(model)]) == 0
        assert main(["seq", "search", str(model), "--n-max", "6",
                     "--json", str(tmp_path / "s.json")]) == 0
        found = json.loads((tmp_path / "s.json").read_text())["sequence"]
        assert found == "0011"
        assert main(["seq", "check", str(model), found, "--dwell"]) == 0
        assert main(["chance", "verify", str(model), found]) == 0
        assert main(["sim", "run", str(model), found, "--steps", "24", "--runs", "3",
                     "--seed", "2", "--out", str(tmp_path / "sim")]) == 0
        capsys.readouterr()


#: for each command: -h, a missing positional, an unrecognised option, a
#: badly typed value where the command has a typed option, and one valid
#: call; then argv that name no command
_PARITY_ARGV = [
    ["model", "build", "-h"], ["model", "build"], ["model", "build", "c.json", "--bogus"],
    ["model", "build", "c.json", "-o", "m.json"],
    ["seq", "check", "-h"], ["seq", "check", "m.json"], ["seq", "check", "m.json", "0011", "-x"],
    ["seq", "check", "m.json", "0011", "--bound", "nope"],
    ["seq", "check", "m.json", "0011", "--dwell", "--chance", "--bound", "22", "--delta",
     "0.05", "--json", "r.json"],
    ["seq", "dwell", "-h"], ["seq", "dwell", "m.json"], ["seq", "dwell", "m.json", "01", "--no"],
    ["seq", "dwell", "m.json", "01", "--kstar", "x"],
    ["seq", "dwell", "m.json", "01", "--kstar", "3", "--family", "all", "--search-kstar"],
    ["seq", "search", "-h"], ["seq", "search", "--n", "8"],
    ["seq", "search", "m.json", "--n", "8", "--bogus"], ["seq", "search", "m.json", "--n", "x"],
    ["seq", "search", "m.json", "--n-max", "8", "--all-lengths", "--table", "--json", "r.json"],
    ["cov", "steady", "-h"], ["cov", "steady", "m.json"], ["cov", "steady", "m.json", "01", "--x"],
    ["cov", "steady", "m.json", "0011", "--augmented", "--json", "r.json"],
    ["chance", "verify", "-h"], ["chance", "verify", "m.json"],
    ["chance", "verify", "m.json", "01", "extra"],
    ["chance", "verify", "m.json", "01", "--bound", "nope"],
    ["chance", "verify", "m.json", "0011", "--bound", "22", "--delta", "0.05", "--json", "r.json"],
    ["sim", "run", "-h"], ["sim", "run", "m.json", "0011"],
    ["sim", "run", "m.json", "0011", "--out", "d", "--threads", "2"],
    ["sim", "run", "m.json", "0011", "--out", "d", "--bound", "nope"],
    ["sim", "run", "m.json", "0011", "--steps", "60", "--runs", "20", "--seed", "3",
     "--bound", "2.5", "--out", "d"],
    [], ["seq"], ["seq", "bogus"], ["bogus"], ["--version"],
    ["-h"], ["seq", "-h"], ["seq", "steady", "m.json", "0011"], ["seq", "search", "--version"],
    ["seq", "search", "m.json", "--n", "8", "--", "extra"],
]


def _parsed(parse, argv, capsys):
    """The namespace parse returns for argv, or its exit code, stdout and
    stderr."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err
    assert capsys.readouterr() == ("", "")
    return args


class TestDirectParsing:
    """A command's own parser decides argv that start with its group and
    name; every outcome is the full parser's."""

    @pytest.mark.parametrize("argv", _PARITY_ARGV, ids=" ".join)
    def test_same_outcome_as_the_full_parser(self, argv, capsys):
        assert _parsed(cli._parse_args, argv, capsys) == \
            _parsed(build_parser().parse_args, argv, capsys)

    def test_every_command_has_its_parser(self):
        commands = {("model", "build"), ("seq", "check"), ("seq", "dwell"), ("seq", "search"),
                    ("cov", "steady"), ("chance", "verify"), ("sim", "run")}
        leaves = cli._leaf_parsers()
        assert set(leaves) == commands
        assert all(leaves[key].prog == "sensact " + " ".join(key) for key in commands)

    def test_valid_command_skips_the_full_parser(self, monkeypatch):
        def full(argv):
            raise AssertionError("parsed by the full parser")

        monkeypatch.setattr(build_parser(), "parse_args", full)
        args = cli._parse_args(["seq", "search", "m.json", "--n", "8"])
        assert (args.func, args.n) == (cli.cmd_seq_search, 8)


class TestRepeatedCalls:
    """One process runs many commands through one cached parser."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_no_state_leaks_between_calls(self, model_file, tmp_path, capsys):
        first = tmp_path / "first.json"
        assert main(["seq", "search", model_file, "--n", "4", "--table",
                     "--json", str(first)]) == 0
        assert "table" in json.loads(first.read_text())
        first.unlink()
        # neither --json nor --table carries into a call that omits them
        assert main(["seq", "search", model_file, "--n", "4"]) == 0
        assert not first.exists()
        second = tmp_path / "second.json"
        assert main(["seq", "search", model_file, "--n", "4", "--json", str(second)]) == 0
        assert "table" not in json.loads(second.read_text())
        assert main(["seq", "check", model_file, "0011"]) == 0
        assert not first.exists()
        assert main(["cov", "steady", model_file, "0011"]) == 0
        out = capsys.readouterr().out
        assert "steady state covariance" not in out  # --augmented was never given

    def test_error_exit_and_version_unchanged(self, model_file, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["seq", "search", model_file])  # --n or --n-max is required
            assert exc.value.code == 2
            assert "one of the arguments --n --n-max is required" in capsys.readouterr().err
            assert main(["seq", "check", model_file, "01x1"]) == 2
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"sensact {__version__}\n"
