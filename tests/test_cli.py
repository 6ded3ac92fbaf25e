import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import CW_CONFIG, REPO_ROOT
from oracles import write_trajectories_csv

from sensact import __version__, cli
from sensact.cli import build_parser, main
from sensact.exceptions import SchemaError
from sensact.modelio import load_model, parse_matrix


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


class TestSeqDwell:
    def test_values_printed(self, model_file, capsys):
        assert main(["seq", "dwell", model_file, "00011111"]) == 0
        out = capsys.readouterr().out
        assert "lhs_ctrl=-0.10" in out
        assert "typeset variant" in out
        assert "passes" in out


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
        assert set(counts) == {"enumerated", "cores_evaluated", "memo_hits",
                               "screen_accepts", "screen_rejects", "necklaces"}
        assert counts["enumerated"] == 2**9 - 2
        assert counts["cores_evaluated"] + counts["memo_hits"] == 2**9 - 2
        # one exact evaluation per necklace of lengths 1..8, repeats cached
        assert 0 < counts["necklaces"] < counts["cores_evaluated"]

    def test_screen_prefilter_same_answer(self, model_file, capsys):
        assert main(["seq", "search", model_file, "--n", "4",
                     "--prefilter", "screen"]) == 0
        assert "0011" in capsys.readouterr().out


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

        def both(path, trajectories):
            write(path, trajectories)
            write_trajectories_csv(reference, trajectories)

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

    def test_unwritable_out_exit_4(self, model_file, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["sim", "run", model_file, "0011", "--steps", "4", "--runs", "1",
                     "--seed", "1", "--out", str(blocker)]) == 4


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
