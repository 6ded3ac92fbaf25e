"""Every malformed input is an input error: a mutation sweep through the CLI.

Each key path of configs/cw.json, and of the model file that model build
writes from it, is set in turn to each value of MUTATIONS, one key at a
time, and the mutated file goes through the commands that read it, in
process through cli.main. Every run must return exit code 0, 2 or 3 (a
mutated value may still be valid, or make the schedule inadmissible); an
exit code of 1 or an exception out of cli.main is a crash. The sweep is an
enumeration, not a random sample, so every run sees the same mutations.
"""

import contextlib
import io
import json

import pytest

from conftest import CW_CONFIG

from sensact.cli import main

MUTATIONS = (None, "x", -1, 0, [], {}, [[1, 2]], True, 1e300, 10**7)
ALLOWED = {0, 2, 3}


def key_paths(doc, prefix=()):
    """Every key path of the objects in doc, parents before children."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def mutants(doc):
    """(label, mutated copy) of doc for every key path and mutation."""
    text = json.dumps(doc)
    for path in key_paths(doc):
        for value in MUTATIONS:
            copy = json.loads(text)
            parent = copy
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            yield f"{'.'.join(path)} = {json.dumps(value)}", copy


def crashes(tmp_path, doc, commands):
    """Labels of the runs that crash: for each mutant of doc, each argv
    of commands (with {file} and {out} filled in) runs through cli.main."""
    found = []
    target = tmp_path / "mutant.json"
    sink = io.StringIO()
    for label, mutant in mutants(doc):
        target.write_text(json.dumps(mutant), encoding="utf-8")
        for argv in commands:
            argv = [a.format(file=target, out=tmp_path / "out") for a in argv]
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = main(argv)
            except Exception as exc:  # noqa: BLE001 - the crash is what is recorded
                found.append(f"{argv[0]} {argv[1]}: {label}: {type(exc).__name__}: {exc}")
                continue
            if code not in ALLOWED:
                found.append(f"{argv[0]} {argv[1]}: {label}: exit {code}")
        sink.seek(0)
        sink.truncate()
    return found


def test_config_mutations_build_or_exit_2(tmp_path):
    cfg = json.loads(CW_CONFIG.read_text(encoding="utf-8"))
    assert len(list(key_paths(cfg))) == 34
    assert crashes(tmp_path, cfg, [["model", "build", "{file}", "-o", "{out}"]]) == []


def test_model_file_mutations_run_or_exit_2(tmp_path):
    built = tmp_path / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["model", "build", str(CW_CONFIG), "-o", str(built)]) == 0
    doc = json.loads(built.read_text(encoding="utf-8"))
    assert len(list(key_paths(doc))) == 57
    commands = [
        ["seq", "check", "{file}", "0011"],
        ["chance", "verify", "{file}", "0011"],
        ["sim", "run", "{file}", "0011", "--runs", "2", "--steps", "3", "--out", "{out}"],
    ]
    assert crashes(tmp_path, doc, commands) == []


@pytest.mark.parametrize("value", [[], 0])
def test_mutants_replace_one_key(value):
    doc = {"a": {"b": 1, "c": [2]}, "d": 3}
    assert [label for label, _ in mutants(doc)][:2] == ["a = null", 'a = "x"']
    changed = [m for label, m in mutants(doc) if label == f"a.c = {json.dumps(value)}"]
    assert changed == [{"a": {"b": 1, "c": value}, "d": 3}]


def test_all_eye_plant_is_refused_by_its_size(tmp_path):
    # no matrix text bounds the state dimension when every matrix is an
    # eye shorthand; an eye of 10^7 would ask for 728 TiB
    eye = {"eye": 10**7}
    cfg = {"plant": {"continuous": {"a": eye, "b": eye}, "c": eye, "ts": 1.0},
           "noise": {"sigma_w": eye, "sigma_v": eye}, "gains": {"q": eye, "r": eye}}
    target = tmp_path / "all-eye.json"
    target.write_text(json.dumps(cfg), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["model", "build", str(target), "-o", str(tmp_path / "model.json")])
    assert code == 2
    assert "$.plant.continuous.a.eye: state dimension 10000000" in err.getvalue()
