import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypersynth
from hypersynth.cli import main
from hypersynth.plant import dump_plant, load_plant
from hypersynth.reductions import parse_dimacs, threesat_to_instance

from helpers import atomic_propositions, sat_brute

FIG1 = {
    "states": ["sinit", "s1", "s2", "s3"],
    "init": "sinit",
    "labels": {"sinit": ["a"], "s1": ["a"], "s2": ["b"], "s3": ["b"]},
    "controllable": [
        ["sinit", "s3"],
        ["s1", "s3"],
        ["s1", "s2"],
        ["s2", "s2"],
        ["s3", "s3"],
    ],
    "uncontrollable": [["sinit", "s1"]],
}


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(FIG1))
    return str(path)


def _formula_file(tmp_path, text, name="f.hltl"):
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)


def test_classify_fig1(fig1_file, capsys):
    assert main(["classify", fig1_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: acyclic" in out


def test_classify_single_state(tmp_path, capsys):
    doc = {
        "states": ["s"],
        "init": "s",
        "labels": {"s": ["a"]},
        "controllable": [["s", "s"]],
        "uncontrollable": [],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 0
    assert "verdict: tree" in capsys.readouterr().out


def test_classify_formula_fragment(fig1_file, tmp_path, capsys):
    gni = _formula_file(
        tmp_path,
        "forall p. forall q. exists r. G(h[p] <-> h[r]) & G(o[q] <-> o[r])",
    )
    assert main(["classify", fig1_file, "--formula", gni]) == 0
    assert "fragment: AE(1)" in capsys.readouterr().out


def test_classify_writes_dot(fig1_file, tmp_path):
    dot = tmp_path / "plant.dot"
    assert main(["classify", fig1_file, "--dot", str(dot)]) == 0
    assert "digraph plant" in dot.read_text()


def test_classify_rejects_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"states": []}')
    assert main(["classify", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_exit_codes(fig1_file, tmp_path, capsys):
    sat = _formula_file(tmp_path, "exists p. F b[p]", "sat.hltl")
    unsat = _formula_file(tmp_path, "forall p. forall q. G(a[p] <-> a[q])", "un.hltl")
    assert main(["check", fig1_file, sat]) == 0
    assert main(["check", fig1_file, unsat]) == 1


def test_check_bounded_exit_code(tmp_path, capsys):
    cycle = {
        "states": ["s0", "s1"],
        "init": "s0",
        "labels": {"s0": ["a"], "s1": ["b"]},
        "controllable": [],
        "uncontrollable": [["s0", "s1"], ["s1", "s0"]],
    }
    plant = tmp_path / "cycle.json"
    plant.write_text(json.dumps(cycle))
    formula = _formula_file(tmp_path, "exists p. G a[p]")
    code = main(["check", str(plant), formula])
    out = capsys.readouterr().out
    assert code == 3
    assert "exact: no" in out


def test_synth_writes_witness_with_plant_hash(fig1_file, tmp_path, capsys):
    unsat = _formula_file(tmp_path, "forall p. forall q. G(a[p] <-> a[q])")
    witness = tmp_path / "witness.json"
    assert main(["synth", fig1_file, unsat, "--out", str(witness)]) == 0
    doc = json.loads(witness.read_text())
    assert set(doc) == {"plant_sha256", "retained"}
    import hashlib

    plant = load_plant(json.dumps(FIG1))
    assert doc["plant_sha256"] == hashlib.sha256(dump_plant(plant).encode()).hexdigest()
    assert witness.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # deterministic: a second run produces byte-identical output
    first = witness.read_bytes()
    assert main(["synth", fig1_file, unsat, "--out", str(witness), "--deterministic"]) == 0
    assert witness.read_bytes() == first


def test_synth_exit_unrealizable(fig1_file, tmp_path):
    f = _formula_file(tmp_path, "exists p. G pos[p]")
    assert main(["synth", fig1_file, f]) == 1


def test_synth_guard_exit_code(tmp_path, capsys):
    states = [f"n{i}" for i in range(30)]
    doc = {
        "states": states,
        "init": "n0",
        "labels": {},
        "controllable": [[f"n{i}", f"n{(i + 1) % 30}"] for i in range(30)]
        + [[f"n{i}", f"n{i}"] for i in range(30)],
        "uncontrollable": [],
    }
    plant = tmp_path / "big.json"
    plant.write_text(json.dumps(doc))
    f = _formula_file(tmp_path, "forall p. forall q. G(a[p] <-> a[q])")
    assert main(["synth", str(plant), f]) == 4
    assert "error: candidate space" in capsys.readouterr().err


def test_casestudy_guard_exit_code(capsys):
    argv = ["casestudy", "--strategy", "synthesize", "--with-consistency"]
    assert main(argv) == 4
    assert "error: candidate space" in capsys.readouterr().err


def test_reduce_3sat_round_trips_through_cli_files(tmp_path, capsys):
    cnf_text = "p cnf 4 2\n-1 -2 3 0\n1 2 -4 0\n"
    cnf_file = tmp_path / "fig4.cnf"
    cnf_file.write_text(cnf_text)
    out_dir = tmp_path / "out"
    assert main(["reduce", "3sat", str(cnf_file), "--out-dir", str(out_dir)]) == 0
    plant_file = out_dir / "3sat.plant.json"
    formula_file = out_dir / "3sat.formula.hltl"
    decoder_file = out_dir / "3sat.decoder.json"
    assert plant_file.exists() and formula_file.exists() and decoder_file.exists()
    # re-readable without loss: the emitted plant equals the direct build
    direct = threesat_to_instance(parse_dimacs(cnf_text))
    assert load_plant(plant_file.read_text()) == direct.plant
    # and both check and synth accept the generated files
    assert main(["synth", str(plant_file), str(formula_file)]) == 0
    capsys.readouterr()


def test_synth_on_many_single_edge_choice_points(tmp_path, capsys):
    # 200 variables give about 2400 states with one controllable edge each
    cnf_file = tmp_path / "wide.cnf"
    cnf_file.write_text("p cnf 200 4\n1 2 3 0\n-1 4 5 0\n200 -2 6 0\n-200 7 -8 0\n")
    out_dir = tmp_path / "wide"
    assert main(["reduce", "3sat", str(cnf_file), "--out-dir", str(out_dir)]) == 0
    plant, formula = out_dir / "3sat.plant.json", out_dir / "3sat.formula.hltl"
    assert main(["synth", str(plant), str(formula)]) == 0
    capsys.readouterr()


def test_reduce_qbf_emits_depth_labels(tmp_path):
    qdimacs = tmp_path / "fig5.qdimacs"
    qdimacs.write_text("p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 -2 3 0\n-1 2 -3 0\n")
    out_dir = tmp_path / "outq"
    assert main(["reduce", "qbf", str(qdimacs), "--out-dir", str(out_dir)]) == 0
    plant = load_plant((out_dir / "qbf.plant.json").read_text())
    assert {"q1", "q2", "q3"} <= atomic_propositions(plant)


def test_reduce_horn_rejects_two_positive_literals(tmp_path, capsys):
    cnf_file = tmp_path / "notahorn.cnf"
    cnf_file.write_text("p cnf 2 1\n1 2 0\n")
    out_dir = tmp_path / "outh"
    assert main(["reduce", "horn", str(cnf_file), "--out-dir", str(out_dir)]) == 2


def test_reduce_synth_decode_matches_oracle(tmp_path, capsys):
    cnf_text = "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
    cnf_file = tmp_path / "in.cnf"
    cnf_file.write_text(cnf_text)
    out_dir = tmp_path / "o"
    assert main(["reduce", "3sat", str(cnf_file), "--out-dir", str(out_dir)]) == 0
    code = main(
        ["synth", str(out_dir / "3sat.plant.json"), str(out_dir / "3sat.formula.hltl")]
    )
    assert (code == 0) == sat_brute(parse_dimacs(cnf_text))


def test_json_report(fig1_file, tmp_path, capsys):
    f = _formula_file(tmp_path, "exists p. F b[p]")
    assert main(["check", fig1_file, f, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "satisfied"
    assert doc["exact"] is True
    assert doc["frame"] == "acyclic"


def test_casestudy_strategy_exit_codes(capsys):
    assert main(["casestudy", "--strategy", "correct"]) == 0
    out = capsys.readouterr().out
    assert "phi: pass" in out and "consistency: pass" in out
    assert main(["casestudy", "--strategy", "incorrect"]) == 1
    out = capsys.readouterr().out
    assert "phi: fail" in out


def test_casestudy_bad_config_exit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rounds": 1}')
    assert main(["casestudy", "--strategy", "correct", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("rounds", ["true", "1.0"])
def test_casestudy_config_round_count_must_be_an_integer(tmp_path, capsys, rounds):
    # one-round action lists, which a round count of 1 would accept
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"rounds": ' + rounds + ', "actions": {"A": [[]], "T": [[]], "B": [[]]}}'
    )
    assert main(["casestudy", "--strategy", "correct", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "rounds must be an integer" in err[0]


_ROUND_ENTRIES = {"string": '"a2t_m"', "mixed": '["a2t_m", 1]', "object": '{"a2t_m": 1}'}


@pytest.mark.parametrize("entry", _ROUND_ENTRIES.values(), ids=_ROUND_ENTRIES.keys())
def test_casestudy_config_round_entry_must_be_an_array_of_strings(tmp_path, capsys, entry):
    # a bare string is refused, not read as its characters '2', '_', 'a', ...
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rounds": 1, "actions": {"A": [' + entry + '], "T": [[]], "B": [[]]}}')
    assert main(["casestudy", "--strategy", "correct", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "A actions of round 1 must be an array of strings" in err[0]


# JSON that the standard library refuses with an error other than a
# JSONDecodeError: nesting past the recursion limit, and an integer past
# the digit limit for int conversion
_UNDECODABLE = {"deep": "[" * 100_000, "digits": "[" + "1" * 5000 + "]"}


@pytest.mark.parametrize("text", _UNDECODABLE.values(), ids=_UNDECODABLE.keys())
def test_undecodable_plant_json_exits_bad_input(tmp_path, capsys, text):
    plant = tmp_path / "plant.json"
    plant.write_text(text)
    assert main(["check", str(plant), _formula_file(tmp_path, "forall t. a[t]")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid JSON")


@pytest.mark.parametrize("text", _UNDECODABLE.values(), ids=_UNDECODABLE.keys())
def test_undecodable_config_json_exits_bad_input(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"actions": ' + text + "}")
    assert main(["casestudy", "--config", str(cfg), "--strategy", "correct"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid JSON")


CYCLE = {
    "states": ["s0", "s1"],
    "init": "s0",
    "labels": {"s0": ["a"], "s1": ["b"]},
    "controllable": [],
    "uncontrollable": [["s0", "s1"], ["s1", "s0"]],
}
TREE = {
    "states": ["r", "x", "y"],
    "init": "r",
    "labels": {"x": ["a"]},
    "controllable": [["r", "x"], ["r", "y"], ["x", "x"], ["y", "y"]],
    "uncontrollable": [],
}


@pytest.mark.parametrize("doc", [CYCLE, TREE], ids=["general", "tree"])
@pytest.mark.parametrize("command", ["check", "synth"])
@pytest.mark.parametrize("stem,loop", [("-1", "0"), ("-1", "1"), ("0", "0")])
def test_out_of_range_bounds_exit_bad_input(tmp_path, capsys, doc, command, stem, loop):
    plant = tmp_path / "plant.json"
    plant.write_text(json.dumps(doc))
    f = _formula_file(tmp_path, "exists p. F a[p]")
    argv = [command, str(plant), f, "--stem-bound", stem, "--loop-bound", loop]
    assert main(argv) == 2
    assert "--loop-bound" in capsys.readouterr().err


def test_deeply_nested_formula_exits_bad_input(fig1_file, tmp_path, capsys):
    f = _formula_file(tmp_path, "forall t. " + "X " * 2000 + "b[t]")
    assert main(["check", fig1_file, f]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_nested_formula_within_cap_is_decided(fig1_file, tmp_path, capsys):
    f = _formula_file(tmp_path, "forall t. " + "X " * 200 + "b[t]")
    assert main(["check", fig1_file, f]) == 0
    assert main(["synth", fig1_file, f]) == 0


def test_main_builds_the_parser_once(fig1_file, monkeypatch, capsys):
    import hypersynth.cli as cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    assert main(["classify", fig1_file]) == 0
    assert main(["classify", fig1_file, "--json"]) == 0
    assert len(built) == 1
    capsys.readouterr()


def test_internal_error_exit_code(fig1_file, tmp_path, monkeypatch, capsys):
    import hypersynth.cli as cli

    def fail(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(cli, "check", fail)
    f = _formula_file(tmp_path, "exists p. F b[p]")
    assert main(["check", fig1_file, f]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:\nTraceback")
    assert "RuntimeError: injected failure" in captured.err


def test_interrupt_and_usage_errors_pass_through(fig1_file, tmp_path, monkeypatch, capsys):
    import hypersynth.cli as cli

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    f = _formula_file(tmp_path, "exists p. F b[p]")
    with pytest.raises(SystemExit) as exc:
        main(["check", fig1_file, f, "--no-such-option"])
    assert exc.value.code == 2
    monkeypatch.setattr(cli, "check", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["check", fig1_file, f])
    capsys.readouterr()


@pytest.mark.parametrize(
    "kind,text",
    [
        ("3sat", "p cnf x 1\n1 2 3 0\n"),
        ("qbf", "p cnf 3 1\ne 1 x 0\na 2 0\ne 3 0\n1 -2 3 0\n"),
        ("horn", "p cnf -1 0\n"),
    ],
    ids=["3sat-count", "qbf-quantifier", "horn-negative"],
)
def test_reduce_malformed_header_exits_bad_input(tmp_path, capsys, kind, text):
    source = tmp_path / "in.txt"
    source.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["reduce", kind, str(source), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("variable", ["-1", "0", "3"])
def test_reduce_qbf_rejects_quantified_variable_out_of_range(tmp_path, capsys, variable):
    source = tmp_path / "in.qdimacs"
    source.write_text(f"p cnf 1 0\ne {variable} 0\n")
    out_dir = tmp_path / "out"
    assert main(["reduce", "qbf", str(source), "--out-dir", str(out_dir)]) == 2
    assert "quantified variable" in capsys.readouterr().err
    assert not out_dir.exists()


def test_non_utf8_plant_exits_bad_input(tmp_path, capsys):
    plant = tmp_path / "latin1.json"
    plant.write_bytes(json.dumps(FIG1).replace("sinit", "s\xe9").encode("latin-1"))
    assert main(["classify", str(plant)]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,below",
    [
        ("synth", "missing"),
        ("synth", "file.txt"),
        ("classify", "missing"),
        ("classify", "file.txt"),
        ("reduce", "file.txt"),  # --out-dir creates missing directories
    ],
)
def test_unwritable_output_exits_bad_input(fig1_file, tmp_path, capsys, command, below):
    (tmp_path / "file.txt").write_text("a regular file\n")
    target = str(tmp_path / below / "w.json")
    realizable = _formula_file(tmp_path, "forall p. forall q. G(a[p] <-> a[q])")
    cnf = tmp_path / "in.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
    argv = {
        "synth": ["synth", fig1_file, realizable, "--out", target],
        "classify": ["classify", fig1_file, "--dot", target],
        "reduce": ["reduce", "3sat", str(cnf), "--out-dir", target],
    }[command]
    assert main(argv) == 2
    assert "cannot write" in capsys.readouterr().err


class _RefusingStdout:
    """A stdout whose every write fails as a full device or a closed pipe
    would make it fail."""

    def __init__(self, error: OSError):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


@pytest.mark.parametrize(
    "error",
    [OSError(28, "No space left on device"), BrokenPipeError(32, "Broken pipe")],
    ids=["full", "pipe"],
)
def test_unwritable_stdout_exits_bad_input(fig1_file, tmp_path, monkeypatch, capsys, error):
    # a positive outcome whose report cannot be written is not a positive
    # exit, nor the exit 1 of an exact negative
    sat = _formula_file(tmp_path, "exists p. F b[p]")
    monkeypatch.setattr(sys, "stdout", _RefusingStdout(error))
    assert main(["check", fig1_file, sat]) == 2
    assert main(["check", fig1_file, sat, "--json"]) == 2
    monkeypatch.undo()
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write stdout: {error}"] * 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_bad_input_from_a_process(fig1_file, tmp_path):
    # with a buffered stdout the unwritten report must not fail again at
    # interpreter exit, which would make the exit code 120
    sat = _formula_file(tmp_path, "exists p. F b[p]")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(hypersynth.__file__).parents[1])
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "hypersynth.cli", "check", fig1_file, sat],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=60,
        )
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot write stdout")


def _fresh_process(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(hypersynth.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_import_loads_only_what_every_command_uses(tmp_path):
    # reductions, nrp and hashlib are imported by the commands that use them
    probe = (
        "import sys, hypersynth.cli; "
        "print(*[m for m in ('hypersynth.reductions', 'hypersynth.nrp', 'hashlib') "
        "if m in sys.modules])"
    )
    done = _fresh_process(["-c", probe], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
    (tmp_path / "in.cnf").write_text("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    reduce = ["-m", "hypersynth.cli", "reduce", "3sat", "in.cnf", "--out-dir", "out"]
    done = _fresh_process(reduce, tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "out" / "3sat.decoder.json").read_text())["plant_sha256"]
    done = _fresh_process(["-m", "hypersynth.cli", "casestudy", "--strategy", "correct"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert "phi: pass" in done.stdout


def test_files_are_utf8_whatever_the_locale(fig1_file, tmp_path):
    # under the C locale without UTF-8 mode the locale encoding is ASCII
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(hypersynth.__file__).parents[1]),
        "LC_ALL": "C",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
    }

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "hypersynth.cli", *args],
            cwd=tmp_path, env=env, capture_output=True, timeout=60,
        )

    (tmp_path / "utf8.hltl").write_bytes("exists té. F b[té]\n".encode())
    (tmp_path / "latin1.hltl").write_bytes("exists té. F b[té]\n".encode("latin-1"))
    done = run("check", fig1_file, "utf8.hltl")
    assert done.returncode == 0, done.stderr
    assert b"verdict: satisfied" in done.stdout
    done = run("check", fig1_file, "latin1.hltl")
    assert done.returncode == 2
    assert done.stderr.startswith(b"error: cannot read latin1.hltl")
    # the plant file is ASCII: its JSON escapes the name
    (tmp_path / "p.json").write_text(json.dumps(FIG1).replace("sinit", "s\\u00e9"))
    done = run("classify", "p.json", "--dot", "p.dot")
    assert done.returncode == 0, done.stderr
    dot = (tmp_path / "p.dot").read_bytes().decode("utf-8")
    assert '"sé" [label="sé\\n{a}" shape="doublecircle"];' in dot
