"""Property tests for the text front ends: the formula parser, the DIMACS
and QDIMACS readers, ``hypersynth reduce`` on DIMACS-like input, and the
plant reader.  Whatever the text, each raises only its own documented
error, and the CLI exits 0 or 2."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypersynth.cli import main
from hypersynth.errors import ParseError, PlantError, ReductionError
from hypersynth.parser import parse_body, print_body
from hypersynth.plant import Plant, load_plant, validate
from hypersynth.reductions import parse_dimacs, parse_qdimacs

_BODY_TOKENS = (
    "a[p]", "b[q]", "a[q]", "true", "false", "!", "X", "F", "G", "U", "&",
    "|", "->", "<->", "(", ")", "[", "]", "p", "forall", ".", "#", "\n", "$",
)
_grammar_body = st.recursive(
    st.sampled_from(["a[p]", "b[q]", "true", "false"]),
    lambda inner: st.one_of(
        st.builds("{}{}".format, st.sampled_from(["!", "X ", "F ", "G "]), inner),
        st.builds(
            "{} {} {}".format, inner, st.sampled_from(["U", "&", "|", "->", "<->"]), inner
        ),
        inner.map("({})".format),
    ),
    max_leaves=12,
)
_body_text = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_BODY_TOKENS), max_size=25).map(" ".join),
    _grammar_body,
)

_DIMACS_TOKENS = st.one_of(
    st.integers(-4, 4).map(str),
    st.sampled_from(["p", "cnf", "c", "e", "a", "%", "x", "+1", "1.5", "-", "٣"]),
)
_header = st.builds("p cnf {} {}".format, st.integers(-1, 4), st.integers(-1, 4))
_line = st.lists(_DIMACS_TOKENS, max_size=6).map(" ".join)
_dimacs_text = st.one_of(
    st.text(max_size=40),
    st.lists(st.one_of(_header, _line), max_size=8).map("\n".join),
    st.builds("{}\n{}".format, _header, st.lists(_line, max_size=6).map("\n".join)),
)


@st.composite
def _near_dimacs(draw, quantified: bool):
    """A CNF of 3-literal clauses, with a quantifier line per variable if
    ``quantified``, and possibly one token replaced by a random one."""
    n = draw(st.integers(3, 5))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, min_size=3, max_size=3, unique_by=abs)
    clauses = draw(st.lists(clause, max_size=4))
    lines = [f"p cnf {n} {len(clauses)}"]
    if quantified:
        order = draw(st.permutations(range(1, n + 1)))
        lines += [f"{draw(st.sampled_from('ea'))} {v} 0" for v in order]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_DIMACS_TOKENS)
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_body_text)
def test_parse_body_raises_only_parse_errors_and_round_trips(text):
    try:
        body = parse_body(text)
    except ParseError:
        return
    assert parse_body(print_body(body)) == body


@settings(max_examples=300, deadline=None)
@given(st.one_of(_dimacs_text, st.booleans().flatmap(_near_dimacs)))
def test_dimacs_readers_raise_only_reduction_errors(text):
    for read in (parse_dimacs, parse_qdimacs):
        try:
            read(text)
        except ReductionError:
            pass


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(kind=st.sampled_from(["horn", "3sat", "qbf"]), data=st.data())
def test_reduce_exits_zero_or_bad_input(tmp_path, capsys, kind, data):
    text = data.draw(st.one_of(_dimacs_text, _near_dimacs(kind == "qbf")))
    source = tmp_path / "in.txt"
    source.write_text(text, encoding="utf-8")
    assert main(["reduce", kind, str(source), "--out-dir", str(tmp_path / "out")]) in (0, 2)
    capsys.readouterr()



_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
_name = st.sampled_from(["s", "t", "u"])
_plant_value = st.one_of(
    _json_value,
    _name,
    st.lists(_name, max_size=4),
    st.lists(st.lists(_name, max_size=3), max_size=5),
    st.dictionaries(_name, st.lists(st.sampled_from(["a", "b"]), max_size=2)),
)
_plant_key = st.sampled_from(
    ["states", "init", "labels", "controllable", "uncontrollable", "other"]
)
_plant_like = st.one_of(
    st.dictionaries(_plant_key, _plant_value, max_size=6),
    st.fixed_dictionaries(
        {
            "states": st.lists(_name, max_size=4),
            "init": _name,
            "labels": st.dictionaries(_name, st.lists(st.sampled_from(["a", "b"]))),
            "controllable": st.lists(st.lists(_name, min_size=2, max_size=2), max_size=5),
            "uncontrollable": st.lists(st.lists(_name, min_size=2, max_size=2), max_size=5),
        }
    ),
)
_plant_text = st.one_of(
    st.text(max_size=40),
    _json_value.map(json.dumps),
    _plant_like.map(json.dumps),
    # nested past the recursion limit, and an integer past the digit limit
    st.integers(0, 3000).map(lambda n: "[" * n + "]" * n),
    st.integers(1, 6000).map(lambda n: "1" * n),
)


@settings(max_examples=300, deadline=None)
@given(_plant_text)
def test_plant_reader_gives_a_plant_or_a_plant_error(text):
    try:
        plant = load_plant(text)
        validate(plant)
    except PlantError:
        return
    assert isinstance(plant, Plant)
