import copy
import itertools
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from hypersynth.errors import DuplicateQuantifier, ParseError, UnboundVariable
from hypersynth.formula import (
    And,
    Atom,
    Eventually,
    Formula,
    FragmentKind,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Quantifier,
    Release,
    TrueBool,
    Until,
    alternation_count,
    classify_fragment,
    compile_body,
    desugar,
    free_vars,
    negate_nnf,
    post_order,
)
from hypersynth.parser import MAX_NESTING, parse, parse_body, print_body, print_formula
from hypersynth.plant import Lasso
from hypersynth.semantics import eval_body

from helpers import random_body, random_lasso, random_prefix_formula

E, A = Quantifier.EXISTS, Quantifier.FORALL


# --- parsing ---------------------------------------------------------------


def test_parse_basic_prefix():
    f = parse("exists p. forall q. F m[p]")
    assert f.prefix == ((E, "p"), (A, "q"))
    assert f.body == Eventually(Atom("m", "p"))


def test_parse_agreement_example():
    f = parse("forall p. forall q. G(a[p] <-> a[q])")
    assert f.prefix == ((A, "p"), (A, "q"))
    assert f.body == Globally(Iff(Atom("a", "p"), Atom("a", "q")))


def test_parse_unbound_variable():
    with pytest.raises(UnboundVariable) as err:
        parse("forall p. a[q]")
    assert err.value.name == "q"


def test_parse_duplicate_quantifier():
    with pytest.raises(DuplicateQuantifier):
        parse("forall p. exists p. a[p]")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("forall p. (a[p]")
    assert err.value.line == 1
    assert err.value.column > 1


def test_parse_precedence():
    body = parse_body("a[p] | b[p] & c[p] -> d[p] U X e[p] <-> true")
    assert isinstance(body, Iff)
    assert isinstance(body.left, Implies)
    assert isinstance(body.left.left, Or)
    assert isinstance(body.left.left.right, And)
    assert isinstance(body.left.right, Until)
    assert isinstance(body.left.right.right, Next)


def test_until_right_associative():
    body = parse_body("a[p] U b[p] U c[p]")
    assert body == Until(Atom("a", "p"), Until(Atom("b", "p"), Atom("c", "p")))


def test_false_parses_to_negated_true():
    assert parse_body("false") == Not(TrueBool())
    assert print_body(Not(TrueBool())) == "false"


def test_comments_ignored():
    f = parse("# objective\nexists p. F a[p] # tail\n")
    assert f.prefix == ((E, "p"),)


def test_desugared_bodies_round_trip():
    rng = random.Random(2025)
    for _ in range(300):
        body = desugar(random_body(rng, ("p", "q"), budget=7))
        assert parse_body(print_body(body)) == body


def test_round_trip_corpus():
    rng = random.Random(2024)
    quant_pool = (E, A)
    for _ in range(1000):
        prefix_len = rng.randint(0, 4)
        quants = tuple(rng.choice(quant_pool) for _ in range(prefix_len))
        if prefix_len:
            f = random_prefix_formula(rng, quants, budget=rng.randint(1, 8))
        else:
            f = Formula((), TrueBool())
        assert parse(print_formula(f)) == f


# --- desugar / NNF -----------------------------------------------------------


CORE = (TrueBool, Atom, Not, Or, Until, Next)


def _only_core(body) -> bool:
    if isinstance(body, (TrueBool, Atom)):
        return True
    if isinstance(body, (Not, Next)):
        return _only_core(body.operand)
    if isinstance(body, (Or, Until)):
        return _only_core(body.left) and _only_core(body.right)
    return False


def test_desugar_targets_core():
    rng = random.Random(9)
    for _ in range(200):
        body = random_body(rng, ("p", "q"), budget=7)
        assert _only_core(desugar(body))


def test_desugar_preserves_evaluation():
    rng = random.Random(10)
    for _ in range(300):
        body = random_body(rng, ("p", "q"), budget=7)
        asg = {"p": random_lasso(rng), "q": random_lasso(rng)}
        assert eval_body(desugar(body), asg) == eval_body(body, asg)


def test_negate_nnf_examples():
    assert negate_nnf(TrueBool()) == Not(TrueBool())
    a = Atom("a", "p")
    assert negate_nnf(Next(a)) == Next(Not(a))
    assert negate_nnf(Until(a, Not(a))) == Release(Not(a), a)


def _is_nnf(body) -> bool:
    if isinstance(body, (TrueBool, Atom)):
        return True
    if isinstance(body, Not):
        return isinstance(body.operand, (TrueBool, Atom))
    if isinstance(body, Next):
        return _is_nnf(body.operand)
    if isinstance(body, (Or, And, Until, Release)):
        return _is_nnf(body.left) and _is_nnf(body.right)
    return False


def test_negate_nnf_equivalence_randomized():
    # eval(negate_nnf(b)) must equal !eval(b) on random assignments
    rng = random.Random(11)
    for _ in range(200):
        body = desugar(random_body(rng, ("p", "q"), budget=7))
        negated = negate_nnf(body)
        assert _is_nnf(negated)
        asg = {"p": random_lasso(rng), "q": random_lasso(rng)}
        assert eval_body(negated, asg) == (not eval_body(body, asg))
        # negating again reads And and Release nodes
        assert eval_body(negate_nnf(negated), asg) == eval_body(body, asg)


def test_free_vars():
    body = Or(Atom("a", "p"), Until(TrueBool(), Atom("b", "q")))
    assert free_vars(body) == {"p", "q"}


# --- the one walk ------------------------------------------------------------


def test_post_order_lists_each_node_once_operands_first():
    a = Atom("a", "p")
    shared = Next(a)
    until = Until(shared, a)
    body = Or(until, shared)
    order = post_order(body)
    assert [id(node) for node, _ in order] == list(map(id, (a, shared, until, body)))
    assert [args for _, args in order] == [(), (0,), (1, 0), (2, 1)]


@pytest.mark.parametrize(
    "walk", [post_order, free_vars, desugar, negate_nnf, print_body, compile_body, hash]
)
def test_walks_reject_foreign_nodes(walk):
    with pytest.raises(TypeError):
        walk(Or(Atom("a", "p"), Not("b[p]")))


def test_deep_desugared_bodies_print_compare_and_hash():
    n = MAX_NESTING
    shallower = desugar(parse_body("G " * (n - 1) + "a[p]"))
    a, none = frozenset({"a"}), frozenset()
    asg = {"p": Lasso((a,), (none, a))}
    g_text, and_text = "a[p]", "a[p]"
    for _ in range(n):
        g_text = f"!(true U !{g_text})"
        and_text = f"!(!{and_text} | !a[p])"
    for text, printed in (
        ("G " * n + "a[p]", g_text),
        (" & ".join(["a[p]"] * (n + 1)), and_text),
    ):
        body = parse_body(text)
        d = desugar(body)
        assert print_body(d) == printed
        assert eval_body(negate_nnf(d), asg) == (not eval_body(d, asg))
        assert d == desugar(body) and hash(d) == hash(desugar(body))
        assert d != shallower


def test_equality_is_tree_equality():
    a, b = Atom("a", "p"), Atom("b", "q")
    shared = Until(Next(a), Next(a))
    copied = Until(Next(Atom("a", "p")), Next(Atom("a", "p")))
    assert shared == copied and hash(shared) == hash(copied)
    assert len({shared, copied}) == 1
    assert And(a, b) != Or(a, b)
    assert Or(a, b) != Or(b, a)
    # one text, two trees: release is printed through its definition
    release, definition = Release(a, b), Not(Until(Not(a), Not(b)))
    assert print_body(release) == print_body(definition)
    assert release != definition
    assert a.__eq__("a[p]") is NotImplemented
    assert a != "a[p]"


def test_equality_matches_structure_on_random_bodies():
    rng = random.Random(31)
    bodies = [random_body(rng, ("p", "q"), rng.randint(1, 4), ("a", "b")) for _ in range(120)]
    equal_pairs = 0
    for x, y in itertools.combinations(bodies, 2):
        assert (x == y) == (repr(x) == repr(y))
        if x == y:
            assert hash(x) == hash(y)
            equal_pairs += 1
    assert equal_pairs  # the draw repeats some small trees


@pytest.mark.parametrize(
    "body, text",
    [
        (Release(TrueBool(), Atom("a", "p")), "!(false U !a[p])"),
        (Not(Release(Atom("a", "p"), Atom("b", "q"))), "!(!(!a[p] U !b[q]))"),
        (
            Until(Release(Atom("a", "p"), Atom("b", "q")), Atom("a", "p")),
            "(!(!a[p] U !b[q])) U a[p]",
        ),
        (
            negate_nnf(desugar(parse_body("G (a[p] -> F b[q])"))),
            "true U (a[p] & !(!false U !!b[q]))",
        ),
    ],
)
def test_printer_golden(body, text):
    assert print_body(body) == text


def test_walks_store_nothing_on_bodies():
    body = parse_body("G(a[p] -> F b[q]) & X(a[p] <-> (c[q] U a[p]))")
    fields = [sorted(vars(node)) for node, _ in post_order(body)]
    f = Formula(((A, "p"), (E, "q")), body)
    print_formula(f)
    assert body == parse_body(print_body(body))
    hash(body)
    negate_nnf(desugar(body))
    assert [sorted(vars(node)) for node, _ in post_order(body)] == fields


# --- nodes -------------------------------------------------------------------

_A, _B = "Atom(prop='a', var='p')", "Atom(prop='b', var='q')"


@pytest.mark.parametrize(
    "cls, fields, text",
    [
        (TrueBool, (), "TrueBool()"),
        (Atom, ("prop", "var"), "Atom(prop='a', var='p')"),
        *[
            (cls, ("operand",), f"{cls.__name__}(operand={_A})")
            for cls in (Not, Next, Eventually, Globally)
        ],
        *[
            (cls, ("left", "right"), f"{cls.__name__}(left={_A}, right={_B})")
            for cls in (Or, And, Implies, Iff, Until, Release)
        ],
    ],
)
def test_nodes_behave_as_frozen_records(cls, fields, text):
    values = {
        (): (),
        ("prop", "var"): ("a", "p"),
        ("operand",): (Atom("a", "p"),),
        ("left", "right"): (Atom("a", "p"), Atom("b", "q")),
    }[fields]
    node = cls(*values)
    assert repr(node) == text
    assert cls.__match_args__ == fields
    assert vars(node) == dict(zip(fields, values))
    by_name = cls(**dict(zip(fields, values)))
    assert vars(by_name) == vars(node) and by_name == node
    for name in (*fields, "program", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, TrueBool())
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)
    assert vars(node) == dict(zip(fields, values))
    for again in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert type(again) is cls and again is not node
        assert again == node and hash(again) == hash(node) and repr(again) == text
    with pytest.raises(TypeError):
        cls(*values, TrueBool())
    # shared and copied operands: the same tree
    if fields and fields[0] != "prop":
        a = Next(Atom("a", "p"))
        shared = cls(*[a] * len(fields))
        copied = cls(*[Next(Atom("a", "p")) for _ in fields])
        assert shared == copied and hash(shared) == hash(copied)
        twin = next(c for c in (Not, Next, Or, And) if c is not cls and c.__match_args__ == fields)
        assert shared != twin(*[a] * len(fields))


def test_nodes_match_by_position():
    match Until(Atom("a", "p"), Not(TrueBool())):
        case Until(Atom(prop, var), Not(TrueBool())):
            assert (prop, var) == ("a", "p")
        case _:
            pytest.fail("no match")


# --- fragments ---------------------------------------------------------------


def _formula(quants) -> Formula:
    names = [f"v{i}" for i in range(len(quants))]
    body = Atom("a", names[0]) if names else TrueBool()
    return Formula(tuple(zip(quants, names)), body)


def test_fragment_examples():
    assert classify_fragment(_formula([E, A])).kind is FragmentKind.E_STAR_A
    gni = classify_fragment(_formula([A, A, E]))
    assert gni.kind is FragmentKind.AE and gni.alternations == 1
    assert str(gni) == "AE(1)"
    assert classify_fragment(_formula([A, A])).kind is FragmentKind.A_STAR


def test_fragment_pure_prefixes():
    for n in range(1, 7):
        assert classify_fragment(_formula([E] * n)).kind is FragmentKind.E_STAR
        assert classify_fragment(_formula([A] * n)).kind is FragmentKind.A_STAR


def test_fragment_specificity():
    # a single forall matches A*, E*A, and AE*; A* is the most specific
    assert classify_fragment(_formula([A])).kind is FragmentKind.A_STAR
    assert classify_fragment(_formula([E, E, A])).kind is FragmentKind.E_STAR_A
    assert classify_fragment(_formula([A, E, E])).kind is FragmentKind.A_E_STAR
    ea = classify_fragment(_formula([E, A, A]))
    assert ea.kind is FragmentKind.EA and ea.alternations == 1
    mixed = classify_fragment(_formula([E, A, E, A]))
    assert mixed.kind is FragmentKind.EA and mixed.alternations == 3


def test_alternation_count_examples():
    assert alternation_count(_formula([A, A])) == 0
    assert alternation_count(_formula([E, A])) == 1
    assert alternation_count(_formula([A, A, E])) == 1
    assert alternation_count(_formula([E, A, E, A, E])) == 4


def test_nesting_cap_admits_only_evaluable_bodies():
    from hypersynth.parser import MAX_NESTING
    from hypersynth.plant import Lasso

    n = MAX_NESTING
    at_cap = {
        "next": "X " * n + "a[p]",
        "parens": "X(" * (n // 2) + "a[p]" + ")" * (n // 2),
        "left": " & ".join(["a[p]"] * (n + 1)),
        "right": " U ".join(["a[p]"] * (n + 1)),
    }
    asg = {"p": Lasso((), (frozenset({"a"}),))}
    for text in at_cap.values():
        assert eval_body(parse_body(text), asg)
        assert parse(print_formula(parse("forall p. " + text))).body == parse_body(text)
    over = {
        "next": "X " + at_cap["next"],
        "parens": "(" + at_cap["parens"] + ")",
        "left": at_cap["left"] + " & a[p]",
        "right": at_cap["right"] + " U a[p]",
    }
    for text in over.values():
        with pytest.raises(ParseError, match="nested deeper"):
            parse_body(text)
