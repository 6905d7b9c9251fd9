import random

import pytest

from hypersynth.errors import HorizonExceeded, UnboundVariable
from hypersynth.formula import (
    Atom,
    Formula,
    Next,
    Quantifier,
    subformula_count,
)
from hypersynth.parser import parse, parse_body
from hypersynth.plant import Lasso, Plant
from hypersynth.semantics import (
    check,
    eval_body,
    eval_quantified,
    eval_quantified_witness,
)

from helpers import naive_eval, random_body, random_lasso, shift_assignment

E, A = Quantifier.EXISTS, Quantifier.FORALL


def letter(*props):
    return frozenset(props)


def test_identity_assignment_always_agrees():
    body = parse_body("G(a[p] <-> a[q])")
    lasso = Lasso((letter("a"),), (letter("b"),))
    assert eval_body(body, {"p": lasso, "q": lasso})


def test_fig1_trace_pair_disagrees_at_position_one():
    body = parse_body("G(a[p] <-> a[q])")
    p = Lasso((letter("a"),), (letter("b"),))
    q = Lasso((letter("a"), letter("a")), (letter("b"),))
    # position 1: p reads {b}, q reads {a}
    assert not eval_body(body, {"p": p, "q": q})


def test_eventually_over_m_free_word():
    body = parse_body("F m[p]")
    lasso = Lasso((letter("a"),), (letter("b"), letter()))
    assert not eval_body(body, {"p": lasso})


def test_unbound_variable_raises():
    with pytest.raises(UnboundVariable):
        eval_body(Atom("a", "p"), {})


def test_until_loop_fixpoint():
    # aU b where b appears only in the loop's second letter
    body = parse_body("a[p] U b[p]")
    lasso = Lasso((), (letter("a"), letter("a", "b")))
    assert eval_body(body, {"p": lasso})
    stuck = Lasso((), (letter("a"),))
    assert not eval_body(body, {"p": stuck})


def test_globally_on_loop():
    body = parse_body("G a[p]")
    assert eval_body(body, {"p": Lasso((), (letter("a"),))})
    assert not eval_body(
        body, {"p": Lasso((letter("a"),), (letter("a"), letter()))}
    )


def test_lasso_dp_matches_truncation_oracle():
    # criterion-8 style sweep at module granularity
    rng = random.Random(77)
    conclusive = 0
    for _ in range(400):
        body = random_body(rng, ("p", "q"), budget=8)
        asg = {"p": random_lasso(rng), "q": random_lasso(rng)}
        s_star = max(len(l.stem) for l in asg.values())
        p_star = 1
        for l in asg.values():
            import math

            p_star = p_star * len(l.loop) // math.gcd(p_star, len(l.loop))
        horizon = s_star + p_star * (subformula_count(body) + 2)
        expected = naive_eval(body, asg, horizon)
        if expected is None:
            continue
        conclusive += 1
        assert eval_body(body, asg) == expected
    assert conclusive > 100  # the sweep must actually exercise the oracle


def test_shift_coherence():
    # X psi at 0 equals psi on the shifted assignment
    rng = random.Random(78)
    for _ in range(150):
        body = random_body(rng, ("p", "q"), budget=6)
        asg = {"p": random_lasso(rng), "q": random_lasso(rng)}
        assert eval_body(Next(body), asg) == eval_body(body, shift_assignment(asg, 1))


def test_horizon_guard():
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    asg = {
        f"v{i}": Lasso((), tuple(letter() for _ in range(p)))
        for i, p in enumerate(primes)
    }
    body = Atom("a", "v0")
    with pytest.raises(HorizonExceeded):
        eval_body(body, asg, horizon=10**6)


# --- quantified evaluation ---------------------------------------------------


def test_quantified_examples():
    traces = {Lasso((letter("a"),), (letter("b"),))}
    f = parse("forall p. forall q. G(a[p] <-> a[q])")
    assert eval_quantified(f, traces)
    f2 = parse("exists p. F pos[p]")
    assert not eval_quantified(f2, traces)


def test_quantifier_duality():
    rng = random.Random(79)
    from hypersynth.formula import Not as BodyNot

    for _ in range(120):
        traces = {random_lasso(rng) for _ in range(rng.randint(1, 4))}
        body = random_body(rng, ("t0",), budget=5)
        forall = Formula(((A, "t0"),), body)
        exists_neg = Formula(((E, "t0"),), BodyNot(body))
        assert eval_quantified(forall, traces) == (
            not eval_quantified(exists_neg, traces)
        )


def test_universal_witness_extraction():
    traces = {
        Lasso((), (letter("a"),)),
        Lasso((), (letter("b"),)),
    }
    f = parse("forall p. forall q. G(a[p] <-> a[q])")
    holds, witness = eval_quantified_witness(f, traces)
    assert not holds
    assert witness is not None and len(witness) == 2
    # the witness itself falsifies the body
    asg = dict(zip(f.variables, witness))
    assert not eval_body(f.body, asg)


def test_witness_not_reported_for_mixed_prefixes():
    traces = {Lasso((), (letter("a"),))}
    f = parse("exists p. G b[p]")
    holds, witness = eval_quantified_witness(f, traces)
    assert not holds and witness is None


# --- check -------------------------------------------------------------------


def test_check_fig1(fig1_plant):
    assert check(fig1_plant, parse("exists p. F b[p]")).holds
    result = check(fig1_plant, parse("forall p. forall q. G(a[p] <-> a[q])"))
    assert not result.holds
    assert result.exact


def test_check_trivial_formula(fig1_plant):
    result = check(fig1_plant, parse("forall p. true"))
    assert result.holds and result.exact


def test_check_general_is_bounded():
    plant = Plant(
        {"s0", "s1"},
        "s0",
        {("s0", "s1"), ("s1", "s0")},
        set(),
        {"s0": {"a"}, "s1": {"b"}},
    )
    result = check(plant, parse("exists p. F b[p]"))
    assert result.holds and not result.exact
    assert bool(result) is True


def test_check_insensitive_to_duplicate_paths():
    base = Plant(
        states={"r", "x", "y"},
        init="r",
        c_edges={("r", "x"), ("r", "y"), ("x", "x"), ("y", "y")},
        u_edges=set(),
        labeling={"r": {"a"}, "x": {"b"}, "y": {"b"}},
    )
    single = Plant(
        states={"r", "x"},
        init="r",
        c_edges={("r", "x"), ("x", "x")},
        u_edges=set(),
        labeling={"r": {"a"}, "x": {"b"}},
    )
    for text in ("exists p. F b[p]", "forall p. forall q. G(b[p] <-> b[q])"):
        f = parse(text)
        assert check(base, f).holds == check(single, f).holds
