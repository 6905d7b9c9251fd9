import copy
import gc
import itertools
import math
import random

import pytest

from hypersynth.errors import HorizonExceeded, UnboundVariable
from hypersynth.formula import (
    And,
    Atom,
    Body,
    Eventually,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Quantifier,
    Release,
    Until,
    desugar,
    negate_nnf,
)
from hypersynth.parser import MAX_NESTING, parse, parse_body
from hypersynth.plant import Lasso, Plant, sort_lassos
from hypersynth.semantics import (
    BodyBatch,
    check,
    eval_batch,
    eval_body,
    eval_each,
    eval_quantified,
    eval_quantified_witness,
)
from hypersynth.reductions import CnfInput, threesat_to_instance
from hypersynth.synth import (
    dispatch,
    synth_generic,
    synth_tree_exists_forall,
    synth_tree_marking,
)

from helpers import (
    horizon_outcome,
    naive_eval,
    random_body,
    random_lasso,
    random_letter,
    shift_assignment,
    subformula_count,
)

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


def _joint_length(asg) -> int:
    stem = max(len(l.stem) for l in asg.values())
    period = math.lcm(*(len(l.loop) for l in asg.values()))
    return stem + period


def test_horizon_boundary_counts_shared_nodes_per_occurrence():
    # the guard compares n * size with the horizon, size counting a node
    # object (or an equal copy) that occurs twice twice, exactly as the
    # tree walk does, although the program computes it once
    rng = random.Random(80)
    ctors = (And, Or, Implies, Iff, Until, Release)
    for _ in range(200):
        shared = random_body(rng, ("p", "q"), budget=5)
        other = random_body(rng, ("p", "q"), budget=3)
        ctor = rng.choice(ctors)
        body = rng.choice((
            ctor(shared, shared),
            ctor(shared, copy.deepcopy(shared)),
            ctor(shared, Next(Or(other, shared))),
            Not(ctor(Eventually(shared), Globally(shared))),
        ))
        asg = {"p": random_lasso(rng), "q": random_lasso(rng)}
        limit = _joint_length(asg) * subformula_count(body)
        expected = eval_body(body, asg, horizon=limit)
        assert eval_body(body, asg, horizon=limit + 1) == expected
        with pytest.raises(HorizonExceeded):
            eval_body(body, asg, horizon=limit - 1)


def test_horizon_checked_before_bindings():
    # an oversized joint word is refused even when a binding is missing
    asg = {"p": Lasso((), (letter(),) * 7), "q": Lasso((), (letter(),) * 11)}
    with pytest.raises(HorizonExceeded):
        eval_body(Atom("a", "unbound"), asg, horizon=10)


def _long_loop_assignment(rng: random.Random) -> dict[str, Lasso]:
    # coprime loops 4, 5, 7: the joint period is 140 and masks are wider
    # than a machine word
    return {
        var: Lasso(
            tuple(random_letter(rng) for _ in range(rng.randint(0, 3))),
            tuple(random_letter(rng) for _ in range(k)),
        )
        for var, k in (("p", 4), ("q", 5), ("r", 7))
    }


def _temporal_depth(body: Body) -> int:
    kids = [getattr(body, f) for f in ("operand", "left", "right") if hasattr(body, f)]
    depth = max((_temporal_depth(k) for k in kids), default=0)
    temporal = isinstance(body, (Until, Release, Eventually, Globally))
    return depth + temporal


def test_long_loops_match_truncation_oracle():
    rng = random.Random(81)
    conclusive = 0
    for _ in range(120):
        body = random_body(rng, ("p", "q", "r"), budget=6)
        if rng.random() < 0.5:
            body = negate_nnf(desugar(body))  # Release nodes, negated atoms
        if _temporal_depth(body) > 2:
            continue
        asg = _long_loop_assignment(rng)
        # conclusive truncation verdicts are exact at any length; two
        # joint periods past the longest stem settle most of them
        expected = naive_eval(body, asg, _joint_length(asg) + 140)
        if expected is None:
            continue
        conclusive += 1
        assert eval_body(body, asg) == expected
    assert conclusive > 30


def test_long_loop_negation_duality():
    # truncation never proves a release or a globally true; duality does
    rng = random.Random(83)
    for _ in range(150):
        body = desugar(random_body(rng, ("p", "q", "r"), budget=7))
        asg = _long_loop_assignment(rng)
        assert eval_body(negate_nnf(body), asg) == (not eval_body(body, asg))


def test_long_loop_shift_coherence_across_the_wrap():
    rng = random.Random(82)
    for _ in range(60):
        body = random_body(rng, ("p", "q", "r"), budget=6)
        asg = _long_loop_assignment(rng)
        assert eval_body(Next(body), asg) == eval_body(body, shift_assignment(asg, 1))
        # k steps past position n-1 wrap back into the loop
        k = rng.randint(_joint_length(asg) - 3, 2 * _joint_length(asg))
        shifted = body
        for _ in range(k):
            shifted = Next(shifted)
        assert eval_body(shifted, asg) == eval_body(body, shift_assignment(asg, k))


def _deep_chains() -> dict[str, str]:
    n = MAX_NESTING
    return {
        "G": "G " * n + "a[p]",
        "GX": "G X " * (n // 2) + "a[p]",
        "iff": " <-> ".join(["a[p]", "b[q]"] * (n // 2) + ["a[q]"]),
    }


def test_deep_desugared_bodies_evaluate():
    # desugar makes a body at the parser's cap up to ~3x deeper; the
    # compile pass is iterative, so the result evaluates without recursion
    asgs = [
        {"p": Lasso((), (letter("a"),)), "q": Lasso((letter("b"),), (letter("a"),))},
        {"p": Lasso((letter("a"),), (letter("a", "b"), letter())), "q": Lasso((), (letter("b"),))},
    ]
    for name, text in _deep_chains().items():
        body = parse_body(text)
        sugar_free = desugar(body)
        # each <-> doubles the desugared tree (its operands are shared by
        # identity), so that chain needs an unbounded horizon
        horizon = math.inf if name == "iff" else 10**6
        for asg in asgs:
            assert eval_body(sugar_free, asg, horizon) == eval_body(body, asg)


def test_evaluation_leaves_no_reference_cycles():
    def fresh():
        plant = Plant(
            {"r", "x", "y", "z"},
            "r",
            {("r", "x"), ("r", "y"), ("r", "z"), ("x", "x"), ("y", "y"), ("z", "z")},
            set(),
            {"x": {"a"}, "y": {"b"}, "z": {"a", "b"}},
        )
        cycle = Plant(
            {"s", "t"},
            "s",
            {("s", "s"), ("s", "t")},
            {("t", "s")},
            {"s": {"a"}},
        )
        sat = threesat_to_instance(CnfInput(3, ((1, 2, 3), (-1, -2, 3))))
        traces = {Lasso((), (letter("a"),)), Lasso((letter("b"),), (letter(),))}
        return plant, traces, cycle, sat

    def run():
        plant, traces, cycle, sat = fresh()
        body = parse_body("G(a[p] <-> a[q]) & F b[p] & (a[p] U b[q])")
        asg = {"p": Lasso((letter("a"),), (letter("b"), letter())), "q": Lasso((), (letter("a"),))}
        for _ in range(20):
            eval_body(body, asg)
        eval_quantified_witness(parse("forall p. forall q. G(a[p] <-> a[q])"), traces)
        synth_tree_exists_forall(plant, parse("exists p. forall q. F a[q]"))
        synth_tree_marking(plant, parse("forall p. exists q. F(a[q] & b[q])"))
        synth_generic(sat.plant, sat.formula)
        dispatch(cycle, parse("forall p. G F a[p]"))

    run()  # first calls may fill interpreter-level caches
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


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


# --- batched evaluation ------------------------------------------------------


def _random_trace_set(rng: random.Random) -> set[Lasso]:
    """Random lassos with stems of unequal length, sometimes with the
    coprime 4/5/7 loops, so the batch's joint period is 140."""
    traces = {random_lasso(rng) for _ in range(rng.randint(1, 5))}
    if rng.random() < 0.4:
        traces.update(_long_loop_assignment(rng).values())
    return traces


def _per_tuple(f: Formula, trace_set, horizon: int = 10**6):
    """eval_quantified_witness as a plain loop: eval_body on each full
    tuple, traces in sorted order, the first deciding tuple wins."""
    traces = sort_lassos(trace_set)

    def rec(chosen):
        depth = len(chosen)
        if depth == len(f.prefix):
            ok = eval_body(f.body, dict(zip(f.variables, chosen)), horizon)
            return ok, None if ok else chosen
        exists = f.prefix[depth][0] is E
        for t in traces:
            ok, witness = rec(chosen + (t,))
            if ok is exists:
                return ok, witness
        return not exists, None

    holds, witness = rec(())
    universal = all(q is A for q, _ in f.prefix)
    return holds, witness if universal and not holds else None


def _regimes(rng, f: Formula, traces) -> list[tuple[int, int]]:
    """(horizon, expected grid width) for the three width regimes of a
    batch: the full prefix, a grid narrowed by the horizon, and none, at
    a horizon that admits the widest tuple but no grid, so the batch
    answers tuple by tuple.  A single trace never gets a grid."""
    k, size = len(f.prefix), f.body.program.size
    cells = _joint_length(dict(enumerate(traces))) * size
    widest = max(
        _joint_length(dict(zip(f.variables, chosen)))
        for chosen in itertools.product(traces, repeat=k)
    ) * size
    regimes = [(10**9, k if len(traces) > 1 else 0)]
    if k > 1 and len(traces) > 1:
        w = rng.randint(1, k - 1)
        regimes.append((cells * len(traces) ** w, w))
    if widest < cells * len(traces):
        regimes.append((widest, 0))
    return regimes


def test_batch_bits_match_eval_body_per_tuple():
    # first(), over the whole list and among a subset, and holds(), against
    # eval_body on each tuple, for prefixes of 1-3 variables of any kinds,
    # in each width regime: the whole prefix in the grid, a grid narrowed
    # by the horizon, and tuple by tuple
    rng = random.Random(84)
    names = ("o", "p", "q", "r")
    narrower = by_tuple = 0
    for _ in range(150):
        k = rng.randint(1, 3)
        quants = tuple(rng.choice((A, E)) for _ in range(k))
        body = random_body(rng, names[:k], budget=rng.randint(1, 8))
        if rng.random() < 0.3:
            body = negate_nnf(desugar(body))  # Release nodes
        f = Formula(tuple(zip(quants, names)), body)
        traces = sort_lassos(_random_trace_set(rng))
        for horizon, width in _regimes(rng, f, traces):
            memo = {} if rng.random() < 0.5 else None
            batch = BodyBatch(f, traces, horizon, memo)
            assert batch.width == width
            narrower += 0 < width < k
            by_tuple += width == 0
            # traces by list index; m, the length of an answer's suffix
            m = k - batch.outer
            suffixes = list(itertools.product(range(len(traces)), repeat=m))
            for _ in range(3):
                prefix = tuple(rng.randrange(len(traces)) for _ in range(batch.outer))
                expected = [
                    eval_body(body, dict(zip(names, [traces[i] for i in prefix + suffix])))
                    for suffix in suffixes
                ]
                members = rng.sample(range(len(traces)), rng.randint(0, len(traces)))
                among = batch.subset(members)
                for value in (True, False):
                    hits = [s for s, v in zip(suffixes, expected) if v is value]
                    assert batch.first(prefix, value) == next(iter(hits), None)
                    hits = [s for s in hits if set(s) <= set(members)]
                    assert batch.first(prefix, value, among) == next(iter(hits), None)
                for suffix, verdict in zip(suffixes, expected):
                    tuple_ = prefix + suffix
                    assert batch.holds(tuple_[:-1], tuple_[-1]) is verdict
    assert narrower > 30 and by_tuple > 50


def _decided(f: Formula, traces, chosen: tuple, members) -> bool:
    """The quantifiers after the chosen traces, each ranging over the
    members, by eval_body on every full tuple."""
    if len(chosen) == len(f.prefix):
        return eval_body(f.body, dict(zip(f.variables, [traces[i] for i in chosen])))
    branches = (_decided(f, traces, chosen + (i,), members) for i in members)
    return any(branches) if f.prefix[len(chosen)][0] is E else all(branches)


def test_fold_matches_per_tuple_enumeration():
    # the quantifiers folded on the grid bits, after a prefix and among a
    # subset (empty, a singleton or any), against eval_body on every
    # tuple of the members, for mixed prefixes of 1-4 variables in each
    # width regime; and the same through eval_batch, which enumerates the
    # outer variables, and eval_each, which folds one level short
    rng = random.Random(88)
    names = ("o", "p", "q", "r")
    seen = {"full": 0, "narrowed": 0, "none": 0}
    for _ in range(120):
        k = rng.randint(1, 4)
        quants = tuple(rng.choice((A, E)) for _ in range(k))
        f = Formula(tuple(zip(quants, names)), random_body(rng, names[:k], budget=rng.randint(1, 7)))
        traces = sort_lassos({random_lasso(rng) for _ in range(rng.randint(1, 5 if k < 4 else 3))})
        t = len(traces)
        for horizon, width in _regimes(rng, f, traces):
            batch = BodyBatch(f, traces, horizon, {} if rng.random() < 0.5 else None)
            assert batch.width == width
            seen["none" if not width else "full" if width == k else "narrowed"] += 1
            for size in (0, 1, rng.randint(0, t), t):
                members = sorted(rng.sample(range(t), size))
                among = batch.subset(members)
                prefix = tuple(rng.randrange(t) for _ in range(batch.outer))
                assert batch.decide(prefix, among) is _decided(f, traces, prefix, members)
                assert batch.decide(prefix) is _decided(f, traces, prefix, range(t))
                subset = {traces[i] for i in members}
                assert eval_batch(batch, subset) == _per_tuple(f, subset)
                if k > 1:
                    supported = [i for i in members if _decided(f, traces, (i,), members)]
                    assert eval_each(batch, members) == supported
    assert min(seen.values()) > 30, seen


def test_quantified_witness_matches_per_tuple_loop():
    rng = random.Random(85)
    for _ in range(300):
        quants = tuple(rng.choice((E, A)) for _ in range(rng.randint(1, 3)))
        names = tuple(f"t{i}" for i in range(len(quants)))
        f = Formula(tuple(zip(quants, names)), random_body(rng, names, budget=6))
        traces = _random_trace_set(rng)
        assert eval_quantified_witness(f, traces) == _per_tuple(f, traces)


def test_horizon_guard_is_per_tuple_for_batches():
    # a batch runs only when all of it fits the horizon; otherwise the
    # tuples run one by one, so the guard trips exactly where eval_body's
    # would, and not at all when no tuple reaches the horizon
    rng = random.Random(86)
    tripped = 0
    for _ in range(150):
        quants = tuple(rng.choice((E, A)) for _ in range(rng.randint(1, 3)))
        names = tuple(f"t{i}" for i in range(len(quants)))
        body = random_body(rng, names, budget=5)
        if rng.random() < 0.5:
            # a tautology under universals visits every tuple
            quants = (A,) * len(quants)
            body = Or(body, Not(body))
        f = Formula(tuple(zip(quants, names)), body)
        traces = _random_trace_set(rng)
        widest = max(
            _joint_length(dict(zip(names, chosen)))
            for chosen in itertools.product(traces, repeat=len(names))
        ) * f.body.program.size
        for horizon in (widest, widest - 1, rng.randint(1, widest)):
            got = horizon_outcome(lambda: eval_quantified_witness(f, traces, horizon))
            assert got == horizon_outcome(lambda: _per_tuple(f, traces, horizon))
        assert eval_quantified(f, traces, widest) == eval_quantified(f, traces)
        if quants == (A,) * len(quants) and isinstance(body, Or):
            with pytest.raises(HorizonExceeded):
                eval_quantified(f, traces, widest - 1)
            tripped += 1
    assert tripped > 30


def test_wide_joint_periods_run_tuple_by_tuple():
    # loops 5, 7, 8 and 9 make P* = 2520, 280 times the longest loop: the
    # batch is refused and the tuples run one by one, with the same answer
    rng = random.Random(87)
    traces = {
        Lasso(
            tuple(random_letter(rng) for _ in range(rng.randint(0, 2))),
            tuple(random_letter(rng) for _ in range(k)),
        )
        for k in (5, 7, 8, 9)
    }
    for _ in range(20):
        f = Formula(((A, "p"), (E, "q")), random_body(rng, ("p", "q"), budget=5))
        assert not BodyBatch(f, sort_lassos(traces), 10**9).fits
        assert eval_quantified_witness(f, traces) == _per_tuple(f, traces)
    f = Formula(((A, "p"), (E, "q")), random_body(rng, ("p", "q"), budget=5))
    assert BodyBatch(f, sort_lassos(_long_loop_assignment(rng).values()), 10**9).fits


def test_shared_cache_is_keyed_by_trace_set():
    # the innermost batch's result depends on the whole trace list, and a
    # one-variable formula has the empty prefix in every set
    a, b = Lasso((), (letter("a"),)), Lasso((letter("a"),), (letter("b"),))
    cache: dict = {}
    f = parse("forall p. G a[p]")
    assert eval_quantified(f, {a}, cache=cache)
    assert eval_quantified_witness(f, {a, b}, cache=cache) == (False, (b,))
    assert eval_quantified(f, {a}, cache=cache)
    # the same outer trace, so the same prefix (a,), in both sets
    g = parse("forall p. exists q. F b[q] & (a[p] | a[q])")
    shared: dict = {}
    assert not eval_quantified(g, {a}, cache=shared)
    assert eval_quantified(g, {a, b}, cache=shared)
    assert not eval_quantified(g, {a}, cache=shared)
    assert len(shared) == 2


def test_sentence_without_quantifiers_is_its_body():
    # no quantifier to enumerate: the body is decided on the empty
    # assignment, and a false one is falsified by the empty tuple
    traces = {Lasso((), (letter("a"),))}
    assert eval_quantified_witness(parse("true"), traces) == (True, None)
    assert eval_quantified_witness(parse("X false"), traces) == (False, ())
    assert eval_quantified_witness(parse("false"), set()) == (False, ())


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
