import random
import time
from itertools import product

import pytest

from hypersynth.errors import (
    CandidateSpaceExceeded,
    DeadlockIntroduced,
    FragmentMismatch,
    FrameMismatch,
)
from hypersynth.formula import Formula, Quantifier, TrueBool
from hypersynth.parser import parse
from hypersynth.plant import (
    FrameKind,
    Plant,
    classify_frame,
    enumerate_traces,
    pruned_traces,
    sort_lassos,
)
from hypersynth.reductions import (
    decode_assignment,
    parse_dimacs,
    qbf_to_instance,
    threesat_to_instance,
)
import hypersynth.semantics
import hypersynth.synth
from hypersynth.semantics import (
    BodyBatch,
    check,
    eval_batch,
    eval_quantified,
    eval_quantified_witness,
)
from hypersynth.synth import (
    ControllerSolution,
    Verdict,
    apply_solution,
    candidate_space_bits,
    dispatch,
    synth_generic,
    synth_tree_exists_forall,
    synth_tree_marking,
)

from helpers import (
    cnf_satisfied,
    horizon_outcome,
    random_acyclic_plant,
    random_general_plant,
    qbf_brute,
    random_prefix_formula,
    random_qbf,
    random_retained,
    random_tree_plant,
    synth_brute,
)

E, A = Quantifier.EXISTS, Quantifier.FORALL


def test_apply_identity(fig1_plant):
    pruned = apply_solution(fig1_plant, ControllerSolution(fig1_plant.c_edges))
    assert pruned == fig1_plant


def test_apply_detects_deadlock(fig1_plant):
    # dropping s2's self-loop leaves it without outgoing edges
    retained = fig1_plant.c_edges - {("s2", "s2")}
    with pytest.raises(DeadlockIntroduced) as err:
        apply_solution(fig1_plant, ControllerSolution(retained))
    assert err.value.state == "s2"


def test_apply_rejects_foreign_edges(fig1_plant):
    from hypersynth.errors import SynthesisError

    with pytest.raises(SynthesisError):
        apply_solution(fig1_plant, ControllerSolution({("sinit", "s1")}))


def test_existential_witness_is_full_plant(fig1_plant):
    result = dispatch(fig1_plant, parse("exists p. F b[p]"))
    assert result.verdict is Verdict.REALIZABLE
    assert result.solution.retained == fig1_plant.c_edges


def test_existential_unrealizable_without_pruning(fig1_plant):
    result = dispatch(fig1_plant, parse("exists p. G pos[p]"))
    assert result.verdict is Verdict.UNREALIZABLE


def test_universal_synthesis_prunes(fig1_plant):
    result = dispatch(fig1_plant, parse("forall p. forall q. G(a[p] <-> a[q])"))
    assert result.verdict is Verdict.REALIZABLE
    pruned = apply_solution(fig1_plant, result.solution)
    assert check(pruned, parse("forall p. forall q. G(a[p] <-> a[q])")).holds


def test_all_uncontrollable_matches_check():
    # with no controllable edges synthesis degenerates to model checking
    rng = random.Random(21)
    for _ in range(40):
        plant = random_general_plant(rng)
        quants = tuple(
            rng.choice((E, A)) for _ in range(rng.randint(1, 2))
        )
        f = random_prefix_formula(rng, quants, budget=4)
        verdict = dispatch(plant, f)
        checked = check(plant, f)
        if checked.exact:
            expected = Verdict.REALIZABLE if checked.holds else Verdict.UNREALIZABLE
        else:
            expected = (
                Verdict.REALIZABLE if checked.holds else Verdict.BOUNDED_UNKNOWN
            )
        assert verdict.verdict is expected
        assert verdict.exact == checked.exact


def test_generic_matches_bruteforce_on_trees():
    rng = random.Random(22)
    for _ in range(60):
        plant = random_tree_plant(rng, max_states=7, max_c_edges=6)
        quants = tuple(rng.choice((E, A)) for _ in range(rng.randint(1, 2)))
        f = random_prefix_formula(rng, quants, budget=5)
        expected, _ = synth_brute(plant, f)
        got = synth_generic(plant, f)
        assert got.realizable == expected
        if got.realizable:
            pruned = apply_solution(plant, got.solution)
            assert eval_quantified(f, enumerate_traces(pruned))


def test_generic_matches_bruteforce_on_acyclic():
    rng = random.Random(23)
    for _ in range(40):
        plant = random_acyclic_plant(rng, max_states=7, max_c_edges=6)
        quants = tuple(rng.choice((E, A)) for _ in range(rng.randint(1, 2)))
        f = random_prefix_formula(rng, quants, budget=5)
        expected, _ = synth_brute(plant, f)
        got = synth_generic(plant, f)
        assert got.realizable == expected


def test_generic_returns_maximal_witness():
    rng = random.Random(24)
    for _ in range(30):
        plant = random_tree_plant(rng, max_states=7, max_c_edges=6)
        f = random_prefix_formula(rng, (A, A), budget=4)
        expected, best = synth_brute(plant, f)
        got = synth_generic(plant, f)
        assert got.realizable == expected
        if expected:
            assert len(got.solution.retained) == len(best)


def _judged(monkeypatch, limit: float = float("inf")) -> list:
    """The retained sets the removal search reads traces for, in order;
    None stands for the full plant.  Reading more than limit fails."""
    calls = []

    def recording(plant, retained=None, bounds=None):
        calls.append(retained)
        assert len(calls) <= limit, "too many prunings read"
        return pruned_traces(plant, retained, bounds)

    monkeypatch.setattr(hypersynth.synth, "pruned_traces", recording)
    return calls


def test_candidates_come_in_a_fixed_order(monkeypatch):
    # the order decides which of several equally permissive witnesses wins
    plant = Plant(
        {"a", "b", "x", "y"},
        "a",
        {("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")},
        {("b", "b"), ("x", "x"), ("y", "y")},
        {},
    )
    # a must keep one of its edges; b may lose both
    ax, ay, bx, by = ("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")
    judged = _judged(monkeypatch)
    assert not synth_generic(plant, parse("exists p. forall q. false")).realizable
    assert judged[0] is None  # the full plant first
    assert [plant.c_edges - r for r in judged[1:]] == [
        frozenset(e)
        for e in (
            (ax,), (ay,), (bx,), (by,),
            (ax, bx), (ax, by), (ay, bx), (ay, by), (bx, by),
            (ax, bx, by), (ay, bx, by),
        )
    ]


def test_candidate_guard():
    chain_states = {f"n{i}" for i in range(40)}
    c_edges = {(f"n{i}", f"n{j}") for i in range(40) for j in (i, (i + 1) % 40)}
    plant = Plant(chain_states, "n0", c_edges, set(), {})
    f = random_prefix_formula(random.Random(0), (A,), budget=2)
    assert candidate_space_bits(plant) > 24
    with pytest.raises(CandidateSpaceExceeded):
        synth_generic(plant, f)
    # existential formulas bypass the guard: only the full plant matters
    res = synth_generic(plant, Formula(((E, "t"),), TrueBool()))
    assert res.verdict is Verdict.REALIZABLE


def test_candidate_guard_trips_before_the_universal_search():
    # a tree of 13 choice points with four choices each: 2^26 candidates
    states, c_edges, u_edges = {"r"}, set(), set()
    for i in range(13):
        c, kids = f"c{i}", [f"a{i}", f"b{i}", f"d{i}"]
        states |= {c, *kids}
        u_edges |= {("r", c), (c, kids[2])} | {(k, k) for k in kids}
        c_edges |= {(c, kids[0]), (c, kids[1])}
    plant = Plant(states, "r", c_edges, u_edges, {"a0": {"a"}})
    assert classify_frame(plant) is FrameKind.TREE
    assert candidate_space_bits(plant) == 26
    with pytest.raises(CandidateSpaceExceeded):
        dispatch(plant, parse("forall p. forall q. G(a[p] <-> a[q])"))


def _unsatisfiable_cnf():
    """Every sign pattern over three variables: about 2^22.5 candidates."""
    lines = [
        " ".join(str(v if sign else -v) for v, sign in zip((1, 2, 3), signs)) + " 0"
        for signs in product((True, False), repeat=3)
    ]
    return threesat_to_instance(parse_dimacs("p cnf 3 8\n" + "\n".join(lines) + "\n"))


def test_universal_search_matches_bruteforce_on_trees_and_dags(monkeypatch):
    # A* prefixes on exact frames find a maximum passing pruning
    rng = random.Random(30)
    realizable = 0
    for i in range(240):
        grow = random_tree_plant if i % 2 else random_acyclic_plant
        plant = grow(rng, max_states=8, max_c_edges=7)
        f = random_prefix_formula(rng, (A,) * rng.randint(1, 3), budget=5)
        expected, best = synth_brute(plant, f)
        got = dispatch(plant, f)
        assert got.realizable == expected and got.exact
        if expected:
            realizable += 1
            assert len(got.solution.retained) == len(best)
            assert check(apply_solution(plant, got.solution), f).holds
    assert 0 < realizable < 240
    # their blocking clauses read few of the 2^22.5 prunings of the CNF
    inst = _unsatisfiable_cnf()
    judged = _judged(monkeypatch, limit=2**10)
    assert dispatch(inst.plant, inst.formula).verdict is Verdict.UNREALIZABLE
    # on general frames every deadlock-free pruning is read
    general = Plant({"x", "y"}, "x", {("x", "y"), ("x", "x")}, {("y", "x")}, {})
    judged.clear()
    res = dispatch(general, parse("forall p. G a[p]"))
    assert res.verdict is Verdict.BOUNDED_UNKNOWN
    assert len(judged) == 2 ** candidate_space_bits(general) == 3


def test_search_matches_bruteforce_on_alternating_prefixes():
    # three-variable prefixes with a quantifier alternation: the search
    # judges every deadlock-free pruning, smallest removal first
    prefixes = ((A, E, A), (E, A, E), (A, A, E), (E, E, A), (A, E, E))
    rng = random.Random(31)
    realizable = 0
    for i in range(250):
        grow = random_tree_plant if i % 2 else random_acyclic_plant
        plant = grow(rng, max_states=8, max_c_edges=7)
        f = random_prefix_formula(rng, prefixes[i % 5], budget=5)
        expected, best = synth_brute(plant, f)
        got = synth_generic(plant, f)
        assert got.realizable == expected and got.exact
        if expected:
            realizable += 1
            assert len(got.solution.retained) == len(best)
            assert check(apply_solution(plant, got.solution), f).holds
    assert 0 < realizable < 250
    # general frames, every pruning judged on its lassos within the bounds
    realizable = 0
    for i in range(150):
        plant = random_general_plant(rng, max_states=5, c_frac=0.5)
        while classify_frame(plant) is not FrameKind.GENERAL:
            plant = random_general_plant(rng, max_states=5, c_frac=0.5)
        f = random_prefix_formula(rng, prefixes[i % 5], budget=5)
        bounds = (3, 2)
        expected, best = synth_brute(plant, f, bounds)
        got = synth_generic(plant, f, bounds)
        assert got.realizable == expected and not got.exact
        if expected:
            realizable += 1
            assert len(got.solution.retained) == len(best)
        else:
            assert got.verdict is Verdict.BOUNDED_UNKNOWN
    assert 0 < realizable < 150


def test_exhaustive_search_reads_each_pruning_once(monkeypatch):
    # ten choice points, each with a controllable and an uncontrollable
    # way out: 2^10 prunings, none of which satisfies the sentence
    states, c_edges, u_edges = {"r"}, set(), set()
    for i in range(10):
        c, kids = f"c{i}", (f"a{i}", f"b{i}")
        states |= {c, *kids}
        u_edges |= {("r", c), (c, kids[1])} | {(k, k) for k in kids}
        c_edges.add((c, kids[0]))
    plant = Plant(states, "r", c_edges, u_edges, {"a0": {"a"}})
    assert classify_frame(plant) is FrameKind.TREE
    assert candidate_space_bits(plant) == 10
    judged = _judged(monkeypatch)
    res = synth_generic(plant, parse("forall p. exists q. a[p] & !a[q]"))
    assert res.verdict is Verdict.UNREALIZABLE
    assert len(judged) == 2**10 and judged[0] is None
    assert len(set(judged)) == len(judged)


def test_unsatisfiable_cnf_is_decided_quickly():
    inst = _unsatisfiable_cnf()
    assert 22 < candidate_space_bits(inst.plant) < 23
    start = time.perf_counter()
    assert dispatch(inst.plant, inst.formula).verdict is Verdict.UNREALIZABLE
    assert time.perf_counter() - start < 10


# --- specialized tree algorithms ----------------------------------------------


def test_exists_forall_preconditions(fig1_plant):
    tree = random_tree_plant(random.Random(1))
    with pytest.raises(FragmentMismatch):
        synth_tree_exists_forall(tree, random_prefix_formula(random.Random(2), (A, E)))
    with pytest.raises(FrameMismatch):
        synth_tree_exists_forall(
            fig1_plant, random_prefix_formula(random.Random(3), (E, A))
        )


def test_marking_preconditions(fig1_plant):
    tree = random_tree_plant(random.Random(4))
    with pytest.raises(FragmentMismatch):
        synth_tree_marking(tree, random_prefix_formula(random.Random(5), (E, A)))
    with pytest.raises(FrameMismatch):
        synth_tree_marking(fig1_plant, random_prefix_formula(random.Random(6), (A, E)))


def test_marking_trivial_body_keeps_everything():
    plant = random_tree_plant(random.Random(7))
    f = Formula(((A, "u"), (E, "e")), TrueBool())
    result = synth_tree_marking(plant, f)
    assert result.verdict is Verdict.REALIZABLE
    assert result.solution.retained == plant.c_edges


def test_marking_unmarks_in_cascade():
    # l1 needs l2 as witness, l2 needs l3, and l3 has none: each round
    # unmarks one more leaf, so no leaf survives
    plant = Plant(
        {"r", "l1", "l2", "l3"},
        "r",
        {("r", "l1"), ("r", "l2"), ("r", "l3")},
        {("l1", "l1"), ("l2", "l2"), ("l3", "l3")},
        {"l1": {"p"}, "l2": {"q"}, "l3": {"s"}},
    )
    f = parse("forall u. exists e. G(p[u] -> q[e]) & G(q[u] -> s[e]) & G(s[u] -> t[e])")
    assert synth_tree_marking(plant, f).verdict is Verdict.UNREALIZABLE
    g = parse("forall u. exists e. G(p[u] -> q[e]) & G(q[u] -> s[e]) & G(s[u] -> s[e])")
    result = synth_tree_marking(plant, g)
    assert result.realizable and result.solution.retained == plant.c_edges


def test_exists_forall_agrees_with_generic():
    rng = random.Random(25)
    for _ in range(120):
        plant = random_tree_plant(rng, max_states=8, max_c_edges=6)
        n_exists = rng.randint(1, 2)
        f = random_prefix_formula(rng, (E,) * n_exists + (A,), budget=5)
        fast = synth_tree_exists_forall(plant, f)
        slow = synth_generic(plant, f)
        assert fast.verdict is slow.verdict
        if fast.realizable:
            pruned = apply_solution(plant, fast.solution)
            assert eval_quantified(f, enumerate_traces(pruned))


def test_marking_agrees_with_generic():
    rng = random.Random(26)
    for _ in range(120):
        plant = random_tree_plant(rng, max_states=8, max_c_edges=6)
        n_exists = rng.randint(1, 2)
        f = random_prefix_formula(rng, (A,) + (E,) * n_exists, budget=5)
        fast = synth_tree_marking(plant, f)
        slow = synth_generic(plant, f)
        assert fast.verdict is slow.verdict
        if fast.realizable:
            pruned = apply_solution(plant, fast.solution)
            assert eval_quantified(f, enumerate_traces(pruned))


def test_marking_matches_bruteforce_on_trees():
    # the marking route, its rounds one fold of the grid among the marked
    # leaves, against the exhaustive oracle; a witness re-checks
    rng = random.Random(34)
    realizable = 0
    for _ in range(150):
        plant = random_tree_plant(rng, max_states=8, max_c_edges=6)
        f = random_prefix_formula(rng, (A,) + (E,) * rng.randint(1, 3), budget=rng.randint(2, 6))
        result = synth_tree_marking(plant, f)
        expected, _ = synth_brute(plant, f)
        assert result.realizable is expected
        if result.realizable:
            realizable += 1
            assert check(apply_solution(plant, result.solution), f).holds
    assert 20 < realizable < 130


def test_dispatch_routes_by_frame_and_fragment():
    rng = random.Random(27)
    tree = random_tree_plant(rng, max_states=6, max_c_edges=4)
    ea = random_prefix_formula(rng, (E, A), budget=4)
    ae = random_prefix_formula(rng, (A, E), budget=4)
    assert dispatch(tree, ea).verdict is synth_tree_exists_forall(tree, ea).verdict
    assert dispatch(tree, ae).verdict is synth_tree_marking(tree, ae).verdict


def test_dispatch_sound_on_realizable():
    rng = random.Random(28)
    for _ in range(50):
        plant = random_tree_plant(rng, max_states=8, max_c_edges=6)
        quants = tuple(rng.choice((E, A)) for _ in range(rng.randint(1, 3)))
        f = random_prefix_formula(rng, quants, budget=5)
        result = dispatch(plant, f)
        if result.realizable:
            pruned = apply_solution(plant, result.solution)
            assert check(pruned, f).holds


class _Unbatched(BodyBatch):
    """A batch of width at most 1: the last variable alone in one int, as
    when no grid covers more of the innermost run."""

    def _width(self, *args) -> int:
        return min(1, super()._width(*args))


class _TupleByTuple(BodyBatch):
    """A batch that never fits, so every caller evaluates tuple by tuple."""

    def _width(self, *args) -> int:
        return 0


def test_batched_routes_match_per_tuple_routes(monkeypatch):
    # every route (generic, universal search, E*A, AE*) on trees and DAGs
    # gives the same verdict and witness with the grid, with a batch of
    # the last variable alone, and tuple by tuple
    rng = random.Random(29)
    cases = []
    for i in range(150):
        grow = random_tree_plant if i % 2 else random_acyclic_plant
        plant = grow(rng, max_states=8, max_c_edges=6)
        quants = rng.choice(
            ((E, A), (E, E, A), (A, E), (A, E, E), (A, A), (A, E, A), (A, A, A))
        )
        cases.append((plant, random_prefix_formula(rng, quants, budget=5)))
    batched = [dispatch(plant, f) for plant, f in cases]
    for narrow in (_Unbatched, _TupleByTuple):
        for module in (hypersynth.semantics, hypersynth.synth):
            monkeypatch.setattr(module, "BodyBatch", narrow)
        assert [dispatch(plant, f) for plant, f in cases] == batched
    assert any(r.realizable for r in batched) and not all(r.realizable for r in batched)


def test_alternating_reduction_folds_the_suffix_in_few_passes(monkeypatch):
    # a QBF of prefix exists-forall-exists reduces to an AAEA sentence; its
    # last three variables share one grid, so the synthesis runs at most
    # one body pass per trace of its outer variable, and one more
    passes = []
    run = hypersynth.semantics._run

    def counted(code, vals, s, n, layout=None):
        passes.append(layout is not None)
        return run(code, vals, s, n, layout)

    monkeypatch.setattr(hypersynth.semantics, "_run", counted)
    rng = random.Random(35)
    done = 0
    while done < 12:
        qbf = random_qbf(rng, num_vars=3, alternations=2)
        inst = qbf_to_instance(qbf)
        assert [q for q, _ in inst.formula.prefix] == [A, A, E, A]
        traces = len(pruned_traces(inst.plant)[0])
        passes.clear()
        result = dispatch(inst.plant, inst.formula)
        assert result.realizable is qbf_brute(qbf)
        assert 0 < sum(passes) <= traces + 1
        done += 1


def test_prunings_judged_in_the_plants_batch_match_fresh_evaluations():
    # random prunings of trees, DAGs and general plants, judged inside one
    # batch over the unpruned plant's traces, its memo shared by all of
    # them, give the verdict and witness (or HorizonExceeded) of a fresh
    # evaluation of the pruning's traces; on general frames those bounded
    # lassos lie among the plant's under the same bounds
    rng = random.Random(31)
    shapes = ((A,), (E,), (A, A), (E, E), (A, E), (E, A), (A, A, A), (E, E, E),
              (A, E, E), (E, A, A), (A, A, E), (E, E, A))
    general = 0
    for i in range(240):
        if i % 3 == 2:
            plant = random_general_plant(rng, max_states=4, c_frac=0.5)
        else:
            grow = random_tree_plant if i % 3 else random_acyclic_plant
            plant = grow(rng, max_states=8, max_c_edges=6)
        f = random_prefix_formula(rng, rng.choice(shapes), budget=rng.randint(2, 6))
        bounds = rng.choice([None, (rng.randint(0, 3), rng.randint(1, 3))])
        horizon = rng.choice([10**6, rng.randint(20, 400)])
        full, exact = pruned_traces(plant, bounds=bounds)
        batch = BodyBatch(f, sort_lassos(full), horizon, {})
        for _ in range(4):
            traces, _ = pruned_traces(plant, random_retained(rng, plant), bounds)
            if not exact:
                assert traces <= full
                general += 1
            assert horizon_outcome(lambda: eval_batch(batch, traces)) == horizon_outcome(
                lambda: eval_quantified_witness(f, traces, horizon)
            )
    assert general > 150


def test_generic_search_depth_follows_choices_not_states():
    # 1085 states, almost all of them choice points with a single
    # controllable edge; the candidate space is only about 2^11.2
    cnf = parse_dimacs("p cnf 90 4\n1 2 3 0\n-1 4 5 0\n90 -2 6 0\n-90 7 -8 0\n")
    inst = threesat_to_instance(cnf)
    assert len(inst.plant.states) == 1085
    assert 11 < candidate_space_bits(inst.plant) < 12
    result = dispatch(inst.plant, inst.formula)
    assert result.verdict is Verdict.REALIZABLE
    assert cnf_satisfied(cnf, decode_assignment(inst, result.solution))


def test_tree_routes_decide_deep_chains():
    # 350 uncontrollable steps, then a controllable choice of two leaves
    depth = 350
    chain = [f"c{i}" for i in range(depth)]
    plant = Plant(
        set(chain) | {"x", "y"},
        "c0",
        {(chain[-1], "x"), (chain[-1], "y"), ("x", "x"), ("y", "y")},
        set(zip(chain, chain[1:])),
        {"x": {"a"}, "y": {"b"}},
    )
    keep_x = frozenset({(chain[-1], "x"), ("x", "x"), ("y", "y")})
    for route, text in (
        (synth_tree_exists_forall, "exists p. forall q. F a[q]"),
        (synth_tree_marking, "forall p. exists q. F a[p] & F a[q]"),
    ):
        f = parse(text)
        result = route(plant, f)
        assert result.verdict is Verdict.REALIZABLE
        assert result.solution.retained == keep_x
        assert synth_generic(plant, f).solution == result.solution
        assert check(apply_solution(plant, result.solution), f).holds
