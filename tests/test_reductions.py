import random
from itertools import product

import pytest

from hypersynth.errors import (
    ArityMismatch,
    DecoderMismatch,
    DimacsError,
    NotHorn,
    PrefixNotExistsLeading,
)
from hypersynth.formula import Quantifier, classify_fragment, FragmentKind
from hypersynth.plant import FrameKind, classify_frame, validate
from hypersynth.reductions import (
    CnfInput,
    QbfInput,
    SynthesisInstance,
    cnf_to_dimacs,
    decode_assignment,
    horn_to_instance,
    normalize_horn,
    parse_dimacs,
    parse_qdimacs,
    qbf_to_instance,
    threesat_to_instance,
)
from hypersynth.synth import ControllerSolution, Verdict, dispatch, synth_generic

from helpers import (
    atomic_propositions,
    cnf_satisfied,
    horn_sat_brute,
    qbf_brute,
    qbf_brute_fixed,
    random_3cnf,
    random_horn_cnf,
    random_qbf,
    sat_brute,
)

E, A = Quantifier.EXISTS, Quantifier.FORALL

SPLIT_EXAMPLE = CnfInput(4, ((-1, -2, -3, 4), (-2, 4), (-1,)))


# --- DIMACS -----------------------------------------------------------------


def test_parse_dimacs():
    cnf = parse_dimacs("c comment\np cnf 4 2\n-1 -2 3 0\n1 2 -4 0\n")
    assert cnf == CnfInput(4, ((-1, -2, 3), (1, 2, -4)))


def test_parse_dimacs_multiline_clause():
    cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert cnf.clauses == ((1, 2, 3),)


def test_parse_dimacs_errors():
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 3 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 5\n1 2 0\n")
    # non-integer or negative problem-line counts, a second problem line,
    # non-integer quantified variables, quantified variables outside
    # 1..num_vars; QDIMACS with a clause count other than the header's, a
    # clause before the problem line, a quantifier line after a clause, a
    # quantifier line without a variable
    for read, text in [
        (parse_dimacs, "p cnf x 1\n1 0\n"),
        (parse_dimacs, "p cnf -1 0\n"),
        (parse_dimacs, "p cnf 3 1\n1 2 3 0\np cnf 5 1\n"),
        (parse_qdimacs, "p cnf 3 1\ne 1 2 3 0\n1 2 3 0\np cnf 3 1\n"),
        (parse_qdimacs, "p cnf 2 x\ne 1 0\n"),
        (parse_qdimacs, "p cnf -2 0\ne 1 0\n"),
        (parse_qdimacs, "p cnf 1 1\ne 1 x 0\n1 0\n"),
        (parse_qdimacs, "p cnf 2 1\ne 1 0\na 0 2 0\n1 2 0\n"),
        (parse_qdimacs, "p cnf 2 1\ne 1 -2 0\n1 2 0\n"),
        (parse_qdimacs, "p cnf 2 1\ne 1 2 3 0\n1 2 0\n"),
        (parse_qdimacs, "p cnf 3 1\ne 1 2 3 0\n1 2 3 0\n-1 2 3 0\n"),
        (parse_qdimacs, "p cnf 3 2\ne 1 2 3 0\n1 2 3 0\n"),
        (parse_qdimacs, "1 2 3 0\np cnf 3 1\ne 1 2 3 0\n"),
        (parse_qdimacs, "e 1 2 3 0\np cnf 3 1\n1 2 3 0\n"),
        (parse_qdimacs, "p cnf 3 1\n1 2 3 0\ne 1 2 3 0\n"),
        (parse_qdimacs, "p cnf 3 2\ne 1 0\n1 2 3 0\na 2 3 0\n-1 2 3 0\n"),
        (parse_qdimacs, "p cnf 3 1\ne 0\ne 1 2 3 0\n1 2 3 0\n"),
    ]:
        with pytest.raises(DimacsError):
            read(text)


def test_parse_qdimacs():
    qbf = parse_qdimacs("p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 -2 3 0\n-1 2 -3 0\n")
    assert qbf.prefix == ((E, 1), (A, 2), (E, 3))
    assert qbf.clauses == ((1, -2, 3), (-1, 2, -3))


def test_parse_qdimacs_requires_coverage():
    with pytest.raises(DimacsError):
        parse_qdimacs("p cnf 3 1\ne 1 2 0\n1 2 3 0\n")


def test_cnf_round_trip():
    cnf = CnfInput(3, ((1, -2, 3), (-3, -1, 2)))
    assert parse_dimacs(cnf_to_dimacs(cnf)) == cnf


# --- HORN normalization -------------------------------------------------------


def test_normalize_reproduces_splitting_example():
    norm = normalize_horn(SPLIT_EXAMPLE)
    # fresh split variable is 5, bot 6, top 7
    assert norm.clauses == ((-1, -2, 5), (-3, -5, 4), (-2, -2, 4), (-1, -1, 6))
    assert (norm.bot, norm.top, norm.num_vars) == (6, 7, 7)


def test_normalize_rejects_non_horn():
    with pytest.raises(NotHorn):
        normalize_horn(CnfInput(2, ((1, 2),)))


def test_normalize_idempotent():
    norm = normalize_horn(SPLIT_EXAMPLE)
    assert normalize_horn(norm) is norm


def test_normalize_already_normal_unchanged():
    cnf = CnfInput(3, ((-1, -2, 3),))
    norm = normalize_horn(cnf)
    assert norm.clauses == ((-1, -2, 3),)
    assert norm.num_original == 3


def test_normalize_empty_clause():
    norm = normalize_horn(CnfInput(1, ((),)))
    # empty clause becomes (!top | !top | bot): unsatisfiable by the side
    # conditions
    assert norm.clauses == ((-norm.top, -norm.top, norm.bot),)
    assert not horn_sat_brute(norm)


def test_normalize_preserves_satisfiability_exhaustively():
    # all Horn formulas over <= 3 variables with <= 3 clauses drawn from
    # clauses with <= 2 negative literals
    variables = (1, 2, 3)
    clause_pool = []
    for npos in (0, 1):
        for pos in ([()] if npos == 0 else [(v,) for v in variables]):
            for negs in [
                (),
                *[(a,) for a in variables],
                *[(a, b) for a in variables for b in variables if a <= b],
            ]:
                clause = tuple(pos) + tuple(-v for v in negs)
                if clause:
                    clause_pool.append(clause)
    rng = random.Random(1)
    picks = [rng.sample(clause_pool, rng.randint(1, 3)) for _ in range(250)]
    for clauses in picks:
        cnf = CnfInput(3, tuple(tuple(c) for c in clauses))
        norm = normalize_horn(cnf)

        def plain_sat(c: CnfInput) -> bool:
            for bits in product((False, True), repeat=c.num_vars):
                asg = {v: bits[v - 1] for v in range(1, c.num_vars + 1)}
                if cnf_satisfied(c, asg):
                    return True
            return False

        assert horn_sat_brute(norm) == plain_sat(cnf)


# --- HORN instance --------------------------------------------------------------


def test_horn_instance_structure():
    norm = normalize_horn(SPLIT_EXAMPLE)
    inst = horn_to_instance(norm)
    validate(inst.plant)
    assert classify_frame(inst.plant) is FrameKind.TREE
    # v states exist for every encodable variable except top; the three
    # positively-occurring ones (f, x4, bot) are v5, v4, v0
    v_states = {s for s in inst.plant.states if s.startswith("v")}
    assert {"v0", "v4", "v5"} <= v_states
    # the clause branch of (!x3 | !f | x4) hangs under v4 alongside the
    # branch of (!x2 | !x2 | x4)
    under_v4 = {b for (a, b) in inst.plant.u_edges if a == "v4"}
    assert len(under_v4) == 3  # two clause branches + the identity branch
    # branch width is ceil(log2 7) = 3
    b_states = [s for s in inst.plant.states if s.startswith("b1_")]
    assert len(b_states) == 3


def test_horn_branch_labels_follow_bit_encoding():
    norm = normalize_horn(SPLIT_EXAMPLE)
    inst = horn_to_instance(norm)
    # first clause (!x1 | !x2 | f): n1=1 -> bits 100, n2=2 -> 010, p=5 -> 101
    lab = inst.plant.labeling
    assert lab["b1_0"] == frozenset({"neg1", "pos"})
    assert lab["b1_1"] == frozenset({"neg2"})
    assert lab["b1_2"] == frozenset({"pos"})


def test_horn_fragment_routes_to_marking():
    inst = horn_to_instance(normalize_horn(SPLIT_EXAMPLE))
    assert classify_fragment(inst.formula).kind is FragmentKind.A_E_STAR


def test_horn_end_to_end_splitting_example():
    norm = normalize_horn(SPLIT_EXAMPLE)
    inst = horn_to_instance(norm)
    result = dispatch(inst.plant, inst.formula)
    assert result.verdict is Verdict.REALIZABLE
    decoded = decode_assignment(inst, result.solution)
    assert cnf_satisfied(norm, decoded)
    assert decoded[norm.bot] is False and decoded[norm.top] is True


def test_horn_unsat_side_condition_clause():
    # (!top | !top | bot) alone is unsatisfiable under the side conditions
    norm = normalize_horn(CnfInput(1, ((1,), (-1,))))
    inst = horn_to_instance(norm)
    assert dispatch(inst.plant, inst.formula).verdict is Verdict.UNREALIZABLE


def test_horn_realizability_matches_oracle_randomized():
    rng = random.Random(33)
    for _ in range(80):
        cnf = random_horn_cnf(rng, max_vars=3, max_clauses=3)
        norm = normalize_horn(cnf)
        inst = horn_to_instance(norm)
        result = dispatch(inst.plant, inst.formula)
        assert result.realizable == horn_sat_brute(norm), cnf
        if result.realizable:
            assert cnf_satisfied(norm, decode_assignment(inst, result.solution))


# --- 3SAT ------------------------------------------------------------------------


def test_threesat_structure_fig4():
    cnf = CnfInput(4, ((-1, -2, 3), (1, 2, -4)))
    inst = threesat_to_instance(cnf)
    validate(inst.plant)
    assert classify_frame(inst.plant) is FrameKind.TREE
    # uncontrollable clause roots
    assert ("init", "r1") in inst.plant.u_edges
    assert ("init", "r2") in inst.plant.u_edges
    lab = inst.plant.labeling
    # clause 1 = (!x1 | !x2 | x3): slots 0,1 negative at positions 1,2;
    # slot 2 positive at position 3
    assert lab["v1_0_1"] == frozenset({"neg"})
    assert lab["v1_1_2"] == frozenset({"neg"})
    assert lab["v1_2_3"] == frozenset({"pos"})
    # clause 2 = (x1 | x2 | !x4)
    assert lab["v2_0_1"] == frozenset({"pos"})
    assert lab["v2_1_2"] == frozenset({"pos"})
    assert lab["v2_2_4"] == frozenset({"neg"})


def test_threesat_rejects_wrong_arity():
    with pytest.raises(ArityMismatch):
        threesat_to_instance(CnfInput(2, ((1, 2),)))


def test_threesat_fig4_realizable_and_decodes():
    cnf = CnfInput(4, ((-1, -2, 3), (1, 2, -4)))
    inst = threesat_to_instance(cnf)
    result = dispatch(inst.plant, inst.formula)
    assert result.verdict is Verdict.REALIZABLE
    decoded = decode_assignment(inst, result.solution)
    assert cnf_satisfied(cnf, decoded)
    # the caption's assignment is one admissible witness; any decoded
    # witness must at least agree with it on satisfying the formula
    caption = {1: True, 2: False, 3: False, 4: False}
    assert cnf_satisfied(cnf, caption)


def test_threesat_unsat():
    cnf = CnfInput(1, ((1, 1, 1), (-1, -1, -1)))
    inst = threesat_to_instance(cnf)
    assert dispatch(inst.plant, inst.formula).verdict is Verdict.UNREALIZABLE


def test_threesat_repeated_literals_allowed():
    cnf = CnfInput(2, ((1, 1, -2),))
    inst = threesat_to_instance(cnf)
    assert dispatch(inst.plant, inst.formula).realizable == sat_brute(cnf)


def test_threesat_matches_oracle_randomized():
    rng = random.Random(34)
    for _ in range(80):
        cnf = random_3cnf(rng, rng.randint(1, 4), rng.randint(1, 3))
        inst = threesat_to_instance(cnf)
        result = dispatch(inst.plant, inst.formula)
        assert result.realizable == sat_brute(cnf), cnf
        if result.realizable:
            assert cnf_satisfied(cnf, decode_assignment(inst, result.solution))


# --- QBF --------------------------------------------------------------------------


FIG5 = QbfInput(
    prefix=((E, 1), (A, 2), (E, 3)),
    clauses=((1, -2, 3), (-1, 2, -3)),
)


def test_qbf_requires_exists_leading():
    with pytest.raises(PrefixNotExistsLeading):
        qbf_to_instance(QbfInput(((A, 1), (E, 2), (E, 3)), ((1, 2, 3),)))


def test_qbf_rejects_repeated_variables_in_clause():
    with pytest.raises(ArityMismatch):
        QbfInput(((E, 1), (E, 2), (E, 3)), ((1, -1, 2),))


def test_qbf_structure_fig5():
    inst = qbf_to_instance(FIG5)
    validate(inst.plant)
    assert classify_frame(inst.plant) is FrameKind.ACYCLIC
    props = atomic_propositions(inst.plant)
    assert {"q1", "q2", "q3", "c", "p", "pbar"} <= props
    # clause roots are uncontrollable and carry c
    assert ("init", "r1") in inst.plant.u_edges
    assert inst.plant.labeling["r1"] == frozenset({"c"})
    # valuation diamond: only the leading existential block is controllable
    assert ("r0", "s1") in inst.plant.c_edges
    assert ("r0", "sb1") in inst.plant.c_edges
    assert ("sh1", "s2") in inst.plant.u_edges
    assert ("s1", "sh1") in inst.plant.u_edges
    # depth labels: x1 depth 1, x2 depth 2, x3 depth 3
    assert inst.plant.labeling["s1"] == frozenset({"p", "q1"})
    assert inst.plant.labeling["sb2"] == frozenset({"pbar", "q2"})
    assert inst.plant.labeling["s3"] == frozenset({"p", "q3"})


def test_qbf_formula_prefix_shape():
    inst = qbf_to_instance(FIG5)
    quants = [q for q, _ in inst.formula.prefix]
    # depth-1 trace is universal (resolved by synthesis), then the original
    # forall block, the existential block, and the universal clause trace
    assert quants == [A, A, E, A]


def test_qbf_fig5_realizable():
    inst = qbf_to_instance(FIG5)
    assert qbf_brute(FIG5)
    result = dispatch(inst.plant, inst.formula)
    assert result.verdict is Verdict.REALIZABLE
    decoded = decode_assignment(inst, result.solution)
    assert qbf_brute_fixed(FIG5, decoded)


def test_qbf_unsat_instance():
    qbf = QbfInput(
        prefix=((E, 1), (E, 2), (E, 3)),
        clauses=((1, 2, 3), (-1, 2, 3), (1, -2, 3), (1, 2, -3),
                 (-1, -2, 3), (-1, 2, -3), (1, -2, -3), (-1, -2, -3)),
    )
    assert not qbf_brute(qbf)
    inst = qbf_to_instance(qbf)
    assert dispatch(inst.plant, inst.formula).verdict is Verdict.UNREALIZABLE


def test_qbf_matches_oracle_randomized():
    rng = random.Random(35)
    for _ in range(25):
        qbf = random_qbf(rng, num_vars=rng.randint(3, 4), alternations=rng.choice((1, 2)))
        inst = qbf_to_instance(qbf)
        result = dispatch(inst.plant, inst.formula)
        assert result.realizable == qbf_brute(qbf), qbf
        if result.realizable:
            assert qbf_brute_fixed(qbf, decode_assignment(inst, result.solution))


# --- decoding ----------------------------------------------------------------------


def test_decode_requires_known_kind(fig1_plant):
    inst = SynthesisInstance(fig1_plant, None, {"kind": "mystery"})
    with pytest.raises(DecoderMismatch):
        decode_assignment(inst, ControllerSolution(fig1_plant.c_edges))


def test_decode_total_on_unchecked_solutions():
    # decoding is defined even when the full plant fails the formula
    cnf = CnfInput(1, ((1, 1, 1), (-1, -1, -1)))
    inst = threesat_to_instance(cnf)
    decoded = decode_assignment(inst, ControllerSolution(inst.plant.c_edges))
    assert set(decoded) == {1}


def test_horn_generic_engine_agrees_with_marking():
    rng = random.Random(36)
    for _ in range(25):
        cnf = random_horn_cnf(rng, max_vars=2, max_clauses=3)
        inst = horn_to_instance(normalize_horn(cnf))
        assert (
            dispatch(inst.plant, inst.formula).verdict
            is synth_generic(inst.plant, inst.formula).verdict
        )


def test_threesat_white_branch_pruning_satisfies_formula():
    # keep exactly the chains of literals satisfied by x1=T x2=F x3=F x4=F:
    # clause 1 keeps its second literal (!x2), clause 2 keeps the first
    # (x1) and third (!x4); the remaining branches are pruned
    cnf = CnfInput(4, ((-1, -2, 3), (1, 2, -4)))
    inst = threesat_to_instance(cnf)
    losing_heads = {("r1", "v1_0_1"), ("r1", "v1_2_1"), ("r2", "v2_1_1")}
    retained = inst.plant.c_edges - losing_heads
    from hypersynth.plant import enumerate_traces
    from hypersynth.semantics import eval_quantified
    from hypersynth.synth import apply_solution

    pruned = apply_solution(inst.plant, ControllerSolution(retained))
    assert eval_quantified(inst.formula, enumerate_traces(pruned))
    decoded = decode_assignment(inst, ControllerSolution(retained))
    assert decoded == {1: True, 2: False, 3: False, 4: False}


def test_horn_instance_requires_normalized_input():
    from hypersynth.errors import NotNormalized

    with pytest.raises(NotNormalized):
        horn_to_instance(CnfInput(2, ((-1, -2, 2),)))
