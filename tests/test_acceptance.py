"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and enforcing its runtime budget.

Criteria (budgets in parentheses):
  1. four-state regression: frame, trace count, two check verdicts (1 s)
  2. 3SAT reduction, exhaustive over all 3-variable CNFs with <= 3
     clauses: realizable iff satisfiable, decodes satisfy (5 min)
  3. HORN reduction vs brute-force oracle under the bot/top side
     conditions; the splitting example normalizes verbatim (5 min).
     The four-variable/four-clause space is sampled (seeded, 1800
     instances) plus an exhaustive two-variable sweep: full enumeration
     of that space is billions of instances and no budget covers it.
  4. QBF reduction, >= 200 random exists-leading instances (<= 5
     variables, <= 3 clauses, 1-2 alternations) plus the worked
     three-variable example: realizable iff true (10 min)
  5. specialized tree algorithms agree with exhaustive subset search on
     500 random tree plants x (E*A and AE*) formulas (10 min)
  6. existential-fragment identity (witness = full plant) and the
     all-uncontrollable degeneration to model checking (5 min)
  7. non-repudiation case study: reference strategies classify as
     expected, synthesis succeeds and its witness re-checks (10 min)
  8. semantics oracles: lasso evaluation vs truncation oracle, quantifier
     duality, negation normal form (2 min)
"""

import math
import random
import time
from itertools import combinations_with_replacement

from hypersynth.formula import Formula, Not, Quantifier
from hypersynth.nrp import (
    STRATEGIES,
    build_plant,
    consistency_formula,
    curated_config,
    effectiveness_fairness_formula,
    encode_strategy,
)
from hypersynth.parser import parse
from hypersynth.plant import FrameKind, classify_frame, enumerate_traces
from hypersynth.reductions import (
    CnfInput,
    decode_assignment,
    horn_to_instance,
    normalize_horn,
    qbf_to_instance,
    threesat_to_instance,
)
from hypersynth.semantics import check, eval_body, eval_quantified
from hypersynth.synth import (
    Verdict,
    apply_solution,
    dispatch,
    synth_tree_exists_forall,
    synth_tree_marking,
)

from helpers import (
    cnf_satisfied,
    horn_sat_brute,
    naive_eval,
    qbf_brute,
    qbf_brute_fixed,
    random_body,
    random_horn_cnf,
    random_lasso,
    random_acyclic_plant,
    random_general_plant,
    random_prefix_formula,
    random_qbf,
    random_tree_plant,
    sat_brute,
    subformula_count,
    synth_brute,
)

E, A = Quantifier.EXISTS, Quantifier.FORALL


def _finish(criterion: int, started: float, limit: float, detail: str) -> None:
    elapsed = time.time() - started
    ok = elapsed < limit
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} "
          f"{detail} ({elapsed:.1f}s, budget {limit:.0f}s)")
    assert ok, f"criterion {criterion} exceeded its {limit:.0f}s budget"


def test_criterion_1_four_state_regression(fig1_plant):
    started = time.time()
    assert classify_frame(fig1_plant) is FrameKind.ACYCLIC
    assert len(enumerate_traces(fig1_plant)) == 2
    assert check(fig1_plant, parse("exists p. F b[p]")).holds
    assert not check(fig1_plant, parse("forall p. forall q. G(a[p] <-> a[q])")).holds
    _finish(1, started, 1.0, "frame, traces, and both check verdicts")


def test_criterion_2_threesat_exhaustive():
    started = time.time()
    lits = (-3, -2, -1, 1, 2, 3)
    clause_pool = list(combinations_with_replacement(lits, 3))
    count = 0
    for m in (1, 2, 3):
        for clauses in combinations_with_replacement(clause_pool, m):
            cnf = CnfInput(3, tuple(clauses))
            inst = threesat_to_instance(cnf)
            result = dispatch(inst.plant, inst.formula)
            assert result.realizable == sat_brute(cnf), cnf
            if result.realizable:
                decoded = decode_assignment(inst, result.solution)
                assert cnf_satisfied(cnf, decoded), cnf
            count += 1
    # the worked two-clause example: realizable, and its decoded witness
    # satisfies the CNF (x1=T x2=F x3=F x4=F is one admissible witness)
    fig4 = CnfInput(4, ((-1, -2, 3), (1, 2, -4)))
    inst = threesat_to_instance(fig4)
    result = dispatch(inst.plant, inst.formula)
    assert result.verdict is Verdict.REALIZABLE
    assert cnf_satisfied(fig4, decode_assignment(inst, result.solution))
    assert cnf_satisfied(fig4, {1: True, 2: False, 3: False, 4: False})
    _finish(2, started, 300.0, f"{count} CNFs exhaustively + worked example")


def test_criterion_3_horn_vs_oracle():
    started = time.time()
    # the splitting example reproduces verbatim
    norm = normalize_horn(CnfInput(4, ((-1, -2, -3, 4), (-2, 4), (-1,))))
    assert norm.clauses == ((-1, -2, 5), (-3, -5, 4), (-2, -2, 4), (-1, -1, 6))

    def run(cnf: CnfInput) -> None:
        local = normalize_horn(cnf)
        inst = horn_to_instance(local)
        result = dispatch(inst.plant, inst.formula)
        assert result.realizable == horn_sat_brute(local), cnf
        if result.realizable:
            decoded = decode_assignment(inst, result.solution)
            assert cnf_satisfied(local, decoded), cnf
            assert decoded[local.bot] is False and decoded[local.top] is True

    # exhaustive over two variables, <= 2 clauses, clauses of <= 3 literals
    pool = []
    for pos in ((), (1,), (2,)):
        for negs in ((), (1,), (2,), (1, 1), (1, 2), (2, 2)):
            clause = tuple(pos) + tuple(-v for v in negs)
            if clause:
                pool.append(clause)
    exhaustive = 0
    for m in (1, 2):
        for clauses in combinations_with_replacement(pool, m):
            run(CnfInput(2, tuple(clauses)))
            exhaustive += 1
    # seeded sample of the four-variable, four-clause space
    rng = random.Random(20240811)
    sampled = 1800
    for _ in range(sampled):
        run(random_horn_cnf(rng, max_vars=4, max_clauses=4))
    _finish(3, started, 300.0,
            f"{exhaustive} exhaustive + {sampled} sampled Horn CNFs")


def test_criterion_4_qbf_vs_oracle():
    started = time.time()
    from hypersynth.reductions import QbfInput

    fig5 = QbfInput(
        prefix=((E, 1), (A, 2), (E, 3)),
        clauses=((1, -2, 3), (-1, 2, -3)),
    )
    inst = qbf_to_instance(fig5)
    result = dispatch(inst.plant, inst.formula)
    assert result.verdict is Verdict.REALIZABLE and qbf_brute(fig5)

    rng = random.Random(20240812)
    schedule = [(3, 1), (3, 2), (4, 1), (3, 2), (4, 2), (5, 1)] * 33 + [(5, 2)] * 10
    count = 0
    for num_vars, alternations in schedule:
        qbf = random_qbf(rng, num_vars=num_vars, alternations=alternations)
        inst = qbf_to_instance(qbf)
        result = dispatch(inst.plant, inst.formula)
        assert result.realizable == qbf_brute(qbf), qbf
        if result.realizable:
            decoded = decode_assignment(inst, result.solution)
            assert qbf_brute_fixed(qbf, decoded), qbf
        count += 1
    assert count >= 200
    _finish(4, started, 600.0, f"{count} random QBFs + worked example")


def test_criterion_5_specialized_vs_bruteforce():
    started = time.time()
    rng = random.Random(20240813)
    plants = 0
    for _ in range(500):
        plant = random_tree_plant(rng, max_states=10, max_c_edges=8)
        n_exists = rng.randint(1, 2)
        ea = random_prefix_formula(rng, (E,) * n_exists + (A,), budget=6)
        ae = random_prefix_formula(rng, (A,) + (E,) * n_exists, budget=6)
        expected_ea, _ = synth_brute(plant, ea)
        expected_ae, _ = synth_brute(plant, ae)
        assert synth_tree_exists_forall(plant, ea).realizable == expected_ea
        assert synth_tree_marking(plant, ae).realizable == expected_ae
        plants += 1
    _finish(5, started, 600.0, f"{plants} tree plants, zero disagreements")


def test_criterion_6_existential_and_degenerate_identities():
    started = time.time()
    rng = random.Random(20240814)
    for _ in range(200):
        plant = random_acyclic_plant(rng, max_states=8, max_c_edges=8)
        f = random_prefix_formula(rng, (E,) * rng.randint(1, 3), budget=5)
        result = dispatch(plant, f)
        holds = check(plant, f).holds
        assert result.realizable == holds
        if result.realizable:
            assert result.solution.retained == plant.c_edges
    for i in range(200):
        plant = random_general_plant(rng, max_states=5)
        quants = tuple(rng.choice((E, A)) for _ in range(rng.randint(1, 3)))
        f = random_prefix_formula(rng, quants, budget=5)
        # shared explicit bounds keep general-frame lasso sets desk-sized;
        # dispatch and check must agree whatever the bounds are
        bounds = (2, 2) if i % 2 else (3, 2)
        result = dispatch(plant, f, bounds=bounds)
        checked = check(plant, f, bounds=bounds)
        if checked.exact:
            expected = Verdict.REALIZABLE if checked.holds else Verdict.UNREALIZABLE
        else:
            expected = Verdict.REALIZABLE if checked.holds else Verdict.BOUNDED_UNKNOWN
        assert result.verdict is expected
    _finish(6, started, 300.0, "200 E* identities + 200 all-uncontrollable plants")


def test_criterion_7_case_study():
    started = time.time()
    plant = build_plant(curated_config())
    phi = effectiveness_fairness_formula()
    cons = consistency_formula()
    outcomes = {}
    for name, strategy in STRATEGIES.items():
        pruned = apply_solution(plant, encode_strategy(plant, strategy))
        outcomes[name] = (check(pruned, phi).holds, check(pruned, cons).holds)
    assert outcomes["correct"][0] is True
    assert outcomes["incorrect"][0] is False
    assert outcomes["strange"] == (True, False)
    result = dispatch(plant, phi)
    assert result.verdict is Verdict.REALIZABLE
    assert check(apply_solution(plant, result.solution), phi).holds
    _finish(7, started, 600.0,
            "strategy classification, synthesis, and witness recheck")


def test_criterion_8_semantics_oracles():
    started = time.time()
    rng = random.Random(20240815)
    conclusive = 0
    for _ in range(1000):
        body = random_body(rng, ("p", "q"), budget=8)
        asg = {"p": random_lasso(rng), "q": random_lasso(rng)}
        s_star = max(len(l.stem) for l in asg.values())
        p_star = 1
        for lasso in asg.values():
            p_star = p_star * len(lasso.loop) // math.gcd(p_star, len(lasso.loop))
        horizon = s_star + p_star * (subformula_count(body) + 2)
        expected = naive_eval(body, asg, horizon)
        if expected is not None:
            conclusive += 1
            assert eval_body(body, asg) == expected
    assert conclusive >= 500
    for _ in range(250):
        traces = {random_lasso(rng) for _ in range(rng.randint(1, 4))}
        body = random_body(rng, ("t0",), budget=6)
        forall = Formula(((A, "t0"),), body)
        exists_neg = Formula(((E, "t0"),), Not(body))
        assert eval_quantified(forall, traces) == (
            not eval_quantified(exists_neg, traces)
        )
    from hypersynth.formula import desugar, negate_nnf

    for _ in range(250):
        body = desugar(random_body(rng, ("p", "q"), budget=7))
        asg = {"p": random_lasso(rng), "q": random_lasso(rng)}
        assert eval_body(negate_nnf(body), asg) == (not eval_body(body, asg))
    _finish(8, started, 120.0,
            f"1000 oracle pairs ({conclusive} conclusive), duality, NNF")
