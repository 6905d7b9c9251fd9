import gc
import random

import pytest

from hypersynth.errors import ConfigInvalid, PartialStrategy
from hypersynth.formula import FragmentKind, classify_fragment, free_vars
from hypersynth.nrp import (
    ACT_A,
    ACT_B,
    ACT_T,
    ProtocolConfig,
    STRATEGIES,
    build_plant,
    combined_objective_formula,
    config_from_dict,
    config_to_dict,
    consistency_formula,
    curated_config,
    effectiveness_fairness_formula,
    encode_strategy,
    turn_of_depth,
)
from hypersynth.parser import parse, print_formula
from hypersynth.plant import FrameKind, classify_frame, enumerate_traces, validate
from hypersynth.semantics import check
from hypersynth.synth import apply_solution

from helpers import build_plant_reference, lasso_prefix, random_protocol_config, successors


def full_config(rounds: int) -> ProtocolConfig:
    return ProtocolConfig(
        rounds=rounds,
        a_actions=tuple(frozenset(ACT_A) for _ in range(rounds)),
        t_actions=tuple(frozenset(ACT_T) for _ in range(rounds)),
        b_actions=tuple(frozenset(ACT_B) for _ in range(rounds)),
    )


def skip_config(rounds: int) -> ProtocolConfig:
    empty = tuple(frozenset() for _ in range(rounds))
    return ProtocolConfig(rounds, empty, empty, empty)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        ProtocolConfig(0, (), (), ())
    with pytest.raises(ConfigInvalid):
        ProtocolConfig(1, (frozenset({"bogus"}),), (frozenset(),), (frozenset(),))
    with pytest.raises(ConfigInvalid):
        ProtocolConfig(2, (frozenset(),), (frozenset(), frozenset()),
                       (frozenset(), frozenset()))


def test_config_round_trips_through_json_dict():
    cfg = curated_config()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_full_one_round_tree_has_sixty_leaves():
    plant = build_plant(full_config(1))
    validate(plant)
    leaves = [s for s in plant.states if successors(plant, s) == [s]]
    assert len(leaves) == 5 * 4 * 3


def test_all_skip_config_is_a_chain():
    plant = build_plant(skip_config(2))
    assert len(plant.states) == 7  # root + 6 skip states
    traces = enumerate_traces(plant)
    assert len(traces) == 1
    (trace,) = traces
    word = lasso_prefix(trace, 8)
    assert all(not ({"m", "nro", "nrr"} & set(l)) for l in word)


def test_build_plant_always_tree():
    for cfg in (curated_config(), full_config(1), skip_config(3)):
        assert classify_frame(build_plant(cfg)) is FrameKind.TREE


def test_build_plant_matches_depth_first_reference():
    configs = [curated_config(), full_config(1), full_config(2), skip_config(1), skip_config(3)]
    rng = random.Random(15)
    configs += [random_protocol_config(rng) for _ in range(300)]
    for cfg in configs:
        assert build_plant(cfg) == build_plant_reference(cfg), cfg


def test_formulas_are_built_once():
    for make in (effectiveness_fairness_formula, consistency_formula, combined_objective_formula):
        assert make() is make()


def test_status_propositions_are_monotone():
    plant = build_plant(curated_config())
    for trace in enumerate_traces(plant):
        word = lasso_prefix(trace, len(trace.stem) + 1)
        for status in ("m", "nro", "nrr"):
            seen = False
            for letter in word:
                if status in letter:
                    seen = True
                elif seen:
                    pytest.fail(f"{status} dropped along a trace")


def test_controllability_partition():
    plant = build_plant(curated_config())
    terminals = {s for s in plant.states if successors(plant, s) == [s]}
    for a, b in plant.c_edges:
        depth = a.count("/")
        assert turn_of_depth(depth) == "T" or (a == b and a in terminals)
    for a, b in plant.u_edges:
        assert turn_of_depth(a.count("/")) != "T"
    # and every T-turn state's outgoing edges are all controllable
    for a, b in plant.edges:
        if turn_of_depth(a.count("/")) == "T" and a not in terminals:
            assert (a, b) in plant.c_edges


def test_formula_shapes():
    phi = effectiveness_fairness_formula()
    cons = consistency_formula()
    both = combined_objective_formula()
    assert classify_fragment(phi).kind is FragmentKind.E_STAR_A
    assert classify_fragment(cons).kind is FragmentKind.A_STAR
    assert classify_fragment(both).kind is FragmentKind.EA
    assert free_vars(phi.body) == {"pi", "pi2"}
    for f in (phi, cons, both):
        assert parse(print_formula(f)) == f


def test_consistency_holds_when_t_always_skips():
    plant = build_plant(skip_config(2))
    assert check(plant, consistency_formula()).holds


def test_strategies_on_curated_config():
    plant = build_plant(curated_config())
    phi = effectiveness_fairness_formula()
    cons = consistency_formula()
    expectations = {
        "correct": (True, True),
        "incorrect": (False, True),
        "strange": (True, False),
    }
    for name, (phi_ok, cons_ok) in expectations.items():
        pruned = apply_solution(plant, encode_strategy(plant, STRATEGIES[name]))
        assert check(pruned, phi).holds is phi_ok, name
        assert check(pruned, cons).holds is cons_ok, name


def test_strategy_retains_one_edge_per_t_state():
    plant = build_plant(curated_config())
    sol = encode_strategy(plant, STRATEGIES["correct"])
    terminals = {s for s in plant.states if successors(plant, s) == [s]}
    by_state: dict[str, int] = {}
    for a, _ in sol.retained:
        by_state[a] = by_state.get(a, 0) + 1
    for state, count in by_state.items():
        assert count == 1
        assert state in terminals or turn_of_depth(state.count("/")) == "T"


def test_partial_strategy_detected():
    plant = build_plant(curated_config())

    def stubborn(history, available):
        return "t2b_m"  # not offered in round one

    with pytest.raises(PartialStrategy):
        encode_strategy(plant, stubborn)


def test_synthesized_witness_covers_correct_strategy():
    from hypersynth.synth import dispatch

    plant = build_plant(curated_config())
    result = dispatch(plant, effectiveness_fairness_formula())
    assert result.realizable
    witness_traces = enumerate_traces(apply_solution(plant, result.solution))
    correct_traces = enumerate_traces(
        apply_solution(plant, encode_strategy(plant, STRATEGIES["correct"]))
    )
    assert correct_traces <= witness_traces


def test_build_plant_leaves_no_reference_cycles():
    build_plant(curated_config())  # first calls may fill interpreter-level caches
    gc.collect()
    gc.disable()
    try:
        build_plant(curated_config())
        assert gc.collect() == 0
    finally:
        gc.enable()
