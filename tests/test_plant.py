import json
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersynth.errors import (
    DanglingReference,
    DeadlockState,
    NotAcyclic,
    OverlappingEdge,
    PlantFormatError,
)
from hypersynth.plant import (
    FrameKind,
    Lasso,
    Plant,
    canonical,
    classify_frame,
    default_bounds,
    dump_plant,
    enumerate_lassos,
    enumerate_traces,
    lasso_equal,
    load_plant,
    pruned_traces,
    sort_lassos,
    to_dot,
    validate,
)
from hypersynth.synth import ControllerSolution, apply_solution

from helpers import (
    bounded_lassos_reference,
    classify_frame_reference,
    lasso_sort_key,
    lasso_suffix,
    letter_at,
    plant_to_dict,
    random_acyclic_plant,
    random_general_plant,
    random_lasso,
    random_retained,
    random_tree_plant,
    successors,
    unroll_equal,
)


def letter(*props):
    return frozenset(props)


def test_fig1_is_valid(fig1_plant):
    validate(fig1_plant)


def test_single_state_self_loop_valid():
    plant = Plant({"s"}, "s", {("s", "s")}, set(), {"s": {"a"}})
    validate(plant)


def test_deadlock_detected():
    plant = Plant({"s0", "s1"}, "s0", {("s0", "s1")}, set(), {})
    with pytest.raises(DeadlockState) as err:
        validate(plant)
    assert err.value.state == "s1"


def test_overlapping_edge_detected():
    plant = Plant({"s"}, "s", {("s", "s")}, {("s", "s")}, {})
    with pytest.raises(OverlappingEdge):
        validate(plant)


def test_dangling_references_detected():
    with pytest.raises(DanglingReference):
        validate(Plant({"s"}, "missing", {("s", "s")}, set(), {}))
    with pytest.raises(DanglingReference):
        validate(Plant({"s"}, "s", {("s", "t")}, set(), {}))
    with pytest.raises(DanglingReference):
        validate(Plant({"s"}, "s", {("s", "s")}, set(), {"t": {"a"}}))


def test_fig1_classifies_acyclic(fig1_plant):
    # s3 has two predecessors, so the frame is acyclic but not a tree
    assert classify_frame(fig1_plant) is FrameKind.ACYCLIC


def test_single_self_loop_classifies_tree():
    plant = Plant({"s"}, "s", {("s", "s")}, set(), {"s": {"a"}})
    assert classify_frame(plant) is FrameKind.TREE


def test_mutual_edges_classify_general():
    plant = Plant({"s0", "s1"}, "s0", {("s0", "s1"), ("s1", "s0")}, set(), {})
    assert classify_frame(plant) is FrameKind.GENERAL


def test_non_terminal_self_loop_is_general():
    plant = Plant(
        {"s0", "s1"}, "s0", {("s0", "s0"), ("s0", "s1"), ("s1", "s1")}, set(), {}
    )
    assert classify_frame(plant) is FrameKind.GENERAL


def test_proper_tree_classifies_tree():
    plant = Plant(
        states={"r", "x", "y"},
        init="r",
        c_edges={("r", "x"), ("r", "y"), ("x", "x"), ("y", "y")},
        u_edges=set(),
        labeling={},
    )
    assert classify_frame(plant) is FrameKind.TREE


def test_adding_edge_never_upgrades_frame():
    # monotonicity: adding an edge cannot move general->acyclic or
    # acyclic->tree
    rng = random.Random(3)
    order = {FrameKind.TREE: 2, FrameKind.ACYCLIC: 1, FrameKind.GENERAL: 0}
    for _ in range(60):
        from helpers import random_acyclic_plant

        plant = random_acyclic_plant(rng)
        before = classify_frame(plant)
        states = sorted(plant.states)
        a, b = rng.choice(states), rng.choice(states)
        if (a, b) in plant.edges:
            continue
        bigger = Plant(
            plant.states,
            plant.init,
            plant.c_edges | {(a, b)},
            plant.u_edges,
            plant.labeling,
        )
        assert order[classify_frame(bigger)] <= order[before]


def _random_plant(rng: random.Random) -> Plant:
    pick = rng.randrange(4)
    if pick == 0:
        return random_tree_plant(rng)
    if pick == 1:
        return random_acyclic_plant(rng)
    if pick == 2:
        return random_general_plant(rng)
    plant = random_acyclic_plant(rng)
    states = sorted(plant.states)
    extra = (rng.choice(states), rng.choice(states))
    return Plant(
        plant.states, plant.init, plant.c_edges, plant.u_edges | {extra}, plant.labeling
    )


def test_classify_and_traces_match_references_on_random_plants():
    rng = random.Random(2024)
    seen = set()
    for _ in range(400):
        plant = _random_plant(rng)
        frame = classify_frame(plant)
        assert frame is classify_frame_reference(plant)
        seen.add(frame)
        if frame is not FrameKind.GENERAL:
            assert enumerate_traces(plant) == enumerate_lassos(plant, len(plant.states), 1)
    assert seen == set(FrameKind)


def test_classify_is_linear_on_large_frames():
    # the chain and the star each take minutes with an O(V*E) Kahn loop
    n = 20_000
    chain = Plant(
        {f"s{i}" for i in range(n)},
        "s0",
        {(f"s{i}", f"s{i + 1}") for i in range(n - 1)} | {(f"s{n - 1}", f"s{n - 1}")},
        set(),
        {},
    )
    leaves = [f"l{i}" for i in range(n)]
    star = Plant(
        {"root", *leaves},
        "root",
        {("root", leaf) for leaf in leaves} | {(leaf, leaf) for leaf in leaves},
        set(),
        {},
    )
    for plant in (chain, star):
        started = time.perf_counter()
        assert classify_frame(plant) is FrameKind.TREE
        assert time.perf_counter() - started < 2.0


# --- traces -------------------------------------------------------------


def test_fig1_traces(fig1_plant):
    expected = {
        Lasso((letter("a"),), (letter("b"),)),
        Lasso((letter("a"), letter("a")), (letter("b"),)),
    }
    assert enumerate_traces(fig1_plant) == expected


def test_single_state_trace():
    plant = Plant({"s"}, "s", {("s", "s")}, set(), {"s": {"a"}})
    assert enumerate_traces(plant) == {Lasso((), (letter("a"),))}


def test_traces_dedupe_by_label_sequence():
    # two leaves with identical labels produce one trace
    plant = Plant(
        states={"r", "x", "y"},
        init="r",
        c_edges={("r", "x"), ("r", "y"), ("x", "x"), ("y", "y")},
        u_edges=set(),
        labeling={"r": {"a"}, "x": {"b"}, "y": {"b"}},
    )
    assert len(enumerate_traces(plant)) == 1


def test_traces_require_acyclic():
    plant = Plant({"s0", "s1"}, "s0", {("s0", "s1"), ("s1", "s0")}, set(), {})
    with pytest.raises(NotAcyclic):
        enumerate_traces(plant)


def test_tree_trace_count_bounded_by_leaves():
    rng = random.Random(11)
    from helpers import random_tree_plant

    for _ in range(40):
        plant = random_tree_plant(rng)
        leaves = [s for s in plant.states if successors(plant, s) == [s]]
        assert len(enumerate_traces(plant)) <= len(leaves)


def test_traces_have_singleton_terminal_loops(fig1_plant):
    for trace in enumerate_traces(fig1_plant):
        assert len(trace.loop) == 1
        assert trace.loop[0] in (letter("b"),)


# --- bounded lasso enumeration -------------------------------------------


def test_lassos_match_traces_on_acyclic(fig1_plant):
    bounded = enumerate_lassos(fig1_plant, 4, 1)
    assert bounded == enumerate_traces(fig1_plant)


def test_two_state_cycle_lasso():
    plant = Plant(
        {"s0", "s1"}, "s0", {("s0", "s1"), ("s1", "s0")}, set(),
        {"s0": {"a"}, "s1": {"b"}},
    )
    found = enumerate_lassos(plant, 2, 2)
    assert Lasso((), (letter("a"), letter("b"))) in found


def test_zero_stem_bound_without_cycle_at_init():
    plant = Plant(
        {"s0", "s1"}, "s0", {("s0", "s1"), ("s1", "s1")}, set(), {}
    )
    assert enumerate_lassos(plant, 0, 1) == frozenset()


def test_lassos_monotone_in_bounds():
    rng = random.Random(5)
    from helpers import random_general_plant

    for _ in range(25):
        plant = random_general_plant(rng)
        small = enumerate_lassos(plant, 2, 2)
        assert small <= enumerate_lassos(plant, 3, 2)
        assert small <= enumerate_lassos(plant, 2, 3)


def test_lassos_match_walk_oracle():
    rng = random.Random(15)
    for _ in range(60):
        plant = random_general_plant(rng)
        for stem_bound in range(5):
            for loop_bound in range(1, 5):
                expected = bounded_lassos_reference(plant, stem_bound, loop_bound)
                assert enumerate_lassos(plant, stem_bound, loop_bound) == expected
    for i in range(60):
        plant = (random_tree_plant, random_acyclic_plant)[i % 2](rng)
        bound = len(plant.states)
        expected = bounded_lassos_reference(plant, bound, 1)
        assert enumerate_lassos(plant, bound, 1) == expected == enumerate_traces(plant)


def test_path_lassos_are_the_canonical_path_words():
    rng = random.Random(16)
    for i in range(200):
        plant = (random_tree_plant, random_acyclic_plant)[i % 2](rng)
        idx = plant.index
        expected = []
        stack = [(plant.init, (), 0)]  # state, labels so far, c-edge mask
        while stack:
            state, labels, used = stack.pop()
            for nxt in successors(plant, state):
                bit = idx.c_bit.get((state, nxt))
                edge_used = used if bit is None else used | 1 << bit
                if nxt == state:
                    lasso = canonical(Lasso(labels, (plant.label(state),)))
                    expected.append((state, edge_used, lasso))
                else:
                    stack.append((nxt, labels + (plant.label(state),), edge_used))
        assert Counter(map(tuple, idx.paths)) == Counter(expected)


# --- pruned trace sets -----------------------------------------------------


def test_pruned_traces_are_the_pruned_plants_traces():
    rng = random.Random(21)
    for i in range(300):
        gen = random_tree_plant if i % 2 else random_acyclic_plant
        plant = gen(rng)
        retained = random_retained(rng, plant)
        pruned = apply_solution(plant, ControllerSolution(retained))
        assert pruned_traces(plant, retained) == (enumerate_traces(pruned), True)


def test_pruned_traces_on_general_frames_are_bounded_lassos():
    rng = random.Random(22)
    tested = 0
    while tested < 150:
        plant = random_general_plant(rng, max_states=5, c_frac=0.5)
        if not plant.c_edges or classify_frame(plant) is not FrameKind.GENERAL:
            continue
        tested += 1
        retained = random_retained(rng, plant)
        bounds = rng.choice([None, (rng.randint(0, 3), rng.randint(1, 3))])
        pruned = apply_solution(plant, ControllerSolution(retained))
        expected = enumerate_lassos(pruned, *(bounds or default_bounds(plant)))
        assert pruned_traces(plant, retained, bounds) == (expected, False)


def test_unpruned_traces_are_the_plants_traces():
    rng = random.Random(23)
    for i in range(150):
        gen = (random_tree_plant, random_acyclic_plant, random_general_plant)[i % 3]
        plant = gen(rng)
        bounds = rng.choice([None, (rng.randint(0, 3), rng.randint(1, 3))])
        if classify_frame(plant) is FrameKind.GENERAL:
            expected = (enumerate_lassos(plant, *(bounds or default_bounds(plant))), False)
        else:
            expected = (enumerate_traces(plant), True)
        assert pruned_traces(plant, bounds=bounds) == expected


# --- lasso equality --------------------------------------------------------


def test_lasso_equal_examples():
    x = Lasso((), (letter("a"),))
    y = Lasso((letter("a"),), (letter("a"), letter("a")))
    assert lasso_equal(x, y)
    a = Lasso((letter("a"),), (letter("b"),))
    b = Lasso((letter("a"), letter("a")), (letter("b"),))
    assert not lasso_equal(a, b)
    assert lasso_equal(a, a)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 3), st.integers(1, 4))
def test_lasso_equal_matches_unrolling(seed, pump, rot):
    rng = random.Random(seed)
    x = random_lasso(rng)
    y = random_lasso(rng)
    assert lasso_equal(x, y) == unroll_equal(x, y)
    # pumping the loop and absorbing it into the stem preserves the word
    pumped = Lasso(x.stem + x.loop * pump, x.loop * rot)
    assert lasso_equal(x, pumped)
    assert unroll_equal(x, pumped)


def test_canonical_is_reduced():
    lasso = Lasso(
        (letter("a"), letter("b")), (letter("b"), letter("b"))
    )
    reduced = canonical(lasso)
    assert reduced == Lasso((letter("a"),), (letter("b"),))


def test_lasso_masks_match_letters():
    rng = random.Random(61)
    props = ("a", "b", "c")
    for _ in range(300):
        lasso = random_lasso(rng, props=props, max_stem=5, max_loop=7)
        n = rng.randint(0, 40)
        masks = lasso.masks(props, n)
        assert masks == lasso.masks(props, n)  # served from the cache
        for prop, mask in zip(props, masks):
            expected = sum(1 << i for i in range(n) if prop in letter_at(lasso, i))
            assert mask == expected


def test_sort_lassos_matches_sort_key():
    rng = random.Random(62)
    for _ in range(300):
        lassos = {random_lasso(rng, props=("a", "b", "c")) for _ in range(rng.randint(0, 25))}
        assert sort_lassos(lassos) == sorted(lassos, key=lasso_sort_key)


def test_canonical_keeps_reduced_lassos():
    rng = random.Random(63)
    for _ in range(300):
        reduced = canonical(random_lasso(rng))
        assert canonical(reduced) is reduced


def test_lasso_suffix():
    lasso = Lasso((letter("a"),), (letter("b"), letter()))
    assert lasso_suffix(lasso, 1) == Lasso((), (letter("b"), letter()))
    assert lasso_suffix(lasso, 2) == Lasso((), (letter(), letter("b")))
    assert letter_at(lasso, 0) == letter("a")
    assert letter_at(lasso, 4) == letter()


# --- JSON + DOT -------------------------------------------------------------


def test_plant_json_round_trip(fig1_plant):
    text = dump_plant(fig1_plant)
    again = load_plant(text)
    assert again == fig1_plant


def test_plant_dump_is_indented_sorted_json():
    rng = random.Random(64)
    plants = [
        gen(rng)
        for gen in (random_tree_plant, random_acyclic_plant, random_general_plant)
        for _ in range(60)
    ]
    odd = 'q"\\\n\u00e9\U0001f600'
    plants.append(Plant(set(), "s", set(), set()))
    plants.append(Plant({odd, "s"}, "s", {("s", odd)}, {(odd, odd)}, {"s": {"z", odd}}))
    for plant in plants:
        expected = json.dumps(plant_to_dict(plant), indent=2, sort_keys=True) + "\n"
        assert dump_plant(plant) == expected


def test_plant_json_rejects_unknown_keys(fig1_plant):
    data = json.loads(dump_plant(fig1_plant))
    data["extra"] = 1
    with pytest.raises(PlantFormatError):
        load_plant(json.dumps(data))


def test_plant_json_requires_all_keys():
    with pytest.raises(PlantFormatError):
        load_plant('{"states": ["s"], "init": "s"}')


def test_plant_json_rejects_bad_edge_shape():
    doc = (
        '{"states": ["s"], "init": "s", "labels": {},'
        ' "controllable": [["s"]], "uncontrollable": []}'
    )
    with pytest.raises(PlantFormatError):
        load_plant(doc)


def test_dot_escapes_quotes_and_backslashes():
    plant = Plant({'s"0', "a\\b"}, 's"0', {('s"0', "a\\b")}, {("a\\b", "a\\b")}, {'s"0': {'p"'}})
    assert to_dot(plant).splitlines() == [
        "digraph plant {",
        '  "a\\\\b" [label="a\\\\b\\n{}"];',
        '  "s\\"0" [label="s\\"0\\n{p\\"}" shape="doublecircle"];',
        '  "s\\"0" -> "a\\\\b";',
        '  "a\\\\b" -> "a\\\\b" [style=dashed];',
        "}",
    ]


def test_dot_dump_mentions_every_edge(fig1_plant):
    dot = to_dot(fig1_plant)
    assert '"sinit" -> "s1" [style=dashed];' in dot
    assert '"s1" -> "s2";' in dot
