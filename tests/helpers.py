"""Shared test utilities: independent brute-force oracles and random
instance generators.

The oracles deliberately avoid the code paths they are used to check:
the truncation evaluator decides bodies on an explicit finite unrolling
with three-valued unknowns instead of the lasso fixed-point, satisfiability
is decided by assignment enumeration, and the synthesis oracle enumerates
every subset of the controllable edges.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd
from typing import Optional, Sequence

from hypersynth.errors import HorizonExceeded
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
    TrueBool,
    Until,
)
from hypersynth.nrp import ACT_A, ACT_B, ACT_T, ProtocolConfig, turn_of_depth
from hypersynth.plant import (
    FrameKind,
    Lasso,
    Plant,
    canonical,
    enumerate_lassos,
    enumerate_traces,
)
from hypersynth.reductions import CnfInput, NormalizedHorn, QbfInput
from hypersynth.semantics import eval_quantified

# --- three-valued truncation evaluator -----------------------------------

_T, _F, _U = True, False, None


def _or3(a, b):
    if a is _T or b is _T:
        return _T
    if a is _F and b is _F:
        return _F
    return _U


def _and3(a, b):
    if a is _F or b is _F:
        return _F
    if a is _T and b is _T:
        return _T
    return _U


def _not3(a):
    return _U if a is _U else (not a)


def naive_eval(body: Body, asg: dict[str, Lasso], length: int) -> Optional[bool]:
    """Evaluate on the explicit unrolling of the given length; positions at
    or beyond the horizon are unknown, and unknowns propagate by Kleene
    three-valued logic.  Conclusive verdicts agree with the infinite-word
    semantics."""
    words = {v: [letter_at(l, i) for i in range(length)] for v, l in asg.items()}

    def ev(node: Body, i: int):
        if i >= length:
            return _U
        if isinstance(node, TrueBool):
            return _T
        if isinstance(node, Atom):
            return node.prop in words[node.var][i]
        if isinstance(node, Not):
            return _not3(ev(node.operand, i))
        if isinstance(node, Or):
            return _or3(ev(node.left, i), ev(node.right, i))
        if isinstance(node, And):
            return _and3(ev(node.left, i), ev(node.right, i))
        if isinstance(node, Implies):
            return _or3(_not3(ev(node.left, i)), ev(node.right, i))
        if isinstance(node, Iff):
            a, b = ev(node.left, i), ev(node.right, i)
            if a is _U or b is _U:
                return _U
            return a == b
        if isinstance(node, Next):
            return ev(node.operand, i + 1)
        if isinstance(node, Until):
            acc = _U
            for j in range(length - 1, i - 1, -1):
                acc = _or3(ev(node.right, j), _and3(ev(node.left, j), acc))
            return acc
        if isinstance(node, Release):
            acc = _U
            for j in range(length - 1, i - 1, -1):
                acc = _and3(ev(node.right, j), _or3(ev(node.left, j), acc))
            return acc
        if isinstance(node, Eventually):
            acc = _U
            for j in range(length - 1, i - 1, -1):
                acc = _or3(ev(node.operand, j), acc)
            return acc
        if isinstance(node, Globally):
            acc = _U
            for j in range(length - 1, i - 1, -1):
                acc = _and3(ev(node.operand, j), acc)
            return acc
        raise TypeError(node)

    return ev(body, 0)


def subformula_count(body: Body) -> int:
    """Node count of the body as a tree: a subtree shared by identity
    counts once per occurrence."""
    if isinstance(body, (TrueBool, Atom)):
        return 1
    if isinstance(body, (Not, Next, Eventually, Globally)):
        return 1 + subformula_count(body.operand)
    if isinstance(body, (Or, And, Implies, Iff, Until, Release)):
        return 1 + subformula_count(body.left) + subformula_count(body.right)
    raise TypeError(f"unknown body node {body!r}")


# --- SAT / QBF oracles -----------------------------------------------------


def sat_brute(cnf: CnfInput) -> bool:
    for bits in product((False, True), repeat=cnf.num_vars):
        asg = {v: bits[v - 1] for v in range(1, cnf.num_vars + 1)}
        if all(any((l > 0) == asg[abs(l)] for l in c) for c in cnf.clauses):
            return True
    return False


def cnf_satisfied(cnf: CnfInput, asg: dict[int, bool]) -> bool:
    return all(any((l > 0) == asg[abs(l)] for l in c) for c in cnf.clauses)


def horn_sat_brute(norm: NormalizedHorn) -> bool:
    """Satisfiability with bot forced false and top forced true."""
    free = [v for v in range(1, norm.num_vars + 1) if v not in (norm.bot, norm.top)]
    for bits in product((False, True), repeat=len(free)):
        asg = dict(zip(free, bits))
        asg[norm.bot] = False
        asg[norm.top] = True
        if cnf_satisfied(norm, asg):
            return True
    return False


def qbf_brute(qbf: QbfInput, asg: Optional[dict[int, bool]] = None, i: int = 0) -> bool:
    if asg is None:
        asg = {}
    if i == len(qbf.prefix):
        return all(any((l > 0) == asg[abs(l)] for l in c) for c in qbf.clauses)
    quant, v = qbf.prefix[i]
    branches = (qbf_brute(qbf, {**asg, v: b}, i + 1) for b in (False, True))
    return any(branches) if quant is Quantifier.EXISTS else all(branches)


def qbf_brute_fixed(qbf: QbfInput, fixed: dict[int, bool]) -> bool:
    """Truth of the QBF with some variables pinned (their quantifiers are
    dropped)."""
    rest = tuple((q, v) for q, v in qbf.prefix if v not in fixed)

    def rec(asg: dict[int, bool], i: int) -> bool:
        if i == len(rest):
            return all(any((l > 0) == asg[abs(l)] for l in c) for c in qbf.clauses)
        quant, v = rest[i]
        branches = (rec({**asg, v: b}, i + 1) for b in (False, True))
        return any(branches) if quant is Quantifier.EXISTS else all(branches)

    return rec(dict(fixed), 0)


# --- lasso, plant and frame references --------------------------------------


def letter_at(lasso: Lasso, i: int) -> frozenset[str]:
    """Letter i of the lasso's word."""
    if i < len(lasso.stem):
        return lasso.stem[i]
    return lasso.loop[(i - len(lasso.stem)) % len(lasso.loop)]


def lasso_prefix(lasso: Lasso, n: int) -> tuple[frozenset[str], ...]:
    """The first n letters of the lasso's word."""
    return tuple(letter_at(lasso, i) for i in range(n))


def lasso_sort_key(lasso: Lasso):
    """The order of ``plant.sort_lassos``, the reference it is checked
    against."""
    return (
        tuple(tuple(sorted(l)) for l in lasso.stem),
        tuple(tuple(sorted(l)) for l in lasso.loop),
    )


def plant_to_dict(plant: Plant) -> dict:
    """The object whose ``json.dumps(indent=2, sort_keys=True)`` text
    ``plant.dump_plant`` writes, the reference it is checked against."""
    return {
        "states": sorted(plant.states),
        "init": plant.init,
        "labels": {s: sorted(plant.label(s)) for s in sorted(plant.states)},
        "controllable": [list(e) for e in sorted(plant.c_edges)],
        "uncontrollable": [list(e) for e in sorted(plant.u_edges)],
    }


def lasso_suffix(lasso: Lasso, n: int) -> Lasso:
    """The lasso denoting positions n, n+1, ... of the lasso's word."""
    if n <= len(lasso.stem):
        return Lasso(lasso.stem[n:], lasso.loop)
    k = (n - len(lasso.stem)) % len(lasso.loop)
    return Lasso((), lasso.loop[k:] + lasso.loop[:k])


def successors(plant: Plant, state: str) -> list[str]:
    """The state's successors, sorted."""
    return list(plant.index.adjacency[state])


def unroll_equal(x: Lasso, y: Lasso) -> bool:
    """Decide word equality by explicit unrolling; used to cross-check
    :func:`lasso_equal`.  From position max(|stems|) onward both words are
    periodic with period lcm(|loops|), so agreement on the prefix up to
    that horizon plus one full joint period decides equality."""
    s = max(len(x.stem), len(y.stem))
    p = len(x.loop) * len(y.loop) // gcd(len(x.loop), len(y.loop))
    return lasso_prefix(x, s + p) == lasso_prefix(y, s + p)


def shift_assignment(asg: dict[str, Lasso], k: int) -> dict[str, Lasso]:
    """Drop the first k positions of every bound trace."""
    return {var: lasso_suffix(lasso, k) for var, lasso in asg.items()}


def classify_frame_reference(plant: Plant) -> FrameKind:
    """Frame kind by recursive DFS cycle detection and predecessor counts,
    sharing no code with the plant index.  Terminal states are those whose
    only edge is a self-loop; any other loop makes the frame general."""
    succ: dict[str, set[str]] = {s: set() for s in plant.states}
    for a, b in plant.c_edges | plant.u_edges:
        succ[a].add(b)
    terminal = {s for s in plant.states if succ[s] == {s}}
    proper = {s: (set() if s in terminal else succ[s]) for s in plant.states}
    colour = dict.fromkeys(plant.states, 0)  # 0 new, 1 on stack, 2 done

    def cyclic(s: str) -> bool:
        colour[s] = 1
        for t in proper[s]:
            if colour[t] == 1 or (colour[t] == 0 and cyclic(t)):
                return True
        colour[s] = 2
        return False

    if any(colour[s] == 0 and cyclic(s) for s in sorted(plant.states)):
        return FrameKind.GENERAL
    preds = dict.fromkeys(plant.states, 0)
    for targets in proper.values():
        for t in targets:
            preds[t] += 1
    if preds[plant.init] == 0 and all(
        n == 1 for s, n in preds.items() if s != plant.init
    ):
        return FrameKind.TREE
    return FrameKind.ACYCLIC


def bounded_lassos_reference(
    plant: Plant, stem_bound: int, loop_bound: int
) -> frozenset[Lasso]:
    """``plant.enumerate_lassos`` by brute force: every walk from init of
    at most stem_bound edges, closed by every walk of 1..loop_bound edges
    that returns to its last state, each pair reduced with ``canonical``
    and nothing deduplicated before that."""
    succ: dict[str, list[str]] = {s: [] for s in plant.states}
    for a, b in plant.c_edges | plant.u_edges:
        succ[a].append(b)

    def walks(path: list[str], budget: int):
        yield path
        if budget:
            for t in succ[path[-1]]:
                yield from walks(path + [t], budget - 1)

    out = set()
    for stem in walks([plant.init], stem_bound):
        anchor = stem[-1]
        for loop in walks([anchor], loop_bound - 1):
            if anchor in succ[loop[-1]]:
                lasso = Lasso(tuple(map(plant.label, stem[:-1])), tuple(map(plant.label, loop)))
                out.add(canonical(lasso))
    return frozenset(out)


def atomic_propositions(plant: Plant) -> frozenset[str]:
    """Every proposition that labels some state of the plant."""
    return frozenset().union(*plant.labeling.values())


# --- case-study references --------------------------------------------------


def build_plant_reference(cfg: ProtocolConfig) -> Plant:
    """``nrp.build_plant`` as a depth-first worklist that derives every
    state's actions, status and label on its own."""
    states: set[str] = set()
    labels: dict[str, frozenset[str]] = {}
    c_edges: set[tuple[str, str]] = set()
    u_edges: set[tuple[str, str]] = set()
    effect = {
        "a2b_m": "m", "t2b_m": "m", "a2b_nro": "nro",
        "t2b_nro": "nro", "b2a_nrr": "nrr", "t2a_nrr": "nrr",
    }
    per_role = {"A": cfg.a_actions, "T": cfg.t_actions, "B": cfg.b_actions}
    labels["root"] = frozenset()
    stack = [("root", 0, frozenset())]
    while stack:
        state, depth, status = stack.pop()
        states.add(state)
        if depth == 3 * cfg.rounds:
            c_edges.add((state, state))
            continue
        role = turn_of_depth(depth)
        for action in sorted(per_role[role][depth // 3]):
            nxt_status = status | {effect[action]} if action in effect else status
            child = f"{state}/{action}"
            labels[child] = frozenset({action}) | nxt_status
            (c_edges if role == "T" else u_edges).add((state, child))
            stack.append((child, depth + 1, nxt_status))
    return Plant(frozenset(states), "root", frozenset(c_edges), frozenset(u_edges), labels)


def random_protocol_config(rng: random.Random, max_rounds: int = 3) -> ProtocolConfig:
    """Random per-round allowlists: each role action offered with
    probability 0.35 (skip is always added by the config)."""

    def pick(actions, rounds):
        return tuple(
            frozenset(a for a in actions if not a.endswith("_skip") and rng.random() < 0.35)
            for _ in range(rounds)
        )

    rounds = rng.randint(1, max_rounds)
    return ProtocolConfig(rounds, pick(ACT_A, rounds), pick(ACT_T, rounds), pick(ACT_B, rounds))


# --- exhaustive synthesis oracle ---------------------------------------------


def synth_brute(
    plant: Plant, f: Formula, bounds: Optional[tuple[int, int]] = None
) -> tuple[bool, Optional[frozenset]]:
    """Enumerate all 2^|c| retained subsets, keep the deadlock-free ones,
    and model-check each pruning: exactly, or on its lassos within the
    given (stem, loop) bounds.  Returns (realizable, one maximal witness
    or None)."""
    edges = sorted(plant.c_edges)
    best: Optional[frozenset] = None
    for mask in range(2 ** len(edges)):
        retained = frozenset(e for k, e in enumerate(edges) if mask >> k & 1)
        out: dict[str, int] = {s: 0 for s in plant.states}
        for a, _ in retained | plant.u_edges:
            out[a] += 1
        if any(n == 0 for n in out.values()):
            continue
        pruned = Plant(plant.states, plant.init, retained, plant.u_edges, plant.labeling)
        if bounds is None:
            traces = enumerate_traces(pruned)
        else:
            traces = enumerate_lassos(pruned, *bounds)
        if eval_quantified(f, traces):
            if best is None or len(retained) > len(best):
                best = retained
    return best is not None, best


# --- random generators -------------------------------------------------------

PROPS = ("a", "b")


def random_letter(rng: random.Random, props: Sequence[str] = PROPS) -> frozenset[str]:
    return frozenset(p for p in props if rng.random() < 0.5)


def random_lasso(
    rng: random.Random,
    props: Sequence[str] = PROPS,
    max_stem: int = 4,
    max_loop: int = 3,
) -> Lasso:
    stem = tuple(random_letter(rng, props) for _ in range(rng.randint(0, max_stem)))
    loop = tuple(random_letter(rng, props) for _ in range(rng.randint(1, max_loop)))
    return Lasso(stem, loop)


def random_body(
    rng: random.Random,
    variables: Sequence[str],
    budget: int = 6,
    props: Sequence[str] = PROPS,
) -> Body:
    if budget <= 1:
        if rng.random() < 0.1:
            return TrueBool()
        return Atom(rng.choice(props), rng.choice(list(variables)))
    kind = rng.choice(
        ("atom", "not", "or", "and", "implies", "iff", "next", "until", "ev", "glob")
    )
    if kind == "atom":
        return Atom(rng.choice(props), rng.choice(list(variables)))
    if kind in ("not", "next", "ev", "glob"):
        sub = random_body(rng, variables, budget - 1, props)
        return {"not": Not, "next": Next, "ev": Eventually, "glob": Globally}[kind](sub)
    left_budget = rng.randint(1, budget - 2) if budget > 2 else 1
    left = random_body(rng, variables, left_budget, props)
    right = random_body(rng, variables, budget - 1 - left_budget, props)
    ctor = {"or": Or, "and": And, "implies": Implies, "iff": Iff, "until": Until}[kind]
    return ctor(left, right)


def random_prefix_formula(
    rng: random.Random,
    quants: Sequence[Quantifier],
    budget: int = 6,
    props: Sequence[str] = PROPS,
) -> Formula:
    names = tuple(f"t{i}" for i in range(len(quants)))
    body = random_body(rng, names, budget, props)
    return Formula(tuple(zip(quants, names)), body)


def random_tree_plant(
    rng: random.Random,
    max_states: int = 10,
    max_c_edges: int = 8,
    props: Sequence[str] = PROPS,
) -> Plant:
    """Grow a labeled tree; each edge (including the mandatory leaf
    self-loops) is flipped controllable while the budget lasts."""
    total = rng.randint(2, max_states)
    parents = {0: None}
    for s in range(1, total):
        parents[s] = rng.randint(0, s - 1)
    children: dict[int, list[int]] = {s: [] for s in range(total)}
    for s in range(1, total):
        children[parents[s]].append(s)
    labels = {f"n{s}": random_letter(rng, props) for s in range(total)}
    c_edges: set[tuple[str, str]] = set()
    u_edges: set[tuple[str, str]] = set()
    c_budget = rng.randint(max_c_edges // 2, max_c_edges)

    def place(edge: tuple[str, str]) -> None:
        nonlocal c_budget
        if c_budget > 0 and rng.random() < 0.8:
            c_edges.add(edge)
            c_budget -= 1
        else:
            u_edges.add(edge)

    for s in range(total):
        if children[s]:
            for child in children[s]:
                place((f"n{s}", f"n{child}"))
        else:
            place((f"n{s}", f"n{s}"))
    return Plant(
        states=frozenset(labels),
        init="n0",
        c_edges=frozenset(c_edges),
        u_edges=frozenset(u_edges),
        labeling=labels,
    )


def random_acyclic_plant(
    rng: random.Random,
    max_states: int = 8,
    max_c_edges: int = 8,
    props: Sequence[str] = PROPS,
) -> Plant:
    """Random DAG over an ordered state list; sinks get self-loops."""
    total = rng.randint(2, max_states)
    labels = {f"n{s}": random_letter(rng, props) for s in range(total)}
    forward: dict[int, list[int]] = {s: [] for s in range(total)}
    for s in range(total - 1):
        fanout = rng.randint(1, min(3, total - 1 - s))
        targets = rng.sample(range(s + 1, total), fanout)
        forward[s] = sorted(targets)
    c_edges: set[tuple[str, str]] = set()
    u_edges: set[tuple[str, str]] = set()
    c_budget = rng.randint(0, max_c_edges)

    def place(edge: tuple[str, str]) -> None:
        nonlocal c_budget
        if c_budget > 0 and rng.random() < 0.6:
            c_edges.add(edge)
            c_budget -= 1
        else:
            u_edges.add(edge)

    for s in range(total):
        if forward[s]:
            for t in forward[s]:
                place((f"n{s}", f"n{t}"))
        else:
            place((f"n{s}", f"n{s}"))
    return Plant(
        states=frozenset(labels),
        init="n0",
        c_edges=frozenset(c_edges),
        u_edges=frozenset(u_edges),
        labeling=labels,
    )


def random_general_plant(
    rng: random.Random,
    max_states: int = 6,
    props: Sequence[str] = PROPS,
    c_frac: float = 0.0,
) -> Plant:
    """Random graph of out-degree 1-2; each edge is controllable with
    probability c_frac (no draw is made when it is 0)."""
    total = rng.randint(1, max_states)
    labels = {f"n{s}": random_letter(rng, props) for s in range(total)}
    edges: list[tuple[str, str]] = []
    for s in range(total):
        fanout = rng.randint(1, 2)
        for t in rng.sample(range(total), min(fanout, total)):
            edges.append((f"n{s}", f"n{t}"))
    c_edges = {e for e in edges if c_frac and rng.random() < c_frac}
    return Plant(
        states=frozenset(labels),
        init="n0",
        c_edges=frozenset(c_edges),
        u_edges=frozenset(edges) - c_edges,
        labeling=labels,
    )


def horizon_outcome(call):
    """The call's result, or HorizonExceeded with its arguments."""
    try:
        return call()
    except HorizonExceeded as exc:
        return ("HorizonExceeded", exc.args)


def random_retained(rng: random.Random, plant: Plant) -> frozenset:
    """A random subset of the controllable edges that leaves every state
    an outgoing edge."""
    idx = plant.index
    retained = set()
    for s, succ in sorted(idx.c_succ.items()):
        keep = [t for t in succ if rng.random() < 0.5]
        if not keep and s not in idx.u_succ:
            keep = [rng.choice(succ)]
        retained.update((s, t) for t in keep)
    return frozenset(retained)


def random_horn_cnf(rng: random.Random, max_vars: int = 4, max_clauses: int = 4) -> CnfInput:
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        size = rng.randint(1, 4)
        body_vars = [rng.randint(1, n) for _ in range(size)]
        lits: list[int] = []
        if rng.random() < 0.5:
            lits.append(body_vars[0])
            body_vars = body_vars[1:]
        lits.extend(-v for v in body_vars)
        if not lits:
            lits = [-rng.randint(1, n)]
        clauses.append(tuple(lits))
    return CnfInput(n, tuple(clauses))


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CnfInput:
    clauses = tuple(
        tuple(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(3))
        for _ in range(num_clauses)
    )
    return CnfInput(num_vars, clauses)


def random_qbf(
    rng: random.Random,
    num_vars: int,
    alternations: int,
    max_clauses: int = 3,
) -> QbfInput:
    """Exists-leading prefix over num_vars variables with exactly the given
    number of quantifier switches; clauses use three distinct variables."""
    assert num_vars >= 3 and 0 <= alternations < num_vars
    switches = sorted(rng.sample(range(1, num_vars), alternations))
    quants = []
    current = Quantifier.EXISTS
    j = 0
    for i in range(num_vars):
        if j < len(switches) and i == switches[j]:
            current = (
                Quantifier.FORALL
                if current is Quantifier.EXISTS
                else Quantifier.EXISTS
            )
            j += 1
        quants.append(current)
    prefix = tuple((q, i + 1) for i, q in enumerate(quants))
    clauses = tuple(
        tuple(
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), 3)
        )
        for _ in range(rng.randint(1, max_clauses))
    )
    return QbfInput(prefix, clauses)
