"""Synthesis engine: decide whether the controllable transitions of a
plant can be restricted so the pruned plant satisfies a closed formula,
and produce a witness controller.

Four routes:

* synth_generic, universal prefixes on tree/acyclic frames - a
  core-guided search for a minimum set of removed edges (:func:`_min_removal`).
  Each failed pruning's falsifying trace tuple becomes a blocking clause
  over controllable edges: a passing pruning cuts one of the paths that
  carried the tuple.  Removal sets are tried by increasing size, and each
  one that hits every clause is judged on its trace set from
  :func:`~hypersynth.plant.pruned_traces`, so the first that passes is a
  maximally permissive witness.
* synth_generic, every other prefix and general frames - guess-and-check
  over the valid candidate space, in decreasing retained-edge order (the
  full plant first, so existential formulas are settled by a single
  model-checking call and the returned witness is maximally permissive).
  Each candidate is judged on its trace set from ``pruned_traces``.  For
  purely universal prefixes a failed candidate yields a falsifying trace
  tuple, and any later candidate whose trace set contains that tuple is
  skipped without re-evaluation.
* synth_tree_exists_forall - trees with an E*A prefix: enumerate
  existential witness tuples from the full plant's trace set, then decide
  bottom-up which subtrees can be kept (nodes with an uncontrollable
  out-edge need every uncontrollable child to succeed; all-controllable
  nodes need some child).
* synth_tree_marking - trees with an AE* prefix: mark all leaves, then
  repeatedly unmark leaves whose universal instantiation has no
  existential witnesses among the marked leaves (one fold of the batch's
  grid per round when the grid holds every variable); on stabilization
  prune to the marked branches, re-checking that uncontrollable
  transitions do not force unmarked leaves back in.

Both searches build one :class:`~hypersynth.semantics.BodyBatch` per
synthesis, over the full plant's traces, and judge each pruning inside it
(:func:`~hypersynth.semantics.eval_batch`): a pruning's traces are a
subset of the full plant's (exact paths, or lassos under the same bounds),
so a tuple prefix is evaluated once per synthesis, not once per pruning.

Both tree routes prune with one walk (:func:`_prune`): given a leaf test,
it keeps every uncontrollable child and every keepable controllable
child, and returns the kept leaves and the retained edges.

dispatch() routes to the specialized algorithm when frame and fragment
match, otherwise to synth_generic.  Tree/acyclic verdicts are exact;
general frames are checked against bounded lasso enumeration and marked
not exact (Realizable with a bounded certificate, BoundedUnknown instead
of Unrealizable).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product
from math import log2
from typing import Iterator, Optional

from .errors import (
    CandidateSpaceExceeded,
    DeadlockIntroduced,
    FragmentMismatch,
    FrameMismatch,
    SynthesisError,
)
from .formula import Formula, FragmentKind, classify_fragment
from .plant import (
    Edge,
    FrameKind,
    Lasso,
    PathRow,
    Plant,
    classify_frame,
    pruned_traces,
    sort_lassos,
    validate,
)
from .semantics import DEFAULT_HORIZON, BodyBatch, eval_batch, eval_each

DEFAULT_MAX_CANDIDATE_BITS = 24


@dataclass(frozen=True)
class ControllerSolution:
    """Retained subset of the plant's controllable edges."""

    retained: frozenset[Edge]

    def __post_init__(self):
        object.__setattr__(
            self, "retained", frozenset((a, b) for a, b in self.retained)
        )


class Verdict(Enum):
    REALIZABLE = "realizable"
    UNREALIZABLE = "unrealizable"
    BOUNDED_UNKNOWN = "bounded-unknown"


@dataclass(frozen=True)
class SynthesisResult:
    verdict: Verdict
    solution: Optional[ControllerSolution]
    exact: bool

    @property
    def realizable(self) -> bool:
        return self.verdict is Verdict.REALIZABLE


def apply_solution(plant: Plant, sol: ControllerSolution) -> Plant:
    """Prune the plant to the retained controllable edges.

    States, init, labeling, and uncontrollable edges are unchanged.
    Raises DeadlockIntroduced if some state loses its last outgoing edge,
    and SynthesisError if retained is not a subset of the plant's
    controllable edges.
    """
    if not sol.retained <= plant.c_edges:
        extra = min(sol.retained - plant.c_edges)
        raise SynthesisError(f"retained edge {extra!r} is not controllable")
    pruned = Plant(
        states=plant.states,
        init=plant.init,
        c_edges=sol.retained,
        u_edges=plant.u_edges,
        labeling=plant.labeling,
    )
    dead = pruned.index.deadlocks
    if dead:
        raise DeadlockIntroduced(dead[0])
    return pruned


# --- candidate enumeration --------------------------------------------------


def _choice_points(plant: Plant) -> list[tuple[str, list[Edge], bool]]:
    """Per state: its controllable out-edges (sorted) and whether it also
    has an uncontrollable out-edge.  Only states with controllable
    out-edges are choice points."""
    idx = plant.index
    return [
        (s, [(s, t) for t in succ], s in idx.u_succ)
        for s, succ in sorted(idx.c_succ.items())
    ]


def candidate_space_bits(plant: Plant) -> float:
    """log2 of the number of deadlock-free retained-edge subsets."""
    bits = 0.0
    for _, edges, has_u in _choice_points(plant):
        count = 2 ** len(edges) if has_u else 2 ** len(edges) - 1
        bits += log2(count)
    return bits


def _removals(plant: Plant) -> Iterator[frozenset[Edge]]:
    """All edge-removal sets that keep every state deadlock-free, in
    increasing order of removal count (hence decreasing retained size),
    deterministic within each size.

    A choice point with nothing removable (one controllable out-edge and
    no uncontrollable one) only ever contributes the empty set, so it is
    left out: the recursion is then as deep as the points with a choice,
    at most one per bit of the candidate space."""
    buckets: list[list[list[frozenset[Edge]]]] = []
    for _, edges, has_u in _choice_points(plant):
        max_k = len(edges) if has_u else len(edges) - 1
        if max_k == 0:
            continue
        buckets.append(
            [[frozenset(c) for c in combinations(edges, k)] for k in range(max_k + 1)]
        )
    total_max = sum(len(b) - 1 for b in buckets)
    for size in range(total_max + 1):
        for parts in _split(buckets, 0, size):
            yield frozenset().union(*parts) if parts else frozenset()


def _split(
    buckets: list[list[list[frozenset[Edge]]]], idx: int, remaining: int
) -> Iterator[tuple[frozenset[Edge], ...]]:
    """Every way to remove `remaining` edges from the choice points from idx
    on, one removal set per point, in order.  A module function rather than
    a recursive closure, which would be a reference cycle left to the
    cyclic collector on every search."""
    if idx == len(buckets):
        if remaining == 0:
            yield ()
        return
    for k in range(min(remaining, len(buckets[idx]) - 1) + 1):
        for combo in buckets[idx][k]:
            for rest in _split(buckets, idx + 1, remaining - k):
                yield (combo,) + rest


def synth_generic(
    plant: Plant,
    f: Formula,
    bounds: Optional[tuple[int, int]] = None,
    max_candidate_bits: Optional[int] = DEFAULT_MAX_CANDIDATE_BITS,
    horizon: int = DEFAULT_HORIZON,
) -> SynthesisResult:
    """Candidate search realizing the guess-and-check membership bound.

    Searches valid prunings in decreasing retained-set size; the first
    passing candidate (which is the most permissive one) wins.  For
    existential prefixes only the full plant is relevant: pruning shrinks
    the trace set, which can never help an E* formula.  Every candidate is
    judged inside one batch over the full plant's traces.  Universal
    prefixes on tree/acyclic frames take the core-guided search of
    :func:`_min_removal` instead of the candidate walk.  The candidate
    space guard refuses searches beyond 2**max_candidate_bits candidates
    (pass None to disable).

    On a general frame every pruning is judged on its bounded lasso set,
    acyclic prunings included, so the search can answer BoundedUnknown
    where ``check`` on one of its prunings, switching to that pruning's
    exact traces, says the formula holds.
    """
    validate(plant)
    kind = classify_fragment(f).kind
    existential_only = kind is FragmentKind.E_STAR
    if not existential_only and max_candidate_bits is not None:
        bits = candidate_space_bits(plant)
        if bits > max_candidate_bits:
            raise CandidateSpaceExceeded(bits, max_candidate_bits)
    if kind is FragmentKind.A_STAR and plant.index.frame is not FrameKind.GENERAL:
        return _min_removal(plant, f, horizon)

    # every candidate's traces are a subset of the full plant's, judged in
    # one batch over those
    full, exact = pruned_traces(plant, bounds=bounds)
    batch = BodyBatch(f, sort_lassos(full), horizon, {})
    # a failed purely universal candidate leaves its falsifying tuple as a
    # core (other prefixes leave none); a later trace set holding a core
    # fails too
    cores: list[frozenset[Lasso]] = []
    for removed in _removals(plant):  # the full plant comes first
        retained = plant.c_edges - removed
        traces = pruned_traces(plant, retained, bounds)[0] if removed else full
        if any(core <= traces for core in cores):
            continue
        ok, witness = eval_batch(batch, traces)
        if ok:
            return SynthesisResult(
                Verdict.REALIZABLE, ControllerSolution(retained), exact
            )
        if existential_only:
            break  # smaller trace sets cannot satisfy an existential formula
        if witness is not None:
            cores.append(frozenset(witness))
    if exact:
        return SynthesisResult(Verdict.UNREALIZABLE, None, True)
    return SynthesisResult(Verdict.BOUNDED_UNKNOWN, None, False)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _min_removal(plant: Plant, f: Formula, horizon: int) -> SynthesisResult:
    """A universal prefix on a tree/acyclic frame: a minimum removal set
    by counterexample-guided search (CEGIS, Solar-Lezama et al., ASPLOS
    2006, run as implicit hitting sets, Davies & Bacchus, CP 2011).

    A universal formula that fails on a trace set fails on every superset,
    so each falsifying tuple blocks every removal set that leaves one
    surviving path of each of its traces: a passing removal set must
    contain one of those paths' removable edges (a clause).  Removal sets
    are expanded by increasing size, each at most once: a set that misses
    a clause is extended by each edge of the first such clause; a set that
    hits every clause is judged on its traces, unless a stored falsifying
    tuple (a core) lies in them, and either passes (the least removal, so
    a maximum witness) or yields a new clause.  An edge is not removed
    when it is its state's last way out (deadlock freedom), and an empty
    clause, or no set left to expand, means Unrealizable.  Every pruning
    is judged inside one batch over the full plant's traces."""
    idx = plant.index
    edges = list(idx.c_bit)  # by bit position
    batch = BodyBatch(f, sort_lassos(pruned_traces(plant)[0]), horizon, {})
    removable = 0
    # per edge bit position, the controllable out-edges of its source when
    # the source has no uncontrollable way out: they may not all go
    last_way: dict[int, int] = {}
    for s, succ in idx.c_succ.items():
        out = idx.c_mask((s, t) for t in succ)
        if s in idx.u_succ:
            removable |= out
        elif len(succ) > 1:
            removable |= out
            last_way.update(dict.fromkeys(_bits(out), out))
    clauses: list[int] = []
    cores: list[frozenset[Lasso]] = []
    level, seen = [0], {0}
    while level:
        following = []
        for removed in level:
            clause = next((c for c in clauses if not c & removed), None)
            if clause is None:
                retained = plant.c_edges.difference([edges[i] for i in _bits(removed)])
                traces, _ = pruned_traces(plant, retained)
                core = next((c for c in cores if c <= traces), None)
                if core is None:
                    ok, witness = eval_batch(batch, traces)
                    if ok:
                        solution = ControllerSolution(retained)
                        return SynthesisResult(Verdict.REALIZABLE, solution, True)
                    core = frozenset(witness)
                    cores.append(core)
                clause = _blocking_clause(idx.surviving(removed), core) & removable
                if not clause:
                    return SynthesisResult(Verdict.UNREALIZABLE, None, True)
                clauses.append(clause)
            for i in _bits(clause):
                child = removed | 1 << i
                way = last_way.get(i)
                if child not in seen and (way is None or child & way != way):
                    seen.add(child)
                    following.append(child)
        level = following
    return SynthesisResult(Verdict.UNREALIZABLE, None, True)


def _blocking_clause(paths: Iterator[PathRow], core: frozenset[Lasso]) -> int:
    """The controllable edges of the first of the given paths with each
    trace of the core."""
    wanted = set(core)
    clause = 0
    for row in paths:
        if row.lasso in wanted:
            wanted.discard(row.lasso)
            clause |= row.c_used
            if not wanted:
                break
    return clause


# --- tree structure ----------------------------------------------------------


class _Keepable:
    """Memoized bottom-up feasibility: a subtree can be kept iff it can be
    pruned so that every remaining leaf passes leaf_ok (called with the
    terminal state).  With uncontrollable children all of them must
    succeed; with only controllable children some child must.  Tree
    non-terminals have no self-loops, so successors are children.

    A callable object rather than a recursive closure: the closure would
    be a reference cycle holding the plant's index until the next full
    garbage collection."""

    def __init__(self, plant: Plant, leaf_ok):
        self.idx = plant.index
        self.leaf_ok = leaf_ok
        self.memo: dict[str, bool] = {}

    def __call__(self, s: str) -> bool:
        """Depth-first over an explicit stack, so a tree of any depth is
        decided; children are read left to right and a state is decided
        by its first failing (all) or passing (any) child, as all()/any()
        would."""
        memo, idx = self.memo, self.idx
        # states being decided: (state, children not yet read, whether
        # every child must pass)
        stack: list[tuple[str, Iterator[str], bool]] = []
        while True:
            result = memo.get(s)
            if result is None and s in idx.terminals:
                result = memo[s] = bool(self.leaf_ok(s))
            elif result is None:
                every = s in idx.u_succ
                children = idx.u_succ[s] if every else idx.c_succ[s]
                stack.append((s, iter(children), every))
            while stack:
                state, children, every = stack[-1]
                if result is None or result is every:
                    s = next(children, None)
                    if s is not None:
                        break  # decide this child first
                    result = every
                memo[state] = result
                stack.pop()
            else:
                return result


def _prune(plant: Plant, leaf_ok) -> Optional[tuple[list[str], frozenset[Edge]]]:
    """The maximal pruning of a tree whose remaining leaves all pass
    leaf_ok: None when the root cannot be kept, else the kept leaves and
    the retained edges.  One walk from init keeps every uncontrollable
    child and every keepable controllable child, and removes the
    controllable edges into the other children; edges at states the walk
    does not reach, and terminal self-loops, stay retained."""
    keepable = _Keepable(plant, leaf_ok)
    if not keepable(plant.init):
        return None
    idx = plant.index
    leaves: list[str] = []
    removed: list[Edge] = []
    stack = [plant.init]
    while stack:
        s = stack.pop()
        if s in idx.terminals:
            leaves.append(s)
            continue
        stack += idx.u_succ.get(s, ())
        for t in idx.c_succ.get(s, ()):
            if keepable(t):
                stack.append(t)
            else:
                removed.append((s, t))
    return leaves, plant.c_edges.difference(removed)


def _tree_leaves(
    plant: Plant, f: Formula, kind: FragmentKind
) -> tuple[dict[str, int], list[Lasso]]:
    """The tree routes' shared check and set-up: raises FrameMismatch off
    trees and FragmentMismatch unless f is of the given kind; returns each
    leaf's index among the distinct leaf traces, and those traces, sorted."""
    frame = classify_frame(plant)
    if frame is not FrameKind.TREE:
        raise FrameMismatch("tree", frame.value)
    fragment = classify_fragment(f)
    if fragment.kind is not kind:
        raise FragmentMismatch(kind.value, str(fragment))
    leaf_trace = {row.terminal: row.lasso for row in plant.index.paths}
    traces = sort_lassos(set(leaf_trace.values()))
    position = {t: i for i, t in enumerate(traces)}
    return {s: position[t] for s, t in leaf_trace.items()}, traces


# --- specialized tree algorithms ----------------------------------------------


def synth_tree_exists_forall(
    plant: Plant, f: Formula, horizon: int = DEFAULT_HORIZON
) -> SynthesisResult:
    """Trees, prefix E*A (existentials then exactly one universal).

    Enumerates assignments of the existential variables over the full
    plant's traces.  An assignment is first rejected when handing one of
    its own traces to the universal variable already violates the body.
    The tree is then evaluated bottom-up to find the maximal pruning whose
    remaining leaves all satisfy the body; the assignment succeeds when
    the root survives and every existential witness trace is still
    present.  The body's verdict for each leaf comes from one
    :class:`BodyBatch` over the leaf traces, whose answers are kept while
    the assignment's outer prefix (the variables before the batch's grid)
    stays the same: one grid, or the universal variable's verdicts when
    no grid fits, so the memory held is that of one grid.
    """
    leaf, traces = _tree_leaves(plant, f, FragmentKind.E_STAR_A)
    memo: dict = {}
    batch = BodyBatch(f, traces, horizon, memo)

    for witness in product(range(len(traces)), repeat=len(f.variables) - 1):
        if witness[: batch.outer] not in memo:
            memo.clear()
        if not all(batch.holds(witness, i) for i in set(witness)):
            continue
        pruning = _prune(plant, lambda s: batch.holds(witness, leaf[s]))
        if pruning is None:
            continue
        leaves, retained = pruning
        kept = {leaf[s] for s in leaves}
        if all(i in kept for i in witness):
            return SynthesisResult(
                Verdict.REALIZABLE, ControllerSolution(retained), True
            )
    return SynthesisResult(Verdict.UNREALIZABLE, None, True)


def synth_tree_marking(
    plant: Plant, f: Formula, horizon: int = DEFAULT_HORIZON
) -> SynthesisResult:
    """Trees, prefix AE* (one universal then existentials): marking
    algorithm.

    All leaves start marked.  Rounds unmark every leaf whose trace, fed to
    the universal variable, has no satisfying joint instantiation of the
    existential variables by marked-leaf traces; the rounds stop at a
    fixed point.  Pruning then keeps the branches of marked leaves; if
    uncontrollable transitions force an unmarked leaf to survive (or force
    a subtree that cannot reach any marked leaf), the surviving leaf set
    shrinks and the marking rounds rerun on it, until the marked set and
    the realizable leaf set coincide (Realizable) or no leaf survives
    (Unrealizable).

    A round is one :func:`~hypersynth.semantics.eval_each` over one
    :class:`BodyBatch` of the leaf traces, its grid bits kept across
    rounds: when the grid holds every variable, the existentials are
    folded on the bits among the marked leaves, stopped one level short,
    which leaves one bit per trace of the universal variable; otherwise
    the variables outside the grid are enumerated over the marked leaves.
    """
    leaf, traces = _tree_leaves(plant, f, FragmentKind.A_E_STAR)
    batch = BodyBatch(f, traces, horizon, {})
    marked = list(range(len(traces)))  # leaf traces by index
    while True:
        # marking rounds: greatest set of traces that support each other
        while True:
            survivors = eval_each(batch, marked)
            if survivors == marked:
                break
            marked = survivors
        if not marked:
            return SynthesisResult(Verdict.UNREALIZABLE, None, True)
        marked_set = set(marked)
        pruning = _prune(plant, lambda s: leaf[s] in marked_set)
        if pruning is None:
            return SynthesisResult(Verdict.UNREALIZABLE, None, True)
        kept_leaves, retained = pruning
        kept = {leaf[s] for s in kept_leaves}
        if kept == marked_set:
            return SynthesisResult(
                Verdict.REALIZABLE, ControllerSolution(retained), True
            )
        marked = sorted(kept)


def dispatch(
    plant: Plant,
    f: Formula,
    bounds: Optional[tuple[int, int]] = None,
    max_candidate_bits: Optional[int] = DEFAULT_MAX_CANDIDATE_BITS,
    horizon: int = DEFAULT_HORIZON,
) -> SynthesisResult:
    """Route to the specialized tree algorithm matching the (frame,
    fragment) pair, falling back to generic candidate search."""
    validate(plant)
    frame = classify_frame(plant)
    fragment = classify_fragment(f)
    if frame is FrameKind.TREE and fragment.kind is FragmentKind.E_STAR_A:
        return synth_tree_exists_forall(plant, f, horizon)
    if frame is FrameKind.TREE and fragment.kind is FragmentKind.A_E_STAR:
        return synth_tree_marking(plant, f, horizon)
    return synth_generic(plant, f, bounds, max_candidate_bits, horizon)
