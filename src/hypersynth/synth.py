"""Synthesis engine: decide whether the controllable transitions of a
plant can be restricted so the pruned plant satisfies a closed formula,
and produce a witness controller.

Three routes:

* synth_generic, every prefix and frame - one search for a minimum set of
  removed controllable edges (:func:`_min_removal`), over removal sets of
  increasing size under the deadlock rule, so the first pruning that
  passes is a maximally permissive witness.  Universal prefixes on
  tree/acyclic frames extend a set only by the edges of a blocking clause:
  each failed pruning's falsifying trace tuple becomes a clause over
  controllable edges, as a passing pruning cuts one of the paths that
  carried the tuple.  Every other case extends a set by every removable
  edge, judging each deadlock-free pruning once; for a universal prefix a
  pruning whose traces hold an earlier falsifying tuple is skipped, and
  an existential prefix stops after the full plant.
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

The removal search builds one :class:`~hypersynth.semantics.BodyBatch`
per synthesis, over the full plant's traces, and judges each pruning
inside it (:func:`~hypersynth.semantics.eval_batch`): a pruning's traces
are a subset of the full plant's (exact paths, or lassos under the same
bounds), so a tuple prefix is evaluated once per synthesis, not once per
pruning.

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
from itertools import product
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


# --- removal search ----------------------------------------------------------


def candidate_space_bits(plant: Plant) -> float:
    """log2 of the number of deadlock-free retained-edge subsets."""
    bits = 0.0
    for out, has_u in plant.index.c_choices():
        n = out.bit_count()
        bits += log2(2**n if has_u else 2**n - 1)
    return bits


def synth_generic(
    plant: Plant,
    f: Formula,
    bounds: Optional[tuple[int, int]] = None,
    max_candidate_bits: Optional[int] = DEFAULT_MAX_CANDIDATE_BITS,
    horizon: int = DEFAULT_HORIZON,
) -> SynthesisResult:
    """Guess-and-check over the deadlock-free prunings, realizing the
    membership bound, for every prefix and frame: :func:`_min_removal`
    finds a least set of removed edges, so the witness is maximally
    permissive.  The candidate space guard refuses searches beyond
    2**max_candidate_bits candidates (pass None to disable); existential
    prefixes bypass it, as only the full plant is judged for them.

    On a general frame every pruning is judged on its bounded lasso set,
    acyclic prunings included, so the search can answer BoundedUnknown
    where ``check`` on one of its prunings, switching to that pruning's
    exact traces, says the formula holds.
    """
    validate(plant)
    kind = classify_fragment(f).kind
    if kind is not FragmentKind.E_STAR and max_candidate_bits is not None:
        bits = candidate_space_bits(plant)
        if bits > max_candidate_bits:
            raise CandidateSpaceExceeded(bits, max_candidate_bits)
    return _min_removal(plant, f, kind, bounds, horizon)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _min_removal(
    plant: Plant,
    f: Formula,
    kind: FragmentKind,
    bounds: Optional[tuple[int, int]],
    horizon: int,
) -> SynthesisResult:
    """A minimum set of removed controllable edges (a mask over
    :attr:`~hypersynth.plant.PlantIndex.c_bit`) whose pruning satisfies f.

    Removal sets are expanded by increasing size, each at most once, and
    the first whose pruning passes is the witness.  An edge is not removed
    when it is its state's last way out (deadlock freedom).  Every pruning
    is judged on its traces from :func:`~hypersynth.plant.pruned_traces`,
    inside one batch over the full plant's traces, a superset of each
    pruning's.  How a set is extended depends on the prefix and frame:

    * A universal prefix on a tree/acyclic frame: counterexample-guided
      (CEGIS, Solar-Lezama et al., ASPLOS 2006, run as implicit hitting
      sets, Davies & Bacchus, CP 2011).  A universal formula that fails on
      a trace set fails on every superset, so each falsifying tuple blocks
      every removal set that leaves one surviving path of each of its
      traces: a passing removal set must contain one of those paths'
      removable edges (a clause).  A set that misses a clause is extended
      by each edge of the first such clause; a set that hits every clause
      is judged and either passes or yields a new clause.  An empty clause
      means Unrealizable.
    * Every other case: each set is extended by each removable edge above
      its highest one, so every deadlock-free pruning is reached once, by
      size and then in lexicographic order of the removed edges.  An
      existential prefix stops after the full plant: pruning only shrinks
      the trace set, which never helps an existential formula.

    For a universal prefix, a pruning whose traces hold a stored
    falsifying tuple (a core) fails without being judged.  No set left to
    expand means Unrealizable, or BoundedUnknown on a general frame."""
    idx = plant.index
    edges = list(idx.c_bit)  # by bit position
    full, exact = pruned_traces(plant, bounds=bounds)
    batch = BodyBatch(f, sort_lassos(full), horizon, {})
    removable = 0
    # per edge bit position, the controllable out-edges of its source when
    # the source has no uncontrollable way out: they may not all go
    last_way: dict[int, int] = {}
    for out, has_u in idx.c_choices():
        if has_u:
            removable |= out
        elif out & out - 1:  # two edges or more
            removable |= out
            last_way.update(dict.fromkeys(_bits(out), out))
    guided = kind is FragmentKind.A_STAR and exact
    clauses: list[int] = []
    cores: list[frozenset[Lasso]] = []
    # guided extension can reach a set from several parents; otherwise a
    # set's one parent is itself less its highest edge, and seen stays {0}
    level, seen = [0], {0}
    while level:
        following = []
        for removed in level:
            clause = next((c for c in clauses if not c & removed), None)
            if clause is None:
                retained = plant.c_edges.difference([edges[i] for i in _bits(removed)])
                traces = pruned_traces(plant, retained, bounds)[0] if removed else full
                core = next((c for c in cores if c <= traces), None)
                if core is None:
                    ok, witness = eval_batch(batch, traces)
                    if ok:
                        solution = ControllerSolution(retained)
                        return SynthesisResult(Verdict.REALIZABLE, solution, exact)
                    if kind is FragmentKind.E_STAR:
                        break  # the full plant was the only set
                    if witness is not None:
                        core = frozenset(witness)
                        cores.append(core)
                if guided:
                    clause = _blocking_clause(idx.surviving(removed), core) & removable
                    if not clause:
                        return SynthesisResult(Verdict.UNREALIZABLE, None, True)
                    clauses.append(clause)
            if not guided:
                top = removed.bit_length()
                clause = removable >> top << top
            for i in _bits(clause):
                child = removed | 1 << i
                way = last_way.get(i)
                if child not in seen and (way is None or child & way != way):
                    if guided:
                        seen.add(child)
                    following.append(child)
        level = following
    if exact:
        return SynthesisResult(Verdict.UNREALIZABLE, None, True)
    return SynthesisResult(Verdict.BOUNDED_UNKNOWN, None, False)


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
    fragment) pair, falling back to the removal search of synth_generic."""
    validate(plant)
    frame = classify_frame(plant)
    fragment = classify_fragment(f)
    if frame is FrameKind.TREE and fragment.kind is FragmentKind.E_STAR_A:
        return synth_tree_exists_forall(plant, f, horizon)
    if frame is FrameKind.TREE and fragment.kind is FragmentKind.A_E_STAR:
        return synth_tree_marking(plant, f, horizon)
    return synth_generic(plant, f, bounds, max_candidate_bits, horizon)
