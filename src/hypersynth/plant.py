"""Plant data model, frame classification, and trace/lasso extraction.

A plant is a finite state graph whose transitions are partitioned into
controllable and uncontrollable sets, with a propositional labeling on
states.  Every state must have at least one outgoing transition, so every
maximal path is infinite and traces are infinite words over letters
(letter = set of proposition names).  Tree and acyclic frames only loop
via self-loops on terminal states, which makes their trace sets finite
and exactly representable as lassos with a one-letter loop.

Structure derived from a plant lives in its :class:`PlantIndex`, built per
``Plant`` instance and computed part by part on first read: classification
is one linear Kahn pass, whoever asks.  Nothing is cached across instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    DanglingReference,
    DeadlockState,
    NotAcyclic,
    OverlappingEdge,
    PlantFormatError,
)

Edge = tuple[str, str]
Letter = frozenset[str]


class FrameKind(Enum):
    TREE = "tree"
    ACYCLIC = "acyclic"
    GENERAL = "general"


def _letter(props: Iterable[str]) -> Letter:
    return frozenset(props)


@dataclass(frozen=True)
class Plant:
    """Finite plant with controllable (c_edges) and uncontrollable (u_edges)
    transitions.  Instances are immutable; construction normalizes the field
    containers but does not validate, call :func:`validate` for that."""

    states: frozenset[str]
    init: str
    c_edges: frozenset[Edge]
    u_edges: frozenset[Edge]
    labeling: Mapping[str, Letter] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(
            self, "c_edges", frozenset((a, b) for a, b in self.c_edges)
        )
        object.__setattr__(
            self, "u_edges", frozenset((a, b) for a, b in self.u_edges)
        )
        # canonical form: states with the empty letter are simply absent
        labels = {
            s: letter
            for s, letter in (
                (s, _letter(ps)) for s, ps in dict(self.labeling).items()
            )
            if letter
        }
        object.__setattr__(self, "labeling", labels)

    @cached_property
    def index(self) -> "PlantIndex":
        """The structural index of this instance, built on first use."""
        return PlantIndex(self)

    @property
    def edges(self) -> frozenset[Edge]:
        return self.c_edges | self.u_edges

    def label(self, state: str) -> Letter:
        return self.labeling.get(state, frozenset())


def validate(plant: Plant) -> None:
    """Check the plant invariants; raises on the first violation.

    Raises:
        DanglingReference: init, an edge endpoint, or a labeling key is
            not a declared state.
        OverlappingEdge: an edge is both controllable and uncontrollable.
        DeadlockState: a state has no outgoing transition.
    """
    if plant.init not in plant.states:
        raise DanglingReference(plant.init)
    # the sorted scans only name the first offender of a failed check
    if not plant.states.issuperset(chain.from_iterable(plant.edges)):
        for a, b in sorted(plant.edges):
            if a not in plant.states:
                raise DanglingReference(a)
            if b not in plant.states:
                raise DanglingReference(b)
    if not plant.states.issuperset(plant.labeling):
        for s in sorted(plant.labeling):
            if s not in plant.states:
                raise DanglingReference(s)
    overlap = plant.c_edges & plant.u_edges
    if overlap:
        raise OverlappingEdge(min(overlap))
    dead = plant.index.deadlocks
    if dead:
        raise DeadlockState(dead[0])


def classify_frame(plant: Plant) -> FrameKind:
    """Classify the frame as the most specific of tree, acyclic, general.

    Acyclic means the only loops are self-loops on terminal states.  Tree
    additionally requires a unique predecessor for every state except the
    root (terminal self-loops do not count as predecessors); the root must
    be the initial state.  A single state with a self-loop is a tree whose
    root and leaf coincide.  Computed once per plant instance, in linear
    time (see :attr:`PlantIndex.frame`).
    """
    return plant.index.frame


@dataclass(frozen=True, eq=False)
class Lasso:
    """Ultimately periodic word stem . loop^omega, loop nonempty.

    Two lassos are semantically equal when they denote the same infinite
    word; :func:`canonical` computes the unique reduced representative
    (primitive loop, shortest stem), and equality of canonical forms is
    exactly word equality.  The hash is precomputed: lassos are used as
    dictionary keys on hot paths.
    """

    stem: tuple[Letter, ...]
    loop: tuple[Letter, ...]

    def __post_init__(self):
        object.__setattr__(self, "stem", tuple(map(frozenset, self.stem)))
        object.__setattr__(self, "loop", tuple(map(frozenset, self.loop)))
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")
        object.__setattr__(self, "_hash", hash((self.stem, self.loop)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lasso):
            return NotImplemented
        return self.stem == other.stem and self.loop == other.loop

    @cached_property
    def _masks(self) -> dict[tuple[tuple[str, ...], int], tuple[int, ...]]:
        return {}

    def masks(self, props: tuple[str, ...], n: int) -> tuple[int, ...]:
        """Per proposition in props, the bitmask of the positions i < n
        whose letter holds it (bit i for position i).  Built once per
        (props, n) from the stem and the loop bitmasks: the loop bits are
        tiled by one multiply with a repunit of period len(loop)."""
        key = (props, n)
        got = self._masks.get(key)
        if got is not None:
            return got
        stem_bits, loop_bits = _bitmasks(self.stem, props), _bitmasks(self.loop, props)
        s, p = len(self.stem), len(self.loop)
        width = n - s
        if width <= 0:
            got = tuple([stem_bits[prop] & ((1 << n) - 1) for prop in props])
        else:
            repunit = ((1 << (p * -(-width // p))) - 1) // ((1 << p) - 1)
            window = (1 << width) - 1
            got = tuple([
                stem_bits[prop] | (((loop_bits[prop] * repunit) & window) << s)
                for prop in props
            ])
        self._masks[key] = got
        return got


def _bitmasks(letters: tuple[Letter, ...], props: tuple[str, ...]) -> dict[str, int]:
    """Per proposition, the bitmask of the letters that hold it."""
    bits = dict.fromkeys(props, 0)
    for i, letter in enumerate(letters):
        for prop in letter:
            if prop in bits:
                bits[prop] |= 1 << i
    return bits


def sort_lassos(lassos: Iterable[Lasso]) -> list[Lasso]:
    """The lassos in their canonical order: by stem, then by loop, each
    compared letter by letter (a shorter sequence first when it is a
    prefix of the other), and a letter by its sorted proposition names,
    compared the same way.  Each distinct letter is sorted once and stands
    in the keys by its rank, which orders them exactly as the sorted
    letters do."""
    lassos = list(lassos)
    letters = {l for x in lassos for part in (x.stem, x.loop) for l in part}
    rank = {l: i for i, l in enumerate(sorted(letters, key=sorted))}.__getitem__
    return sorted(
        lassos, key=lambda x: (tuple(map(rank, x.stem)), tuple(map(rank, x.loop)))
    )


def _reduced(
    stem: tuple[Letter, ...], loop: tuple[Letter, ...]
) -> tuple[tuple[Letter, ...], tuple[Letter, ...]]:
    """The reduced (stem, loop) of the word stem . loop^omega: the loop's
    primitive period, then the trailing stem letters that merely
    pre-rotate the loop absorbed into it."""
    n = len(loop)
    for p in range(1, n):
        if n % p == 0 and loop == loop[:p] * (n // p):
            loop = loop[:p]
            break
    s, p = len(stem), len(loop)
    k = 0
    while k < s and stem[s - 1 - k] == loop[-1 - k % p]:
        k += 1
    if k:
        r = p - k % p  # the loop rotated right by k
        stem, loop = stem[: s - k], loop[r:] + loop[:r]
    return stem, loop


def canonical(lasso: Lasso) -> Lasso:
    """The unique reduced representative of the lasso's word: primitive
    loop, shortest stem.  A reduced lasso is returned as it is."""
    stem, loop = _reduced(lasso.stem, lasso.loop)
    if len(stem) == len(lasso.stem) and len(loop) == len(lasso.loop):
        return lasso
    return Lasso(stem, loop)


def lasso_equal(x: Lasso, y: Lasso) -> bool:
    """True iff x and y denote the same infinite word."""
    return canonical(x) == canonical(y)


class PathRow(NamedTuple):
    """A maximal path: its terminal state, the controllable edges it
    crosses (terminal self-loop included) as a bitmask over
    :attr:`PlantIndex.c_bit`, and its canonical trace."""

    terminal: str
    c_used: int
    lasso: Lasso


class PlantIndex:
    """Structure derived from one plant, each part computed on first read.
    It keeps the plant's fields, not the plant, so the two form no
    reference cycle.  Successor lists are sorted."""

    def __init__(self, plant: Plant):
        self._states = plant.states
        self._init = plant.init
        self._c_edges = plant.c_edges
        self._u_edges = plant.u_edges
        self._labeling = plant.labeling

    @staticmethod
    def _successors(edges, sources) -> dict[str, list[str]]:
        succ: dict[str, list[str]] = {s: [] for s in sources}
        for a, b in edges:
            succ[a].append(b)
        for lst in succ.values():
            lst.sort()
        return succ

    @cached_property
    def adjacency(self) -> dict[str, list[str]]:
        """Successors of every state over all edges."""
        return self._successors(self._c_edges | self._u_edges, self._states)

    @cached_property
    def c_succ(self) -> dict[str, list[str]]:
        """Successors over the controllable edges, keyed by their sources."""
        return self._successors(self._c_edges, {a for a, _ in self._c_edges})

    @cached_property
    def u_succ(self) -> dict[str, list[str]]:
        """Successors over the uncontrollable edges, keyed by their sources."""
        return self._successors(self._u_edges, {a for a, _ in self._u_edges})

    @cached_property
    def c_bit(self) -> dict[Edge, int]:
        """The bit position of each controllable edge, numbered in sorted
        edge order.  Positions rather than the ints 1 << i, which would
        take space quadratic in the edge count."""
        return {e: i for i, e in enumerate(sorted(self._c_edges))}

    def c_mask(self, edges: Iterable[Edge]) -> int:
        """The bitmask of controllable edges."""
        bit, mask = self.c_bit, 0
        for e in edges:
            mask |= 1 << bit[e]
        return mask

    def c_choices(self) -> Iterator[tuple[int, bool]]:
        """One entry per state with controllable out-edges, in state order:
        the mask of those edges, and whether the state also has an
        uncontrollable way out."""
        u_succ = self.u_succ
        for s, succ in sorted(self.c_succ.items()):
            yield self.c_mask([(s, t) for t in succ]), s in u_succ

    @cached_property
    def terminals(self) -> frozenset[str]:
        """States whose only outgoing transition is a self-loop."""
        return frozenset(s for s, succ in self.adjacency.items() if succ == [s])

    @cached_property
    def deadlocks(self) -> list[str]:
        """States without an outgoing transition, sorted."""
        return sorted(s for s, succ in self.adjacency.items() if not succ)

    @cached_property
    def frame(self) -> FrameKind:
        """The frame kind (see :func:`classify_frame`), from one Kahn pass
        over the adjacency with terminal self-loops left out: O(V + E)."""
        adj, terminals = self.adjacency, self.terminals
        indeg = dict.fromkeys(adj, 0)
        for s, succ in adj.items():
            if s in terminals:
                continue
            for t in succ:
                if t == s:
                    return FrameKind.GENERAL
                indeg[t] += 1
        preds = dict(indeg)
        queue = [s for s, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            s = queue.pop()
            seen += 1
            if s in terminals:
                continue
            for t in adj[s]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
        if seen != len(adj):
            return FrameKind.GENERAL
        init = self._init
        if preds[init] == 0 and all(n == 1 for s, n in preds.items() if s != init):
            return FrameKind.TREE
        return FrameKind.ACYCLIC

    @cached_property
    def paths(self) -> tuple[PathRow, ...]:
        """Every maximal path from init, by one DFS; raises NotAcyclic on
        general frames."""
        if self.frame is FrameKind.GENERAL:
            raise NotAcyclic()
        adj, terminals, bit = self.adjacency, self.terminals, self.c_bit.get
        labeling, empty = self._labeling, frozenset()
        rows: list[PathRow] = []
        stack = [(self._init, (), 0)]  # state, labels so far, c-edge mask so far
        while stack:
            state, labels, used = stack.pop()
            if state in terminals:
                i = bit((state, state))
                if i is not None:
                    used |= 1 << i
                lasso = Lasso(*_reduced(labels, (labeling.get(state, empty),)))
                rows.append(PathRow(state, used, lasso))
                continue
            here = labels + (labeling.get(state, empty),)
            for nxt in adj[state]:
                i = bit((state, nxt))
                stack.append((nxt, here, used if i is None else used | 1 << i))
        return tuple(rows)

    def surviving(self, removed: int) -> Iterator[PathRow]:
        """The paths, in order, that cross none of the removed controllable
        edges (a mask): on tree/acyclic frames, the paths of the pruning."""
        return (r for r in self.paths if not r.c_used & removed)

    @cached_property
    def reachable(self) -> frozenset[str]:
        """States reachable from init."""
        adj = self.adjacency
        seen = {self._init}
        stack = [self._init]
        while stack:
            for t in adj[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)


def enumerate_traces(plant: Plant) -> frozenset[Lasso]:
    """The exact, finite trace set of a tree or acyclic plant.

    Every maximal path ends in a terminal self-loop, so each trace is a
    lasso with a one-letter loop.  Traces are words: paths with identical
    label sequences collapse.  Raises NotAcyclic on general frames.
    """
    return frozenset(row.lasso for row in plant.index.paths)


def enumerate_lassos(
    plant: Plant, stem_bound: int, loop_bound: int
) -> frozenset[Lasso]:
    """Bounded under-approximation of the trace set for arbitrary frames.

    Returns every word (as a canonical lasso) realizable by a walk from
    init of length <= stem_bound followed by a closed walk of length in
    [1, loop_bound] at the reached state.  For tree/acyclic frames with
    stem_bound >= |S| and loop_bound >= 1 this equals enumerate_traces.
    """
    if stem_bound < 0 or loop_bound < 1:
        raise ValueError("bounds must be nonnegative / positive")
    adj = plant.index.adjacency
    label = plant.label

    # walk prefixes up to the stem bound, deduplicated by (state, labels)
    stems: set[tuple[str, tuple[Letter, ...]]] = {(plant.init, ())}
    frontier = [(plant.init, ())]
    for _ in range(stem_bound):
        nxt_frontier = []
        for state, labels in frontier:
            step = labels + (label(state),)
            for nxt in adj[state]:
                key = (nxt, step)
                if key not in stems:
                    stems.add(key)
                    nxt_frontier.append(key)
        frontier = nxt_frontier

    cycle_cache: dict[str, set[tuple[Letter, ...]]] = {}

    def cycles_at(anchor: str) -> set[tuple[Letter, ...]]:
        if anchor in cycle_cache:
            return cycle_cache[anchor]
        found: set[tuple[Letter, ...]] = set()
        seen: set[tuple[str, tuple[Letter, ...]]] = {(anchor, ())}
        walk = [(anchor, ())]
        for _ in range(loop_bound):
            nxt_walk = []
            for state, labels in walk:
                step = labels + (label(state),)
                for nxt in adj[state]:
                    if nxt == anchor:
                        found.add(step)
                    key = (nxt, step)
                    if key not in seen:
                        seen.add(key)
                        nxt_walk.append(key)
            walk = nxt_walk
        cycle_cache[anchor] = found
        return found

    # reduce each word as letter tuples, then build one lasso per word
    words = {_reduced(labels, loop) for state, labels in stems for loop in cycles_at(state)}
    return frozenset([Lasso(stem, loop) for stem, loop in words])


def default_bounds(plant: Plant) -> tuple[int, int]:
    """Default lasso bounds for general frames: (|S|, |S|)."""
    n = len(plant.states)
    return (n, n)


def pruned_traces(
    plant: Plant,
    retained: frozenset[Edge] | None = None,
    bounds: tuple[int, int] | None = None,
) -> tuple[frozenset[Lasso], bool]:
    """The trace set of the plant with its controllable edges pruned to
    retained (all of them when None), and whether that set is exact.

    retained must leave every state an outgoing edge.  On tree/acyclic
    frames pruning never rewrites a surviving path, so the traces are the
    lassos of the paths that cross no removed edge
    (:meth:`PlantIndex.surviving`): exact.
    On general frames they are the bounded lassos of the pruned plant
    (given or default bounds): not exact, acyclic prunings included.
    """
    idx = plant.index
    if idx.frame is not FrameKind.GENERAL:
        if retained is None:
            return enumerate_traces(plant), True
        removed = idx.c_mask(plant.c_edges.difference(retained))
        return frozenset([r.lasso for r in idx.surviving(removed)]), True
    if retained is not None:
        plant = Plant(plant.states, plant.init, retained, plant.u_edges, plant.labeling)
    return enumerate_lassos(plant, *(bounds or default_bounds(plant))), False


# --- JSON interchange ----------------------------------------------------

_PLANT_KEYS = {"states", "init", "labels", "controllable", "uncontrollable"}


def plant_from_dict(data: dict) -> Plant:
    if not isinstance(data, dict):
        raise PlantFormatError("plant document must be a JSON object")
    unknown = set(data) - _PLANT_KEYS
    if unknown:
        raise PlantFormatError(f"unknown keys: {sorted(unknown)}")
    missing = _PLANT_KEYS - set(data)
    if missing:
        raise PlantFormatError(f"missing keys: {sorted(missing)}")
    states = data["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise PlantFormatError("states must be an array of strings")
    if not isinstance(data["init"], str):
        raise PlantFormatError("init must be a string")
    labels = data["labels"]
    if not isinstance(labels, dict):
        raise PlantFormatError("labels must be an object")
    for s, props in labels.items():
        if not isinstance(props, list) or not all(isinstance(p, str) for p in props):
            raise PlantFormatError(f"labels[{s!r}] must be an array of strings")

    def edges(key: str) -> list[Edge]:
        raw = data[key]
        if not isinstance(raw, list):
            raise PlantFormatError(f"{key} must be an array of [from, to] pairs")
        pairs = []
        for item in raw:
            if not (
                isinstance(item, list)
                and len(item) == 2
                and isinstance(item[0], str)
                and isinstance(item[1], str)
            ):
                raise PlantFormatError(f"{key} entries must be [from, to] pairs")
            pairs.append((item[0], item[1]))
        return pairs

    return Plant(
        states=frozenset(states),
        init=data["init"],
        c_edges=frozenset(edges("controllable")),
        u_edges=frozenset(edges("uncontrollable")),
        labeling={s: frozenset(props) for s, props in labels.items()},
    )


def load_plant(text: str) -> Plant:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed text, or an integer past the digit limit
        raise PlantFormatError(f"invalid JSON: {exc}") from exc
    return plant_from_dict(data)


def dump_plant(plant: Plant) -> str:
    """The plant as the JSON object :func:`load_plant` reads, its keys in
    sorted order: ``controllable`` (the edges as ``[from, to]`` pairs,
    sorted), ``init``, ``labels`` (every state, unlabeled ones too, mapped
    to its sorted propositions, states sorted), ``states`` (sorted) and
    ``uncontrollable`` (as ``controllable``).  The text, plus a newline,
    is what ``json.dumps(..., indent=2, sort_keys=True)`` writes for that
    object, written directly: the standard library indents in pure
    Python, which made dumping (for a witness's ``plant_sha256``) the
    largest part of a CLI synthesis on a large plant."""
    names = plant.states.union(chain.from_iterable(plant.edges))
    quote = dict(zip(names, map(_quote, names))).__getitem__  # each name once
    states = sorted(plant.states)
    sep = ",\n      "
    labels = [  # a canonical label is nonempty
        f"{quote(s)}: [\n      {sep.join(map(_quote, sorted(plant.labeling[s])))}\n    ]"
        if s in plant.labeling
        else f"{quote(s)}: []"
        for s in states
    ]
    label_block = "{\n    " + ",\n    ".join(labels) + "\n  }" if labels else "{}"
    return (
        "{\n"
        f'  "controllable": {_edge_array(plant.c_edges, quote)},\n'
        f'  "init": {_quote(plant.init)},\n'
        f'  "labels": {label_block},\n'
        f'  "states": {_json_array(list(map(quote, states)), "  ")},\n'
        f'  "uncontrollable": {_edge_array(plant.u_edges, quote)}\n'
        "}\n"
    )


def dump_edges(edges: Iterable[Edge]) -> str:
    """The edges, sorted, as the array of [from, to] pairs that json.dumps
    with indent=2 writes for a value of a top-level object."""
    return _edge_array(edges, _quote)


def _edge_array(edges: Iterable[Edge], quote) -> str:
    return _json_array(
        [f"[\n      {quote(a)},\n      {quote(b)}\n    ]" for a, b in sorted(edges)], "  "
    )


def _json_array(items: list[str], pad: str) -> str:
    """JSON array of already encoded items, laid out as json.dumps does
    with indent=2 when the array starts at indentation pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _dot_escape(text: str) -> str:
    """Text for inside a DOT quoted string: backslashes and quotes
    escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(plant: Plant) -> str:
    """Plain structural DOT dump; controllable edges solid, uncontrollable
    dashed, names and propositions escaped.  No layout logic."""
    esc = _dot_escape
    lines = ["digraph plant {"]
    for s in sorted(plant.states):
        props = esc(",".join(sorted(plant.label(s))))
        shape = ' shape="doublecircle"' if s == plant.init else ""
        lines.append(f'  "{esc(s)}" [label="{esc(s)}\\n{{{props}}}"{shape}];')
    for a, b in sorted(plant.c_edges):
        lines.append(f'  "{esc(a)}" -> "{esc(b)}";')
    for a, b in sorted(plant.u_edges):
        lines.append(f'  "{esc(a)}" -> "{esc(b)}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
