"""Evaluation of quantifier-free bodies over lasso assignments, and
satisfaction of closed formulas over finite trace sets.

Bodies are evaluated by aligning all assigned lassos to a joint lasso with
stem length S* = max stem length and period P* = lcm of loop lengths, so
that position n-1 (n = S*+P*) is followed by position S*.  Each body is
compiled once to a flat post-order program (:attr:`Body.program`); one
evaluation runs it bottom up with one Python int per instruction, bit i
holding the truth value at joint position i (path model checking by
labelling, after Markey & Schnoebelen, "Model Checking a Path", CONCUR
2003).  Boolean connectives are single bitwise operations, Next is a shift
that wraps bit S* into bit n-1, Eventually/Globally are closed forms
(a loop position reaches the whole loop), and Until/Release iterate
``r | (l & X v)`` up to the least and ``r & (l | X v)`` down to the
greatest fixed point, at most n rounds on whole ints.

The same loop runs a batch (:class:`BodyBatch`), the one evaluator of
the quantifiers: the last w variables, of any quantifier kind, over a
sorted list of T traces, laid out as a grid in one int of T^w blocks of n
bits, with (S*, P*) the joint shape of the whole list.  Block b holds the
tuple whose base-T digits are b, in row-major order, which is the
lexicographic order of a loop over the list, so one body pass evaluates
every suffix tuple of a prefix at once (the tuples of a
self-composition, after Finkbeiner, Rabe & Sanchez, CAV 2015, each
labelled as above).  w is the widest grid within the horizon.  The atoms
of the variable at grid depth d join the T traces' masks one unit
(T^(w-1-d) blocks) apart, repeat each over its unit by one multiply with
a short repunit, and tile the pattern T^d times by shift-or doubling; a
fixed variable's atom is its mask times the repunit ``rep`` (bit 0 of
every block).  Boolean connectives are unchanged; X is ``((v >> 1) &
keep) | ((v << n-1-S*) & wrap)``, where ``wrap`` is the top bit of every
block and ``keep`` the other bits, so no bit crosses a block boundary; F
and G fill each block towards bit 0 in log n shift steps and set the loop
of every block whose loop has a bit; U and R iterate as above.  ``root &
rep`` holds one bit per suffix tuple.  The grid's quantifiers are then
decided on those bits, innermost first: each level ORs the member units
of every group of T by shift-or doubling, an existential keeping a group
where some member holds and a universal one where none fails, so every
quantifier of the suffix costs a few whole-int operations instead of
body passes.  The batch itself decides whether a grid fits, and
otherwise, or for a single trace, runs eval_body, the T = 1 case, tuple
by tuple.

A tuple's verdict does not depend on the rest of the list, so one batch
over a plant's traces judges every pruning of it (:func:`eval_batch`):
the pruning's traces are the range of the outer variables and, per grid
depth, a mask of the member units for the rest.  :func:`eval_quantified_witness` is the whole-list case.

Model checking a plant reduces to quantifier enumeration over its trace
set: exact for tree/acyclic frames, bounded (and flagged as such) for
general frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import HorizonExceeded, UnboundVariable
from .formula import (
    And,
    Body,
    Eventually,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Program,
    Quantifier,
    Release,
    Until,
)
from .plant import Lasso, Plant, pruned_traces, sort_lassos

TraceAssignment = Mapping[str, Lasso]
Indices = tuple[int, ...]  # traces named by their index in a list

DEFAULT_HORIZON = 10**6


def _joint_shape(lassos: Iterable[Lasso]) -> tuple[int, int]:
    stem, period = 0, 1
    for l in lassos:
        k = len(l.stem)
        if k > stem:
            stem = k
        k = len(l.loop)
        if period % k:
            period = lcm(period, k)
    return stem, period


def _layout(s: int, n: int, blocks: int) -> tuple[int, int, int, tuple]:
    """Masks for `blocks` words of n bits side by side whose loop starts at
    bit s: every bit, bit 0 of each block (the repunit), the loop bits of
    one block, and the (shift, receiving bits) steps of a fill towards bit
    0 that stays inside each block."""
    full = (1 << n * blocks) - 1
    rep = full // ((1 << n) - 1)
    steps = []
    k = 1
    while k < n:
        steps.append((k, rep * ((1 << n - k) - 1)))
        k <<= 1
    return full, rep, ((1 << n - s) - 1) << s, tuple(steps)


def _eventually(v: int, s: int, rep: int, loop: int, steps: tuple) -> int:
    """F v on blocks side by side: fill each block towards bit 0 from its
    highest set bit, then set the whole loop of every block whose loop
    has a bit."""
    for k, m in steps:
        v |= (v >> k) & m
    return v | ((v >> s) & rep) * loop


def _run(
    code: tuple, vals: list[int], s: int, n: int, layout: Optional[tuple] = None
) -> int:
    """Run a compiled body over atom values that hold joint words of n
    bits, loop from bit s, and return the root's value: one word, or the
    blocks side by side that `layout` (from :func:`_layout`) describes."""
    if layout is None:
        full, wrap = (1 << n) - 1, 1 << n - 1
    else:
        full, rep, loop, steps = layout
        wrap = rep << n - 1
    # X v: each bit from the next position, except the top bit of each
    # block (wrap), which reads bit s of its own block
    keep = full ^ wrap
    up = n - 1 - s
    push = vals.append
    for op, a, b in code:
        if op is And:
            push(vals[a] & vals[b])
        elif op is Or:
            push(vals[a] | vals[b])
        elif op is Not:
            push(full ^ vals[a])
        elif op is Next:
            v = vals[a]
            push(((v >> 1) & keep) | ((v << up) & wrap))
        elif op is Implies:
            push((full ^ vals[a]) | vals[b])
        elif op is Iff:
            push(full ^ vals[a] ^ vals[b])
        elif op is Eventually:
            # every position reaches the whole loop; a v set on the stem
            # only is reached from the positions up to its last set bit
            v = vals[a]
            if layout is None:
                push(full if v >> s else (1 << v.bit_length()) - 1)
            else:
                push(_eventually(v, s, rep, loop, steps))
        elif op is Globally:
            # G v == !F !v
            v = full ^ vals[a]
            if layout is None:
                push(0 if v >> s else full ^ ((1 << v.bit_length()) - 1))
            else:
                push(full ^ _eventually(v, s, rep, loop, steps))
        elif op is Until:
            l, r = vals[a], vals[b]
            v, w = -1, r  # v = r | (l & X v), from below
            while w != v:
                v = w
                w = r | (l & (((v >> 1) & keep) | ((v << up) & wrap)))
            push(v)
        elif op is Release:
            l, r = vals[a], vals[b]
            v, w = -1, r  # v = r & (l | X v), from above
            while w != v:
                v = w
                w = r & (l | (((v >> 1) & keep) | ((v << up) & wrap)))
            push(v)
        else:  # TrueBool
            push(full)
    return vals[-1]


def eval_body(
    body: Body, asg: TraceAssignment, horizon: int = DEFAULT_HORIZON
) -> bool:
    """Satisfaction of the body at position 0 of the joint word.

    The assignment must bind every trace variable occurring in the body;
    a missing binding raises UnboundVariable.  All node kinds are handled,
    derived forms included, so desugaring beforehand is not required.
    Raises HorizonExceeded, before any evaluation, when (S*+P*) times the
    subformula count exceeds the horizon.
    """
    return _eval_program(body.program, asg, horizon)


def _eval_program(program: Program, asg: TraceAssignment, horizon: int) -> bool:
    """:func:`eval_body` of a compiled body, such as a formula's."""
    atoms, code, size = program
    s_star, p_star = _joint_shape(asg.values())
    n = s_star + p_star
    if n * size > horizon:
        raise HorizonExceeded(n * size, horizon)
    vals: list[int] = []
    for var, props in atoms:
        lasso = asg.get(var)
        if lasso is None:
            raise UnboundVariable(var)
        vals += lasso.masks(props, n)
    return bool(_run(code, vals, s_star, n) & 1)


# P* of a batch is the lcm of all its loops.  On general frames with
# loops of several coprime lengths that makes every block far longer than
# any one tuple needs; past this many times the longest loop the wide
# blocks cost more than the tuple-by-tuple calls they replace.
_MAX_PERIOD_STRETCH = 64


def _tile(x: int, width: int, times: int) -> int:
    """x repeated `times` times, one copy every `width` bits, by shift-or
    doubling (no multiply by a long repunit)."""
    out = shift = 0
    while times:
        if times & 1:
            out |= x << shift
            shift += width
        times >>= 1
        if times:
            x |= x << width
            width <<= 1
    return out


def _join(words: Sequence[int], width: int) -> int:
    """The words side by side, word i at bit i * width: a loop over up to
    64 words, and the two halves of a longer list joined, which keeps the
    cost near linear in the result's size."""
    if len(words) > 64:
        half = len(words) // 2
        return _join(words[:half], width) | _join(words[half:], width) << half * width
    x = shift = 0
    for word in words:
        x |= word << shift
        shift += width
    return x


class BodyBatch:
    """The last w variables of a formula, of any quantifier kind, over a
    sorted trace list: the body's verdict for every tuple of the list's
    traces bound to them, the other (outer) variables fixed by a prefix
    tuple in prefix order, and the quantifiers of those w variables
    decided on the verdict bits.

    The grid width w is the largest, at most the prefix length, for which
    T^w * n * size is within the horizon (T traces, n = S*+P* with (S*,
    P*) the joint shape of the whole list: unrolling a lasso keeps its
    truth at position 0, so one shape serves every tuple), provided P* is
    at most _MAX_PERIOD_STRETCH times the longest loop and the list holds
    two traces or more.  Then one pass answers for all T^w suffix tuples
    of a prefix tuple of the outer variables: block b of n bits holds the tuple
    whose base-T digits are b, in row-major order, which is the
    lexicographic order of a loop over the list; digit d belongs to the
    variable at grid depth d.  When no width fits (``fits`` false),
    eval_body answers one tuple of the last variable at a time, lazily
    and in list order, so HorizonExceeded is raised for the same inputs
    and at the same tuple as by a loop over eval_body: a grid that fits
    has no tuple whose own n * size exceeds the horizon.

    The quantifiers are folded on the bits (:meth:`decide`), from depth
    w-1 up to depth 0.  Level d holds one bit per unit, the first bit of
    the T^(w-1-d) blocks that share digits 0..d, so units lie u_d =
    n * T^(w-1-d) bits apart.  A level folds into the one above by one OR
    over each group of T units, member units only, taken by shift-or
    doubling: under an existential a group holds when some member unit
    holds, under a universal when no member unit fails.  Depth 0 is a
    single group, so its test is one AND with the member units.  Purely
    universal sentences ask :meth:`first` instead, for their first
    falsifying tuple.

    Traces are named by their list index: a prefix, a suffix and a tuple
    are tuples of indices.  A tuple's verdict does not depend on the other
    traces of the list, so one batch over a plant's traces serves every
    pruning of it: a subset is the `among` of :meth:`decide` and
    :meth:`first` (see :meth:`subset`).  A `memo` dict, when given, keeps
    the answers for callers that ask again: the grid bits by prefix and an
    outer variable's atoms by (variable, trace), or a verdict by tuple.
    """

    def __init__(
        self,
        f: Formula,
        traces: list[Lasso],
        horizon: int,
        memo: Optional[dict] = None,
    ):
        self.f = f
        self.atoms, self.code, size = f.program
        self.exists = [q is Quantifier.EXISTS for q, _ in f.prefix]
        self.universal = not any(self.exists)
        self.traces = traces
        self.horizon = horizon
        self.s, p = _joint_shape(traces)
        self.n = self.s + p
        self.width = w = self._width(len(f.prefix), p, size)
        self.fits = w > 0
        # variables enumerated outside the batch, by prefix tuples
        self.outer = len(f.prefix) - (w or 1)
        self.names = f.variables[: self.outer]
        self.depth = {v: d for d, v in enumerate(f.variables[self.outer :])}
        t, n = len(traces), self.n
        # per grid depth, the distance between its units, and the repunit
        # of a unit's blocks
        self.units = [n * t ** (w - 1 - d) for d in range(w)]
        self.spreads = [((1 << u) - 1) // ((1 << n) - 1) for u in self.units]
        self.layout = _layout(self.s, n, t**w) if w else None
        self.rep = self.layout[1] if w else 0
        # the first bit of every unit of depth 0
        self.top = self.layout[0] // ((1 << self.units[0]) - 1) if w else 0
        self.memo = memo
        self._stacked: dict[tuple[tuple[str, ...], int], list[int]] = {}

    def _width(self, k: int, p: int, size: int) -> int:
        """The widest grid of at most k variables within the horizon, or 0
        when none fits.  A single trace gets none: its grid would be one
        block, which eval_body, the T = 1 case, answers for less."""
        t = len(self.traces)
        if t < 2 or p > _MAX_PERIOD_STRETCH * max(len(x.loop) for x in self.traces):
            return 0
        w, cells = 0, self.n * size
        while w < k and cells * t <= self.horizon:
            w, cells = w + 1, cells * t
        return w

    def decide(self, prefix: Indices, among=None) -> bool:
        """Whether the quantifiers of the variables after prefix, a tuple
        of the outer variables, hold, each variable ranging over a
        :meth:`subset` when one is given."""
        if self.fits:
            v = self._fold(self._bits(prefix), among)
            members = self.top if among is None else among[0]
            if self.exists[self.outer]:
                return bool(v & members)
            return v & members == members
        exists = self.exists[-1]
        for i in range(len(self.traces)) if among is None else among:
            if self._verdict(prefix, i) is exists:
                return exists
        return not exists

    def supported(self, members: Sequence[int], among) -> list[int]:
        """For a batch whose grid holds every variable, the members i for
        which the quantifiers after the first variable hold with trace i
        bound to it, every later variable ranging over ``among``, the
        subset of members: one fold that stops one level short of depth
        0."""
        bits, unit = self._fold(self._bits(()), among), self.units[0]
        return [i for i in members if bits >> i * unit & 1]

    def first(self, prefix: Indices, value: bool, among=None) -> Optional[Indices]:
        """The first suffix tuple, in lexicographic order, whose verdict
        after prefix is value, searched among a :meth:`subset` when one is
        given; None when there is none."""
        if self.fits:
            bits = self._bits(prefix)
            hits = bits if value else self.rep ^ bits
            if among is not None:
                # a block is a member when its unit at every depth is
                for members, spread in zip(among, self.spreads):
                    hits &= members * spread
            if not hits:
                return None
            b = ((hits & -hits).bit_length() - 1) // self.n
            if self.width == 1:
                return (b,)
            t, suffix = len(self.traces), []
            for _ in range(self.width):
                b, i = divmod(b, t)
                suffix.append(i)
            return tuple(reversed(suffix))
        for i in range(len(self.traces)) if among is None else among:
            if self._verdict(prefix, i) is value:
                return (i,)
        return None

    def holds(self, prefix: Indices, i: int) -> bool:
        """The verdict of the full tuple prefix + (i,)."""
        if not self.fits:
            return self._verdict(prefix, i)
        b, outer = i, self.outer
        if len(prefix) > outer:  # grid digits before the last one
            t = scale = len(self.traces)
            for j in reversed(prefix[outer:]):
                b += j * scale
                scale *= t
            prefix = prefix[:outer]
        return bool(self._bits(prefix) >> b * self.n & 1)

    def subset(self, members: Iterable[int]):
        """The traces of the given indices, as the `among` of
        :meth:`decide` and :meth:`first`: per grid depth, the units whose
        trace at that depth is a member, or the indices, sorted."""
        if not self.fits:
            return sorted(members)
        members, t = list(members), len(self.traces)
        among = []
        for d, unit in enumerate(self.units):
            pattern = 0
            for i in members:
                pattern |= 1 << i * unit
            among.append(_tile(pattern, unit * t, t**d))
        return among

    def _fold(self, v: int, among) -> int:
        """The grid bits v folded from depth w-1 up to depth 1, members of
        among only: the truth of the quantifiers after depth 0 sits at the
        first bit of each unit of depth 0.  Only the first bit of a unit
        is read by the level above, so no level masks the others; depth
        0, one group, is one AND with its members (see :meth:`decide`)."""
        full, t = self.layout[0], len(self.traces)
        for d in range(self.width - 1, 0, -1):
            members = full if among is None else among[d]
            exists = self.exists[self.outer + d]
            # the units that hold under an existential, that fail under a
            # universal, ORed over each group of t by shift-or doubling
            x = v & members if exists else members & (full ^ v)
            v = shift = 0
            width, times = self.units[d], t
            while times:
                if times & 1:
                    v |= x >> shift
                    shift += width
                times >>= 1
                if times:
                    x |= x >> width
                    width <<= 1
            if not exists:
                v ^= full
        return v

    def _verdict(self, prefix: Indices, i: int) -> bool:
        chosen = prefix + (i,)
        got = None if self.memo is None else self.memo.get(chosen)
        if got is None:
            asg = dict(zip(self.f.variables, [self.traces[j] for j in chosen]))
            got = _eval_program(self.f.program, asg, self.horizon)
            if self.memo is not None:
                self.memo[chosen] = got
        return got

    def _bits(self, prefix: Indices) -> int:
        """Bit 0 of every block: the verdicts of every suffix tuple."""
        memo = self.memo
        bits = None if memo is None else memo.get(prefix)
        if bits is not None:
            return bits
        depth, fixed, rep = self.depth, dict(zip(self.names, prefix)), self.rep
        vals: list[int] = []
        for var, props in self.atoms:
            d = depth.get(var)
            if d is not None:
                vals += self._stack(props, d)
                continue
            # an outer variable's masks in every block, kept by the memo
            key = (var, fixed[var])
            got = None if memo is None else memo.get(key)
            if got is None:
                got = [m * rep for m in self.traces[key[1]].masks(props, self.n)]
                if memo is not None:
                    memo[key] = got
            vals += got
        bits = _run(self.code, vals, self.s, self.n, self.layout) & rep
        if memo is not None:
            memo[prefix] = bits
        return bits

    def _stack(self, props: tuple[str, ...], d: int) -> list[int]:
        """The grid atoms of a variable at depth d, one per proposition:
        block b gets the word of the trace of b's digit d.  The T words
        are joined one unit apart, each repeated over its T^(w-1-d)
        consecutive blocks by one multiply with a short repunit, and the
        pattern is tiled T^d times."""
        got = self._stacked.get((props, d))
        if got is None:
            n, t, unit = self.n, len(self.traces), self.units[d]
            got = [_join(col, unit) for col in zip(*[x.masks(props, n) for x in self.traces])]
            if unit > n:
                got = [x * self.spreads[d] for x in got]
            if d:
                got = [_tile(x, unit * t, t**d) for x in got]
            self._stacked[props, d] = got
        return got


def eval_quantified(
    f: Formula,
    trace_set: frozenset[Lasso] | set[Lasso],
    horizon: int = DEFAULT_HORIZON,
    cache: Optional[dict] = None,
) -> bool:
    """Decide trace_set |= f by quantifier enumeration.

    `cache` optionally memoizes body evaluations across calls; it holds
    one memo per trace set, since a batch's bits are positions in its own
    list, so callers that check many sets may share one dict.
    """
    holds, _ = eval_quantified_witness(f, trace_set, horizon, cache)
    return holds


def eval_quantified_witness(
    f: Formula,
    trace_set: frozenset[Lasso] | set[Lasso],
    horizon: int = DEFAULT_HORIZON,
    cache: Optional[dict] = None,
) -> tuple[bool, Optional[tuple[Lasso, ...]]]:
    """Like eval_quantified, but for purely universal prefixes a False
    verdict also returns the falsifying assignment tuple (in prefix order);
    any trace superset containing that tuple fails as well.

    The whole-list case of :func:`eval_batch`, over one
    :class:`BodyBatch` of the sorted trace set."""
    memo = None if cache is None else cache.setdefault(frozenset(trace_set), {})
    return eval_batch(BodyBatch(f, sort_lassos(trace_set), horizon, memo))


def eval_batch(
    batch: BodyBatch, trace_set: Optional[frozenset[Lasso] | set[Lasso]] = None
) -> tuple[bool, Optional[tuple[Lasso, ...]]]:
    """eval_quantified_witness of the batch's formula on trace_set, a
    subset of the batch's list (the whole list when None): the outer
    variables range over the subset in list order, and the rest is one
    batch query among the subset per prefix tuple: a fold
    (:meth:`BodyBatch.decide`), or the first falsifying suffix tuple
    (:meth:`BodyBatch.first`) for a purely universal sentence.  The
    verdict, the witness and any HorizonExceeded are those of a batch over
    trace_set alone, so one batch, and its memo, judges every pruning of a
    plant."""
    f = batch.f
    if not f.prefix:
        holds = _eval_program(f.program, {}, batch.horizon)
        return holds, None if holds else ()
    outer, among = range(len(batch.traces)), None
    if trace_set is not None and len(trace_set) < len(batch.traces):
        outer = [i for i, t in enumerate(batch.traces) if t in trace_set]
        among = batch.subset(outer)
    holds, witness = _enumerate(batch, (), outer, among)
    if holds or not batch.universal:
        return holds, None
    return False, tuple([batch.traces[i] for i in witness])


def eval_each(batch: BodyBatch, members: list[int]) -> list[int]:
    """For a sentence of two or more variables, the members i, a sorted
    list of indices into the batch's list, for which the quantifiers after
    the first variable hold with trace i bound to it, every later variable
    ranging over the members.  When the grid
    holds every variable this is one fold stopped one level short
    (:meth:`BodyBatch.supported`); otherwise each member is enumerated."""
    among = batch.subset(members) if len(members) < len(batch.traces) else None
    if batch.fits and not batch.outer:
        return batch.supported(members, among)
    return [i for i in members if _enumerate(batch, (i,), members, among)[0]]


def _enumerate(
    batch: BodyBatch, chosen: Indices, outer: Iterable[int], among
) -> tuple[bool, Optional[Indices]]:
    """Truth of the quantifiers after the chosen traces, and the first
    falsifying full tuple when it fails under universal choices only.  The
    variables after the outer ones are one batch query: one fold, or, for
    a purely universal sentence, the first falsifying suffix tuple.  A
    module function rather than a recursive closure, which would be a
    reference cycle left to the cyclic collector on every call."""
    if len(chosen) == batch.outer:
        if not batch.universal:
            return batch.decide(chosen, among), None
        suffix = batch.first(chosen, False, among)
        return suffix is None, None if suffix is None else chosen + suffix
    exists = batch.exists[len(chosen)]
    for i in outer:
        ok, witness = _enumerate(batch, chosen + (i,), outer, among)
        if ok is exists:
            return ok, witness
    return not exists, None


@dataclass(frozen=True)
class CheckResult:
    """Model-checking verdict; exact is False when the trace set was a
    bounded under-approximation (general frames)."""

    holds: bool
    exact: bool

    def __bool__(self) -> bool:
        return self.holds


def check(
    plant: Plant,
    f: Formula,
    bounds: Optional[tuple[int, int]] = None,
    horizon: int = DEFAULT_HORIZON,
) -> CheckResult:
    """Decide plant |= f on its trace set (see :func:`pruned_traces`):
    exact on tree/acyclic frames, the bounded lasso enumeration (given or
    default bounds) and flagged as not exact on general frames.
    """
    traces, exact = pruned_traces(plant, bounds=bounds)
    return CheckResult(eval_quantified(f, traces, horizon), exact)
