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

The same loop runs a batch (:class:`BodyBatch`), the one evaluator of the
innermost run of like quantifiers (all universal or all existential): the
last w variables over a sorted list of T traces, laid out as a grid in one
int of T^w blocks of n bits, with (S*, P*) the joint shape of the whole
list.  Block b holds the tuple whose base-T digits are b, in row-major
order, which is the lexicographic order of a loop over the list, so one
body pass decides a tuple prefix for every suffix tuple at once (the
tuples of a self-composition, after Finkbeiner, Rabe & Sanchez, CAV 2015,
each labelled as above).  w is the widest grid within the horizon.  The
atoms of the variable at grid depth d repeat each trace's mask over its
T^(w-1-d) consecutive blocks (a multiply by a short repunit), join the T
rows pairwise and tile the pattern T^d times by shift-or doubling; a fixed
variable's atom is its mask times the repunit ``rep`` (bit 0 of every
block).  Boolean connectives are unchanged; X is ``((v >> 1) & keep) |
((v << n-1-S*) & wrap)``, where ``wrap`` is the top bit of every block and
``keep`` the other bits, so no bit crosses a block boundary; F and G fill
each block towards bit 0 in log n shift steps and set the loop of every
block whose loop has a bit; U and R iterate as above.  ``root & rep``
holds one bit per suffix tuple.  The batch itself decides whether a grid
fits, and otherwise runs eval_body, the T = 1 case, tuple by tuple.

A tuple's verdict does not depend on the rest of the list, so one batch
over a plant's traces judges every pruning of it (:func:`eval_batch`):
the pruning's traces are the range of the outer variables and a grid mask
for the rest.  :func:`eval_quantified_witness` is the whole-list case.

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
    atoms, code, size = body.program
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


class BodyBatch:
    """The innermost run of like quantifiers of a formula (all universal
    or all existential) over a sorted trace list: the body's verdict for
    every tuple of the list's traces bound to the last w variables, the
    other variables fixed by a prefix tuple in prefix order.

    The grid width w is the largest, at most the run's length, for which
    T^w * n * size is within the horizon (T traces, n = S*+P* with (S*,
    P*) the joint shape of the whole list: unrolling a lasso keeps its
    truth at position 0, so one shape serves every tuple), provided P* is
    at most _MAX_PERIOD_STRETCH times the longest loop.  Then one pass
    answers for all T^w suffix tuples: block b of n bits holds the tuple
    whose base-T digits are b, in row-major order, which is the
    lexicographic order of a loop over the list.  When no width fits
    (``fits`` false), eval_body answers one tuple of the last variable at
    a time, lazily and in list order, so HorizonExceeded is raised for the
    same inputs and at the same tuple as by a loop over eval_body: a grid
    that fits has no tuple whose own n * size exceeds the horizon.

    Traces are named by their list index: a prefix, a suffix and a tuple
    are tuples of indices.  A tuple's verdict does not depend on the other
    traces of the list, so one batch over a plant's traces serves every
    pruning of it: a subset is the `among` of :meth:`first` (see
    :meth:`subset`).  A `memo` dict, when given, keeps the answers for
    callers that ask again: the grid bits by prefix, or a verdict by
    tuple.
    """

    def __init__(
        self,
        f: Formula,
        traces: list[Lasso],
        horizon: int,
        memo: Optional[dict] = None,
    ):
        self.f = f
        self.atoms, self.code, size = f.body.program
        quants = [q for q, _ in f.prefix]
        self.exists = [q is Quantifier.EXISTS for q in quants]
        self.universal = not any(self.exists)
        self.traces = traces
        self.horizon = horizon
        self.s, p = _joint_shape(traces)
        self.n = self.s + p
        run = 0
        while run < len(quants) and quants[-1 - run] is quants[-1]:
            run += 1
        self.width = w = self._width(run, p, size)
        self.fits = w > 0
        # variables enumerated outside the batch, by prefix tuples
        self.outer = len(quants) - (w or 1)
        self.names = f.variables[: self.outer]
        self.depth = {v: d for d, v in enumerate(f.variables[self.outer :])}
        self.layout = _layout(self.s, self.n, len(traces) ** w) if w else None
        self.rep = self.layout[1] if w else 0
        self.memo = memo
        self._stacked: dict[tuple[tuple[str, ...], int], list[int]] = {}

    def _width(self, run: int, p: int, size: int) -> int:
        """The widest grid of at most run variables within the horizon,
        or 0 when none fits."""
        t = len(self.traces)
        longest = max((len(x.loop) for x in self.traces), default=1)
        if not t or p > _MAX_PERIOD_STRETCH * longest:
            return 0
        w, cells = 0, self.n * size
        while w < run and cells * t <= self.horizon:
            w, cells = w + 1, cells * t
        return w

    def first(self, prefix: Indices, value: bool, among=None) -> Optional[Indices]:
        """The first suffix tuple, in lexicographic order, whose verdict
        after prefix is value, searched among a :meth:`subset` when one is
        given; None when there is none."""
        if self.fits:
            bits = self._bits(prefix)
            hits = bits if value else self.rep ^ bits
            if among is not None:
                hits &= among
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
        """The verdict of trace i bound to the last variable after prefix,
        in a grid of width 1 (an E*A prefix)."""
        if self.fits:
            return bool(self._bits(prefix) >> i * self.n & 1)
        return self._verdict(prefix, i)

    def subset(self, members: Iterable[int]):
        """The traces of the given indices, as the `among` of
        :meth:`first`: the grid blocks whose every trace is a member (the
        AND of each depth's placement), or the indices, sorted."""
        if not self.fits:
            return sorted(members)
        col = [0] * len(self.traces)
        for i in members:
            col[i] = 1
        among = self.rep
        for d in range(self.width):
            among &= self._place(col, d)
        return among

    def _verdict(self, prefix: Indices, i: int) -> bool:
        chosen = prefix + (i,)
        got = None if self.memo is None else self.memo.get(chosen)
        if got is None:
            asg = dict(zip(self.f.variables, [self.traces[j] for j in chosen]))
            got = eval_body(self.f.body, asg, self.horizon)
            if self.memo is not None:
                self.memo[chosen] = got
        return got

    def _bits(self, prefix: Indices) -> int:
        """Bit 0 of every block: the verdicts of every suffix tuple."""
        memo = self.memo
        bits = None if memo is None else memo.get(prefix)
        if bits is not None:
            return bits
        n, rep, depth, traces = self.n, self.rep, self.depth, self.traces
        fixed = dict(zip(self.names, prefix))
        vals: list[int] = []
        for var, props in self.atoms:
            d = depth.get(var)
            if d is not None:
                vals += self._stack(props, d)
            else:
                vals += [m * rep for m in traces[fixed[var]].masks(props, n)]
        bits = _run(self.code, vals, self.s, n, self.layout) & rep
        if memo is not None:
            memo[prefix] = bits
        return bits

    def _stack(self, props: tuple[str, ...], d: int) -> list[int]:
        """The grid atoms of a variable at depth d, one per proposition."""
        got = self._stacked.get((props, d))
        if got is None:
            n = self.n
            got = [
                self._place(col, d)
                for col in zip(*[t.masks(props, n) for t in self.traces])
            ]
            self._stacked[props, d] = got
        return got

    def _place(self, col: Sequence[int], d: int) -> int:
        """One n-bit word per trace laid out at grid depth d: block b gets
        the word of b's digit d.  Each word is repeated over its
        T^(w-1-d) consecutive blocks by a multiply with a short repunit,
        the T rows are joined pairwise, and the whole pattern is tiled
        T^d times."""
        n, t = self.n, len(self.traces)
        row = n * t ** (self.width - 1 - d)
        if row > n:
            rep = ((1 << row) - 1) // ((1 << n) - 1)
            col = [x * rep for x in col]
        w = row
        while len(col) > 1:  # pair up neighbours, halving the list
            if len(col) % 2:
                col = [*col, 0]
            col = [lo | hi << w for lo, hi in zip(col[::2], col[1::2])]
            w <<= 1
        return _tile(col[0], row * t, t**d)


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
    :meth:`BodyBatch.first` query among the subset per prefix tuple.  The
    verdict, the witness and any HorizonExceeded are those of a batch over
    trace_set alone, so one batch, and its memo, judges every pruning of a
    plant."""
    f = batch.f
    if not f.prefix:
        holds = eval_body(f.body, {}, batch.horizon)
        return holds, None if holds else ()
    outer, among = range(len(batch.traces)), None
    if trace_set is not None and len(trace_set) < len(batch.traces):
        outer = [i for i, t in enumerate(batch.traces) if t in trace_set]
        among = batch.subset(outer)
    holds, witness = _enumerate(batch, (), outer, among)
    if holds or not batch.universal:
        return holds, None
    return False, tuple([batch.traces[i] for i in witness])


def _enumerate(
    batch: BodyBatch, chosen: Indices, outer: Iterable[int], among
) -> tuple[bool, Optional[Indices]]:
    """Truth of the quantifiers after the chosen traces, and the first
    falsifying full tuple when it fails under universal choices only.  The
    variables after the outer ones are one batch query for the first
    suffix tuple that decides them.  A module function rather than a
    recursive closure, which would be a reference cycle left to the
    cyclic collector on every call."""
    exists = batch.exists[len(chosen)]
    if len(chosen) == batch.outer:
        suffix = batch.first(chosen, exists, among)
        if suffix is None:
            return not exists, None
        return exists, None if exists else chosen + suffix
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
