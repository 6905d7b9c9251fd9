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
innermost quantifier: the T traces of a list side by side in one int, one
block of n bits per trace, with (S*, P*) the joint shape of the whole
list, so one body pass decides a tuple prefix for all T traces.  The
batched variable's atoms are the traces' masks concatenated; a fixed
variable's atom is its mask times the repunit ``rep`` (bit 0 of every
block).  Boolean connectives are unchanged; X is ``((v >> 1) & keep) |
((v << n-1-S*) & wrap)``, where ``wrap`` is the top bit of every block and
``keep`` the other bits, so no bit crosses a block boundary; F and G fill
each block towards bit 0 in log n shift steps and set the loop of every
block whose loop has a bit; U and R iterate as above.  ``root & rep``
holds one bit per trace.  The batch itself decides whether the whole list
fits, and otherwise runs eval_body, the T = 1 case, tuple by tuple.

Model checking a plant reduces to quantifier enumeration over its trace
set: exact for tree/acyclic frames, bounded (and flagged as such) for
general frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Optional

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
Prefix = tuple[Lasso, ...]

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


class BodyBatch:
    """The innermost quantifier of a formula over a sorted trace list: the
    body's verdict for each trace of the list bound to the last variable,
    the other variables fixed by a prefix tuple in prefix order.

    When the whole list fits (``fits``: it is nonempty, len(traces) * n *
    size is within the horizon, and P* is at most _MAX_PERIOD_STRETCH times
    the longest loop), one pass answers for every trace of a prefix: block
    i of n = S*+P* bits holds trace i, (S*, P*) the joint shape of the
    whole list (unrolling a lasso keeps its truth at position 0, so one
    shape serves every tuple).  Otherwise eval_body answers one tuple at a
    time, lazily and in list order, so HorizonExceeded is raised for the
    same inputs and at the same tuple as by a loop over eval_body: a list
    that fits has no tuple whose own n * size exceeds the horizon.

    A `memo` dict, when given, keeps the answers for callers that ask
    again: the bits of the whole list by prefix, or a verdict by tuple.
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
        *self.names, self.var = f.variables
        self.traces = traces
        self.horizon = horizon
        self.s, p = _joint_shape(traces)
        self.n = n = self.s + p
        longest = max((len(t.loop) for t in traces), default=1)
        self.fits = (
            0 < len(traces) * n * size <= horizon
            and p <= _MAX_PERIOD_STRETCH * longest
        )
        self.layout = _layout(self.s, n, len(traces)) if self.fits else None
        self.rep = self.layout[1] if self.fits else 0
        self.memo = memo
        self._stacked: dict[tuple[str, ...], list[int]] = {}

    @cached_property
    def position(self) -> dict[Lasso, int]:
        return {t: i for i, t in enumerate(self.traces)}

    def first(self, prefix: Prefix, value: bool, among=None) -> Optional[int]:
        """The lowest list index of a trace whose verdict after prefix is
        value, searched among a :meth:`subset` when one is given; None when
        there is none."""
        if self.fits:
            bits = self._bits(prefix)
            hits = bits if value else self.rep ^ bits
            if among is not None:
                hits &= among
            return ((hits & -hits).bit_length() - 1) // self.n if hits else None
        for i in range(len(self.traces)) if among is None else among:
            if self._verdict(prefix, i) is value:
                return i
        return None

    def holds(self, prefix: Prefix, trace: Lasso) -> bool:
        """The verdict of one trace of the list after prefix."""
        i = self.position[trace]
        if self.fits:
            return bool(self._bits(prefix) >> i * self.n & 1)
        return self._verdict(prefix, i)

    def subset(self, members: Iterable[Lasso]):
        """Traces of the list, as the `among` of :meth:`first`."""
        at = sorted(self.position[t] for t in members)
        return sum(1 << i * self.n for i in at) if self.fits else at

    def _verdict(self, prefix: Prefix, i: int) -> bool:
        chosen = prefix + (self.traces[i],)
        got = None if self.memo is None else self.memo.get(chosen)
        if got is None:
            got = eval_body(self.f.body, dict(zip(self.f.variables, chosen)), self.horizon)
            if self.memo is not None:
                self.memo[chosen] = got
        return got

    def _bits(self, prefix: Prefix) -> int:
        """Bit 0 of every block: the verdicts of the whole list."""
        memo = self.memo
        bits = None if memo is None else memo.get(prefix)
        if bits is not None:
            return bits
        n, rep = self.n, self.rep
        fixed = dict(zip(self.names, prefix))
        vals: list[int] = []
        for var, props in self.atoms:
            if var == self.var:
                vals += self._stack(props)
            else:
                vals += [m * rep for m in fixed[var].masks(props, n)]
        bits = _run(self.code, vals, self.s, n, self.layout) & rep
        if memo is not None:
            memo[prefix] = bits
        return bits

    def _stack(self, props: tuple[str, ...]) -> list[int]:
        got = self._stacked.get(props)
        if got is None:
            n = self.n
            got = []
            for col in zip(*[t.masks(props, n) for t in self.traces]):
                col, w = list(col), n
                while len(col) > 1:  # pair up neighbours, halving the list
                    if len(col) % 2:
                        col.append(0)
                    col = [lo | hi << w for lo, hi in zip(col[::2], col[1::2])]
                    w <<= 1
                got.append(col[0])
            self._stacked[props] = got
        return got


def eval_quantified(
    f: Formula,
    trace_set: frozenset[Lasso] | set[Lasso],
    horizon: int = DEFAULT_HORIZON,
    cache: Optional[dict] = None,
) -> bool:
    """Decide trace_set |= f by quantifier enumeration.

    `cache` optionally memoizes body evaluations across calls; it holds
    one memo per trace set, since a batch's result depends on the whole
    set, so callers that check many sets may share one dict.
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

    The innermost quantifier is one :class:`BodyBatch` query per tuple of
    outer traces."""
    quants = tuple(q for q, _ in f.prefix)
    if not quants:
        holds = eval_body(f.body, {}, horizon)
        return holds, None if holds else ()
    memo = None if cache is None else cache.setdefault(frozenset(trace_set), {})
    batch = BodyBatch(f, sort_lassos(trace_set), horizon, memo)
    holds, witness = _enumerate(quants, batch, ())
    if holds or not all(q is Quantifier.FORALL for q in quants):
        return holds, None
    return False, witness


def _enumerate(
    quants: tuple[Quantifier, ...],
    batch: BodyBatch,
    chosen: tuple[Lasso, ...],
) -> tuple[bool, Optional[tuple[Lasso, ...]]]:
    """Truth of the quantifiers after the chosen traces, and the first
    falsifying full tuple when it fails under universal choices only.  The
    last quantifier is one batch query for the first trace that decides
    it.  A module function rather than a recursive closure, which would be
    a reference cycle left to the cyclic collector on every call."""
    exists = quants[len(chosen)] is Quantifier.EXISTS
    if len(chosen) == len(quants) - 1:
        i = batch.first(chosen, exists)
        if i is None:
            return not exists, None
        return exists, None if exists else chosen + (batch.traces[i],)
    for t in batch.traces:
        ok, witness = _enumerate(quants, batch, chosen + (t,))
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
