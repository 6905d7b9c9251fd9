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

The same loop runs a batch (:class:`BodyBatch`): the innermost
quantifier's T traces side by side in one int, one block of n bits per
trace, with (S*, P*) the joint shape of the whole trace list, so one body
pass decides a tuple prefix for all T traces.  The batched variable's
atoms are the traces' masks concatenated; a fixed variable's atom is its
mask times the repunit ``rep`` (bit 0 of every block).  Boolean
connectives are unchanged; X is ``((v >> 1) & keep) | ((v << n-1-S*) &
wrap)``, where ``wrap`` is the top bit of every block and ``keep`` the
other bits, so no bit crosses a block boundary; F and G fill each block
towards bit 0 in log n shift steps and set the loop of every block whose
loop has a bit; U and R iterate as above.  ``root & rep`` holds one bit
per trace: A is all set, E is any set, and the falsifying trace is the
lowest clear block.  A batch runs only when T * n * size is within the
horizon, so HorizonExceeded is raised for the same inputs and at the same
tuple as tuple by tuple, and only when P* is at most 64 times the longest
loop; otherwise the tuples run one by one.  eval_body is the T = 1 case.

Model checking a plant reduces to quantifier enumeration over its trace
set: exact for tree/acyclic frames, bounded (and flagged as such) for
general frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterable, Mapping, Optional

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
from .plant import (
    FrameKind,
    Lasso,
    Plant,
    classify_frame,
    default_bounds,
    enumerate_lassos,
    enumerate_traces,
    sort_lassos,
)

TraceAssignment = Mapping[str, Lasso]

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
    """The body of a formula evaluated at once for every trace of a sorted
    list bound to its last variable, the other variables fixed by a prefix
    tuple in prefix order.

    Each trace gets a block of n = S*+P* bits, (S*, P*) the joint shape of
    the whole list (unrolling a lasso keeps its truth at position 0, so
    one shape serves every tuple); block i holds trace i.  The batched
    atoms are the traces' masks concatenated, built once per proposition
    list; a fixed atom is its mask times the repunit.  A call returns the
    root's bit 0 of every block; a `memo` dict, when given, keeps the
    results by prefix (they depend on the whole list).

    ``fits`` says whether the list is nonempty, len(traces) * n * size is
    within the horizon, and P* is at most _MAX_PERIOD_STRETCH times the
    longest loop.  Callers run a batch only then and otherwise evaluate
    tuple by tuple, so HorizonExceeded is raised exactly where eval_body
    raises it: each tuple's own n is at most the batch's.
    """

    def __init__(
        self,
        f: Formula,
        traces: list[Lasso],
        horizon: int,
        memo: Optional[dict] = None,
    ):
        self.atoms, self.code, size = f.body.program
        *self.names, self.var = f.variables
        self.traces = traces
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

    def __call__(self, prefix: tuple[Lasso, ...]) -> int:
        memo = self.memo
        if memo is not None and prefix in memo:
            return memo[prefix]
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

    def first_clear(self, bits: int) -> Lasso:
        """The first trace whose block has its bit clear in bits."""
        missed = self.rep ^ bits
        return self.traces[((missed & -missed).bit_length() - 1) // self.n]


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

    The innermost quantifier runs as one :class:`BodyBatch` per tuple of
    outer traces when the batch fits, and tuple by tuple otherwise; both
    give the same verdict and witness."""
    traces = sort_lassos(trace_set)
    names = f.variables
    universal = all(q is Quantifier.FORALL for q, _ in f.prefix)
    memo = {} if cache is None else cache.setdefault(frozenset(trace_set), {})
    batch = BodyBatch(f, traces, horizon, memo) if names else None
    if batch is not None and not batch.fits:
        batch = None

    def base(chosen: tuple[Lasso, ...]) -> bool:
        result = memo.get(chosen)
        if result is None:
            result = memo[chosen] = eval_body(f.body, dict(zip(names, chosen)), horizon)
        return result

    quants = tuple(q for q, _ in f.prefix)
    holds, witness = _enumerate(quants, traces, base, batch, ())
    if holds or not universal:
        return holds, None
    return False, witness


def _enumerate(
    quants: tuple[Quantifier, ...],
    traces: list[Lasso],
    base: Callable[[tuple[Lasso, ...]], bool],
    batch: Optional[BodyBatch],
    chosen: tuple[Lasso, ...],
) -> tuple[bool, Optional[tuple[Lasso, ...]]]:
    """Truth of the quantifiers after the chosen traces, and the first
    falsifying full tuple when it fails under universal choices only.  The
    last quantifier is one batch when there is one, else a loop over base.
    A module function rather than a recursive closure, which would be a
    reference cycle left to the cyclic collector on every call."""
    depth = len(chosen)
    if depth == len(quants):
        ok = base(chosen)
        return ok, (None if ok else chosen)
    exists = quants[depth] is Quantifier.EXISTS
    if batch is not None and depth == len(quants) - 1:
        bits = batch(chosen)
        if exists:
            return bits != 0, None
        if bits == batch.rep:
            return True, None
        return False, chosen + (batch.first_clear(bits),)
    if exists:
        for t in traces:
            ok, _ = _enumerate(quants, traces, base, batch, chosen + (t,))
            if ok:
                return True, None
        return False, None
    for t in traces:
        ok, witness = _enumerate(quants, traces, base, batch, chosen + (t,))
        if not ok:
            return False, witness
    return True, None


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
    """Decide plant |= f.

    Tree/acyclic frames are decided exactly from the full trace set.  On
    general frames the trace set is the bounded lasso enumeration (given
    or default bounds) and the verdict is flagged as not exact.
    """
    if classify_frame(plant) is FrameKind.GENERAL:
        traces = enumerate_lassos(plant, *(bounds or default_bounds(plant)))
        return CheckResult(eval_quantified(f, traces, horizon), exact=False)
    return CheckResult(eval_quantified(f, enumerate_traces(plant), horizon), exact=True)
