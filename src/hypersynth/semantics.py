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
    full = (1 << n) - 1
    last = n - 1
    vals: list[int] = []
    push = vals.append
    for var, props in atoms:
        lasso = asg.get(var)
        if lasso is None:
            raise UnboundVariable(var)
        vals += lasso.masks(props, n)
    for op, a, b in code:
        if op is And:
            push(vals[a] & vals[b])
        elif op is Or:
            push(vals[a] | vals[b])
        elif op is Not:
            push(full ^ vals[a])
        elif op is Next:
            v = vals[a]
            push((v >> 1) | (((v >> s_star) & 1) << last))
        elif op is Implies:
            push((full ^ vals[a]) | vals[b])
        elif op is Iff:
            push(full ^ vals[a] ^ vals[b])
        elif op is Eventually:
            # every position reaches the whole loop; a v set on the stem
            # only is reached from the positions up to its last set bit
            v = vals[a]
            push(full if v >> s_star else (1 << v.bit_length()) - 1)
        elif op is Globally:
            # G v == !F !v
            v = full ^ vals[a]
            push(0 if v >> s_star else full ^ ((1 << v.bit_length()) - 1))
        elif op is Until:
            l, r = vals[a], vals[b]
            v, w = -1, r  # v = r | (l & X v), from below
            while w != v:
                v = w
                w = r | (l & ((v >> 1) | (((v >> s_star) & 1) << last)))
            push(v)
        elif op is Release:
            l, r = vals[a], vals[b]
            v, w = -1, r  # v = r & (l | X v), from above
            while w != v:
                v = w
                w = r & (l | ((v >> 1) | (((v >> s_star) & 1) << last)))
            push(v)
        else:  # TrueBool
            push(full)
    return bool(vals[-1] & 1)


def eval_quantified(
    f: Formula,
    trace_set: frozenset[Lasso] | set[Lasso],
    horizon: int = DEFAULT_HORIZON,
    cache: Optional[dict] = None,
) -> bool:
    """Decide trace_set |= f by quantifier enumeration.

    `cache` optionally memoizes body evaluations across calls keyed by the
    full assignment tuple; callers that check many prunings of one plant
    share it so repeated tuples are evaluated once.
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
    any trace superset containing that tuple fails as well."""
    traces = sort_lassos(trace_set)
    names = f.variables
    universal = all(q is Quantifier.FORALL for q, _ in f.prefix)
    body_cache = cache if cache is not None else {}

    def base(chosen: tuple[Lasso, ...]) -> bool:
        result = body_cache.get(chosen)
        if result is None:
            result = eval_body(f.body, dict(zip(names, chosen)), horizon)
            body_cache[chosen] = result
        return result

    quants = tuple(q for q, _ in f.prefix)
    holds, witness = _enumerate(quants, traces, base, ())
    if holds or not universal:
        return holds, None
    return False, witness


def _enumerate(
    quants: tuple[Quantifier, ...],
    traces: list[Lasso],
    base: Callable[[tuple[Lasso, ...]], bool],
    chosen: tuple[Lasso, ...],
) -> tuple[bool, Optional[tuple[Lasso, ...]]]:
    """Truth of the quantifiers after the chosen traces, and the first
    falsifying full tuple when it fails under universal choices only.  A
    module function rather than a recursive closure, which would be a
    reference cycle left to the cyclic collector on every call."""
    depth = len(chosen)
    if depth == len(quants):
        ok = base(chosen)
        return ok, (None if ok else chosen)
    if quants[depth] is Quantifier.EXISTS:
        for t in traces:
            ok, _ = _enumerate(quants, traces, base, chosen + (t,))
            if ok:
                return True, None
        return False, None
    for t in traces:
        ok, witness = _enumerate(quants, traces, base, chosen + (t,))
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
