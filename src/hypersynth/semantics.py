"""Evaluation of quantifier-free bodies over lasso assignments, and
satisfaction of closed formulas over finite trace sets.

Bodies are evaluated by aligning all assigned lassos to a joint lasso with
stem length S* = max stem length and period P* = lcm of loop lengths, then
computing truth values per subformula over positions 0 .. S*+P*-1 bottom
up.  Until/Release on the loop segment are resolved by fixed-point sweeps
(least fixed point for until, greatest for release); P*+1 sweeps always
suffice because loop values change monotonically under the sweep.

Model checking a plant reduces to quantifier enumeration over its trace
set: exact for tree/acyclic frames, bounded (and flagged as such) for
general frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Optional, Sequence

from .errors import HorizonExceeded, UnboundVariable
from .formula import (
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
    subformula_count,
)
from .plant import (
    FrameKind,
    Lasso,
    Plant,
    classify_frame,
    default_bounds,
    enumerate_lassos,
    enumerate_traces,
)

TraceAssignment = Mapping[str, Lasso]

DEFAULT_HORIZON = 10**6


def _joint_shape(lassos: Sequence[Lasso]) -> tuple[int, int]:
    stem = max((len(l.stem) for l in lassos), default=0)
    period = 1
    for l in lassos:
        period = period * len(l.loop) // gcd(period, len(l.loop))
    return stem, period


def eval_body(
    body: Body, asg: TraceAssignment, horizon: int = DEFAULT_HORIZON
) -> bool:
    """Satisfaction of the body at position 0 of the joint word.

    The assignment must bind every trace variable occurring in the body;
    a missing binding raises UnboundVariable.  All node kinds are handled,
    derived forms included, so desugaring beforehand is not required.
    Raises HorizonExceeded when (S*+P*) times the subformula count exceeds
    the horizon.
    """
    lassos = list(asg.values())
    s_star, p_star = _joint_shape(lassos)
    n = s_star + p_star
    size = subformula_count(body)
    if n * size > horizon:
        raise HorizonExceeded(n * size, horizon)

    # per-variable letter arrays, built on first use; memo keyed by node
    # identity (the body object is alive for the whole call)
    letters: dict[str, list] = {}
    memo: dict[int, list[bool]] = {}

    def values(node: Body) -> list[bool]:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        result = _compute(node)
        memo[id(node)] = result
        return result

    def _compute(node: Body) -> list[bool]:
        if isinstance(node, TrueBool):
            return [True] * n
        if isinstance(node, Atom):
            row = letters.get(node.var)
            if row is None:
                lasso = asg.get(node.var)
                if lasso is None:
                    raise UnboundVariable(node.var)
                row = [lasso.letter_at(i) for i in range(n)]
                letters[node.var] = row
            prop = node.prop
            return [prop in letter for letter in row]
        if isinstance(node, Not):
            return [not v for v in values(node.operand)]
        if isinstance(node, Or):
            lv, rv = values(node.left), values(node.right)
            return [a or b for a, b in zip(lv, rv)]
        if isinstance(node, And):
            lv, rv = values(node.left), values(node.right)
            return [a and b for a, b in zip(lv, rv)]
        if isinstance(node, Implies):
            lv, rv = values(node.left), values(node.right)
            return [(not a) or b for a, b in zip(lv, rv)]
        if isinstance(node, Iff):
            lv, rv = values(node.left), values(node.right)
            return [a == b for a, b in zip(lv, rv)]
        if isinstance(node, Next):
            sub = values(node.operand)
            return [sub[_next_pos(i)] for i in range(n)]
        if isinstance(node, Until):
            return _fixpoint(values(node.left), values(node.right), least=True)
        if isinstance(node, Eventually):
            return _fixpoint([True] * n, values(node.operand), least=True)
        if isinstance(node, Release):
            return _fixpoint(values(node.left), values(node.right), least=False)
        if isinstance(node, Globally):
            # G x == false R x
            return _fixpoint([False] * n, values(node.operand), least=False)
        raise TypeError(f"unknown body node {node!r}")

    def _next_pos(i: int) -> int:
        return i + 1 if i + 1 < n else s_star

    def _fixpoint(left: list[bool], right: list[bool], least: bool) -> list[bool]:
        # until: v[i] = r[i] or (l[i] and v[next]),   init loop false (lfp)
        # release: v[i] = r[i] and (l[i] or v[next]), init loop true (gfp)
        out: list[Optional[bool]] = [None] * n
        loop_vals = [not least] * p_star
        for _ in range(p_star + 1):
            changed = False
            for k in range(p_star - 1, -1, -1):
                nxt = loop_vals[(k + 1) % p_star]
                i = s_star + k
                if least:
                    v = right[i] or (left[i] and nxt)
                else:
                    v = right[i] and (left[i] or nxt)
                if v != loop_vals[k]:
                    loop_vals[k] = v
                    changed = True
            if not changed:
                break
        for k in range(p_star):
            out[s_star + k] = loop_vals[k]
        for i in range(s_star - 1, -1, -1):
            if least:
                out[i] = right[i] or (left[i] and out[i + 1])
            else:
                out[i] = right[i] and (left[i] or out[i + 1])
        return out  # type: ignore[return-value]

    if n == 0:
        # impossible: loops are nonempty, so n >= 1
        raise AssertionError("empty joint word")
    return values(body)[0]


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
    traces = sorted(trace_set, key=Lasso.sort_key)
    names = f.variables
    universal = all(q is Quantifier.FORALL for q, _ in f.prefix)
    body_cache = cache if cache is not None else {}

    def base(chosen: tuple[Lasso, ...]) -> bool:
        result = body_cache.get(chosen)
        if result is None:
            result = eval_body(f.body, dict(zip(names, chosen)), horizon)
            body_cache[chosen] = result
        return result

    def recurse(depth: int, chosen: tuple[Lasso, ...]) -> tuple[bool, Optional[tuple[Lasso, ...]]]:
        if depth == len(f.prefix):
            ok = base(chosen)
            return ok, (None if ok else chosen)
        quant, _ = f.prefix[depth]
        if quant is Quantifier.EXISTS:
            for t in traces:
                ok, _ = recurse(depth + 1, chosen + (t,))
                if ok:
                    return True, None
            return False, None
        for t in traces:
            ok, witness = recurse(depth + 1, chosen + (t,))
            if not ok:
                return False, witness
        return True, None

    holds, witness = recurse(0, ())
    if holds or not universal:
        return holds, None
    return False, witness


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
