"""Reductions from HORN-SAT, 3SAT, and QBF to controller synthesis, with
decoders mapping controllers back to Boolean assignments.

These constructions are the end-to-end correctness layer: each generated
instance is realizable iff the source problem is satisfiable, which the
test suite checks against brute-force SAT/QBF oracles.

HORN-SAT (tree plant, AE* formula).  Input clauses are first normalized to
exactly two negative and one positive literal, introducing bot (forced
false), top (forced true), and fresh split variables.  The plant has one
bitstring branch per clause hanging under a v-state for the clause's
positive variable; branch states carry neg1/neg2/pos according to the bit
encodings of the clause's literals.  Uncontrollable edges from each
v-state to all its clause branches force all-or-nothing retention per
variable, so the only synthesis choice is which v-states survive.  A
retained v-state reads as "this variable is false": the formula demands
that every retained clause branch (whose positive literal is then false)
has a retained branch whose positive literal equals one of its negative
literals, i.e. some negative literal is false and the clause holds.  So
the plant also carries one tautological identity branch (neg1 = neg2 =
pos = the variable's own encoding) per variable except top: it witnesses
that variable's falseness and supports itself, and the bot identity
branch doubles as the all-zero witness demanded for bot.

3SAT (tree plant, AA formula).  One branch triple per clause, one chain
state per variable per literal, labeled pos/neg at the literal's
variable index.  Clause roots hang on uncontrollable edges so synthesis
keeps at least one literal chain per clause, and the formula forbids
retaining a positive and a negative occurrence of the same variable.

QBF (acyclic plant).  Clause chains label variable positions with the
alternation-depth proposition of the variable plus p/pbar per literal
polarity; a valuation diamond enumerates assignments, one trace variable
per alternation depth.  The leading existential block of the QBF is
resolved by synthesis: only the diamond edges choosing values for that
block are controllable, every deeper choice stays uncontrollable, and the
formula quantifies the depth-1 traces universally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import (
    ArityMismatch,
    DecoderMismatch,
    DimacsError,
    NotHorn,
    NotNormalized,
    PrefixNotExistsLeading,
)
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
    TrueBool,
)
from .plant import Plant
from .synth import ControllerSolution, apply_solution


@dataclass(frozen=True)
class CnfInput:
    """CNF with 1-based variables; literals are signed indices."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "clauses", tuple(tuple(c) for c in self.clauses)
        )
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")


@dataclass(frozen=True)
class NormalizedHorn(CnfInput):
    """Horn CNF where every clause is (neg, neg, pos); the bot and top
    variables carry the forced-false / forced-true side conditions."""

    bot: int = 0
    top: int = 0
    num_original: int = 0

    def __post_init__(self):
        super().__post_init__()
        for clause in self.clauses:
            if len(clause) != 3 or clause[0] > 0 or clause[1] > 0 or clause[2] < 0:
                raise NotNormalized(clause)


@dataclass(frozen=True)
class QbfInput:
    """Prenex QBF with a 3CNF matrix; prefix covers all matrix variables
    and the three literals of a clause use pairwise distinct variables."""

    prefix: tuple[tuple[Quantifier, int], ...]
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(tuple(q) for q in self.prefix))
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        declared = [v for _, v in self.prefix]
        if len(set(declared)) != len(declared):
            raise ValueError("prefix declares a variable twice")
        known = set(declared)
        for clause in self.clauses:
            if len(clause) != 3:
                raise ArityMismatch(clause, "QBF clauses must have exactly 3 literals")
            vars_here = [abs(l) for l in clause]
            if len(set(vars_here)) != 3:
                raise ArityMismatch(clause, "literal variables must be distinct")
            for lit in clause:
                if lit == 0 or abs(lit) not in known:
                    raise ValueError(f"literal {lit} not covered by the prefix")

    @property
    def num_vars(self) -> int:
        return len(self.prefix)


@dataclass(frozen=True)
class SynthesisInstance:
    plant: Plant
    formula: Formula
    decoder_meta: Mapping[str, object] = field(default_factory=dict)


# --- DIMACS / QDIMACS ---------------------------------------------------


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise DimacsError(f"bad {what} token {tok!r}") from exc


def _dimacs_lines(text: str) -> tuple[int, int, list[str]]:
    """The problem line's variable and clause counts and the other content
    lines in order.  Blank lines and ``c``/``%`` comment lines are
    skipped; content before the problem line and a second problem line
    are errors."""
    header: Optional[tuple[int, int]] = None
    lines: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] in "c%":
            continue
        if line[0] == "p":
            if header is not None:
                raise DimacsError(f"second problem line: {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"bad problem line: {line!r}")
            header = (_int(parts[2], "count"), _int(parts[3], "count"))
            if min(header) < 0:
                raise DimacsError(f"negative count in problem line: {line!r}")
            continue
        if header is None:
            raise DimacsError(f"{line!r} before problem line")
        lines.append(line)
    if header is None:
        raise DimacsError("missing problem line")
    return header[0], header[1], lines


def _clauses(lines: list[str], num_vars: int, count: int) -> tuple[tuple[int, ...], ...]:
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line in lines:
        for tok in line.split():
            lit = _int(tok, "literal")
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            elif abs(lit) > num_vars:
                raise DimacsError(f"literal {lit} exceeds declared variables")
            else:
                current.append(lit)
    if current:
        raise DimacsError("last clause not terminated by 0")
    if len(clauses) != count:
        raise DimacsError(f"header promises {count} clauses, found {len(clauses)}")
    return tuple(clauses)


def parse_dimacs(text: str) -> CnfInput:
    num_vars, num_clauses, lines = _dimacs_lines(text)
    return CnfInput(num_vars, _clauses(lines, num_vars, num_clauses))


def parse_qdimacs(text: str) -> QbfInput:
    num_vars, num_clauses, lines = _dimacs_lines(text)
    prefix: list[tuple[Quantifier, int]] = []
    clause_lines: list[str] = []
    for line in lines:
        if line[0] not in "ea":
            clause_lines.append(line)
            continue
        if clause_lines:
            raise DimacsError(f"quantifier line after a clause: {line!r}")
        quant = Quantifier.EXISTS if line[0] == "e" else Quantifier.FORALL
        toks = line[1:].split()
        if not toks or toks[-1] != "0":
            raise DimacsError(f"quantifier line not terminated by 0: {line!r}")
        if len(toks) == 1:
            raise DimacsError(f"quantifier line without a variable: {line!r}")
        for tok in toks[:-1]:
            var = _int(tok, "variable")
            if not 0 < var <= num_vars:
                raise DimacsError(f"quantified variable {var} outside 1..{num_vars}")
            prefix.append((quant, var))
    clauses = _clauses(clause_lines, num_vars, num_clauses)
    declared = {v for _, v in prefix}
    used = {abs(l) for c in clauses for l in c}
    if not used <= declared:
        raise DimacsError(f"variables {sorted(used - declared)} not quantified")
    try:
        return QbfInput(tuple(prefix), clauses)
    except (ValueError, ArityMismatch) as exc:
        raise DimacsError(str(exc)) from exc


def cnf_to_dimacs(cnf: CnfInput) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# --- HORN normalization ---------------------------------------------------


def normalize_horn(cnf: CnfInput) -> NormalizedHorn:
    """Rewrite a Horn CNF so every clause has exactly two negative and one
    positive literal.

    Clauses without a positive literal get bot added positively; clauses
    without enough negative literals repeat their single negative or get
    not-top added; clauses with more than two negative literals are split
    with fresh variables (the first two negatives move into a new clause
    that defines the fresh variable, which replaces them).  Under the side
    conditions bot=false, top=true the result is equisatisfiable with the
    input.  Idempotent on already-normalized input.
    """
    if isinstance(cnf, NormalizedHorn):
        return cnf
    for clause in cnf.clauses:
        if sum(1 for lit in clause if lit > 0) > 1:
            raise NotHorn(clause)
    n = cnf.num_vars
    split_count = sum(
        max(0, sum(1 for lit in clause if lit < 0) - 2) for clause in cnf.clauses
    )
    bot = n + split_count + 1
    top = n + split_count + 2

    fresh = 0
    out: list[tuple[int, int, int]] = []

    def emit(negs: list[int], pos: int) -> None:
        out.append((-negs[0], -negs[1], pos))

    for clause in cnf.clauses:
        negs = [-l for l in clause if l < 0]
        pos = [l for l in clause if l > 0]
        positive = pos[0] if pos else bot
        while len(negs) > 2:
            fresh += 1
            f = n + fresh
            emit([negs[0], negs[1]], f)
            negs = negs[2:] + [f]
        if len(negs) == 1:
            negs = [negs[0], negs[0]]
        if not negs:
            negs = [top, top]
        emit(negs, positive)

    return NormalizedHorn(
        num_vars=top,
        clauses=tuple(out),
        bot=bot,
        top=top,
        num_original=n,
    )


def _bit_index(norm: NormalizedHorn, var: int) -> int:
    """Position of a variable in the encoding space: bot first, top last,
    everything else keeps its index."""
    if var == norm.bot:
        return 0
    if var == norm.top:
        return norm.num_vars - 1
    return var


def horn_to_instance(norm: NormalizedHorn) -> SynthesisInstance:
    """Build the tree plant and AE* formula for a normalized Horn CNF.

    Branch length is ceil(log2 |X|) where X is the full variable space
    including bot, top, and fresh variables; bot is encoded as 0 and top
    as |X|-1.  Bits are taken least significant first.  One identity
    branch per variable except top is appended after the clause branches.
    """
    if not isinstance(norm, NormalizedHorn):
        raise NotNormalized(norm)
    m = norm.num_vars  # size of the encoding space
    width = max(1, math.ceil(math.log2(m)))
    top_ix = m - 1

    branches: list[tuple[int, int, int]] = [
        (_bit_index(norm, -a), _bit_index(norm, -b), _bit_index(norm, p))
        for a, b, p in norm.clauses
    ]
    branches += [(x, x, x) for x in range(top_ix)]  # identity witnesses

    states = {"init"}
    labels: dict[str, set[str]] = {}
    c_edges: set[tuple[str, str]] = set()
    u_edges: set[tuple[str, str]] = set()
    v_state = {x: f"v{x}" for x in range(top_ix)}
    for x, name in v_state.items():
        states.add(name)
        c_edges.add(("init", name))
    for j, (n1, n2, p) in enumerate(branches, start=1):
        prev = None
        for i in range(width):
            name = f"b{j}_{i}"
            states.add(name)
            letter = set()
            if (n1 >> i) & 1:
                letter.add("neg1")
            if (n2 >> i) & 1:
                letter.add("neg2")
            if (p >> i) & 1:
                letter.add("pos")
            labels[name] = letter
            if prev is None:
                u_edges.add((v_state[p], name))
            else:
                c_edges.add((prev, name))
            prev = name
        c_edges.add((prev, prev))

    plant = Plant(
        states=frozenset(states),
        init="init",
        c_edges=frozenset(c_edges),
        u_edges=frozenset(u_edges),
        labeling={s: frozenset(l) for s, l in labels.items()},
    )

    # forall p1 . exists p2 . exists p3 .
    #   F !pos[p1] & G !pos[p3]
    #   & (G(neg1[p1] <-> pos[p2]) | G(neg2[p1] <-> pos[p2]))
    top_conjunct = Eventually(Not(Atom("pos", "p1")))
    bot_conjunct = Globally(Not(Atom("pos", "p3")))
    clause_conjunct = Or(
        Globally(Iff(Atom("neg1", "p1"), Atom("pos", "p2"))),
        Globally(Iff(Atom("neg2", "p1"), Atom("pos", "p2"))),
    )
    formula = Formula(
        prefix=(
            (Quantifier.FORALL, "p1"),
            (Quantifier.EXISTS, "p2"),
            (Quantifier.EXISTS, "p3"),
        ),
        body=And(And(top_conjunct, bot_conjunct), clause_conjunct),
    )

    meta = {
        "kind": "horn",
        "v_state": {str(v): (v_state[_bit_index(norm, v)] if v != norm.top else None)
                    for v in range(1, norm.num_vars + 1)},
        "bot": norm.bot,
        "top": norm.top,
        "num_original": norm.num_original,
    }
    return SynthesisInstance(plant, formula, meta)


# --- 3SAT -------------------------------------------------------------------


def threesat_to_instance(cnf: CnfInput) -> SynthesisInstance:
    """Build the tree plant and AA formula for a 3CNF.

    Uncontrollable edges from init to one root per clause preserve every
    clause; each root branches into three controllable chains, one per
    literal, with pos/neg labeling the literal's variable position.
    Realizable iff the CNF is satisfiable: kept chains must never pair a
    positive and a negative occurrence of the same variable.
    """
    for clause in cnf.clauses:
        if len(clause) != 3:
            raise ArityMismatch(clause, "3SAT clauses must have exactly 3 literals")
    n = cnf.num_vars
    states = {"init"}
    labels: dict[str, set[str]] = {}
    c_edges: set[tuple[str, str]] = set()
    u_edges: set[tuple[str, str]] = set()
    chains: list[tuple[int, int, int, str]] = []  # (clause, slot, literal, head)
    if not cnf.clauses:
        c_edges.add(("init", "init"))
    for j, clause in enumerate(cnf.clauses, start=1):
        root = f"r{j}"
        states.add(root)
        u_edges.add(("init", root))
        for slot, lit in enumerate(clause):
            prev = root
            head = None
            for i in range(1, n + 1):
                name = f"v{j}_{slot}_{i}"
                states.add(name)
                if abs(lit) == i:
                    labels[name] = {"pos" if lit > 0 else "neg"}
                c_edges.add((prev, name))
                if head is None:
                    head = name
                prev = name
            c_edges.add((prev, prev))
            chains.append((j, slot, lit, head))

    plant = Plant(
        states=frozenset(states),
        init="init",
        c_edges=frozenset(c_edges),
        u_edges=frozenset(u_edges),
        labeling={s: frozenset(l) for s, l in labels.items()},
    )
    formula = Formula(
        prefix=((Quantifier.FORALL, "p1"), (Quantifier.FORALL, "p2")),
        body=Globally(Or(Not(Atom("pos", "p1")), Not(Atom("neg", "p2")))),
    )
    meta = {
        "kind": "3sat",
        "num_vars": n,
        "chains": [
            {"clause": j, "slot": slot, "literal": lit, "root": f"r{j}", "head": head}
            for j, slot, lit, head in chains
        ],
    }
    return SynthesisInstance(plant, formula, meta)


# --- QBF --------------------------------------------------------------------


def _alternation_depths(prefix: Sequence[tuple[Quantifier, int]]) -> list[int]:
    depths = []
    depth = 1
    for i, (q, _) in enumerate(prefix):
        if i > 0 and q is not prefix[i - 1][0]:
            depth += 1
        depths.append(depth)
    return depths


def qbf_to_instance(qbf: QbfInput) -> SynthesisInstance:
    """Build the acyclic plant and the depth-indexed formula for an
    exists-leading prenex 3CNF QBF.

    One trace variable per alternation depth reads its block's values off
    a valuation-diamond trace; the clause traces carry the same depth
    propositions at the same positions, so the eventually-matching body
    says "some literal of the clause is satisfied by the combined
    assignment".  The leading existential block is special: its diamond
    entry edges are the only controllable diamond edges, synthesis fixes
    those values, and the corresponding trace variable is quantified
    universally over whatever valuations survive.
    """
    if not qbf.prefix:
        raise PrefixNotExistsLeading()
    if qbf.prefix[0][0] is not Quantifier.EXISTS:
        raise PrefixNotExistsLeading()
    n = len(qbf.prefix)
    var_of = {v: i for i, (_, v) in enumerate(qbf.prefix, start=1)}  # position
    depths = _alternation_depths(qbf.prefix)
    depth_of_pos = {i: d for i, d in enumerate(depths, start=1)}
    num_depths = depths[-1]
    block_quant = {d: None for d in range(1, num_depths + 1)}
    for (q, _), d in zip(qbf.prefix, depths):
        block_quant[d] = q

    m = len(qbf.clauses)
    states = {"init", "r0"}
    labels: dict[str, set[str]] = {}
    c_edges: set[tuple[str, str]] = set()
    u_edges: set[tuple[str, str]] = set()
    u_edges.add(("init", "r0"))

    lits_by_pos: list[dict[int, int]] = []
    for j, clause in enumerate(qbf.clauses, start=1):
        root = f"r{j}"
        states.add(root)
        labels[root] = {"c"}
        u_edges.add(("init", root))
        by_pos = {var_of[abs(l)]: l for l in clause}
        lits_by_pos.append(by_pos)
        prev = root
        for i in range(1, n + 1):
            v_name, u_name = f"v{j}_{i}", f"u{j}_{i}"
            states.update((v_name, u_name))
            letter = {f"q{depth_of_pos[i]}"}
            lit = by_pos.get(i)
            if lit is not None:
                letter.add("p" if lit > 0 else "pbar")
            labels[v_name] = letter
            c_edges.add((prev, v_name))
            c_edges.add((v_name, u_name))
            prev = u_name
        c_edges.add((prev, prev))

    # valuation diamond
    prev_join = "r0"
    for i in range(1, n + 1):
        s_name, sb_name, join = f"s{i}", f"sb{i}", f"sh{i}"
        states.update((s_name, sb_name, join))
        d = depth_of_pos[i]
        labels[s_name] = {"p", f"q{d}"}
        labels[sb_name] = {"pbar", f"q{d}"}
        entry_controllable = d == 1
        for target in (s_name, sb_name):
            if entry_controllable:
                c_edges.add((prev_join, target))
            else:
                u_edges.add((prev_join, target))
        u_edges.add((s_name, join))
        u_edges.add((sb_name, join))
        prev_join = join
    c_edges.add((prev_join, prev_join))

    plant = Plant(
        states=frozenset(states),
        init="init",
        c_edges=frozenset(c_edges),
        u_edges=frozenset(u_edges),
        labeling={s: frozenset(l) for s, l in labels.items()},
    )

    # prefix: depth-1 trace universally (resolved by synthesis), each deeper
    # block with its own quantifier, clause trace last and universal
    prefix: list[tuple[Quantifier, str]] = [(Quantifier.FORALL, "pd1")]
    for d in range(2, num_depths + 1):
        prefix.append((block_quant[d], f"pd{d}"))
    prefix.append((Quantifier.FORALL, "pc"))

    def not_clause(var: str) -> Body:
        return Next(Not(Atom("c", var)))

    premise: Body = Next(Atom("c", "pc"))
    for d in range(1, num_depths + 1):
        q = Quantifier.FORALL if d == 1 else block_quant[d]
        if q is Quantifier.FORALL:
            premise = And(premise, not_clause(f"pd{d}"))

    # the depth guard must be a conjunction: an equivalence would hold
    # vacuously at positions of every other depth and let a clause read a
    # variable's value off the wrong trace, breaking the dependency order
    match_any: Optional[Body] = None
    for d in range(1, num_depths + 1):
        var = f"pd{d}"
        q_match = And(Atom(f"q{d}", var), Atom(f"q{d}", "pc"))
        pol_match = Or(
            And(Atom("p", "pc"), Atom("p", var)),
            And(Atom("pbar", "pc"), Atom("pbar", var)),
        )
        disjunct = And(q_match, pol_match)
        match_any = disjunct if match_any is None else Or(match_any, disjunct)
    conclusion: Body = Eventually(match_any if match_any is not None else TrueBool())
    for d in range(2, num_depths + 1):
        if block_quant[d] is Quantifier.EXISTS:
            conclusion = And(not_clause(f"pd{d}"), conclusion)

    formula = Formula(tuple(prefix), Implies(premise, conclusion))
    block1 = [
        {"var": v, "position": var_of[v], "s": f"s{var_of[v]}", "sbar": f"sb{var_of[v]}"}
        for (q, v), d in zip(qbf.prefix, depths)
        if d == 1
    ]
    meta = {
        "kind": "qbf",
        "alternations": num_depths - 1,
        "block1": block1,
        "prefix": [[q.value, v] for q, v in qbf.prefix],
    }
    return SynthesisInstance(plant, formula, meta)


# --- decoding ---------------------------------------------------------------


def decode_assignment(
    instance: SynthesisInstance, sol: ControllerSolution
) -> dict[int, bool]:
    """Map a controller back to a Boolean assignment of the source problem.

    Total on valid solutions and never consults the formula; the returned
    assignment satisfies the source CNF (respectively makes the remaining
    QBF true) whenever the solution actually passes the model check.
    """
    meta = instance.decoder_meta
    kind = meta.get("kind") if isinstance(meta, Mapping) else None
    pruned = apply_solution(instance.plant, sol)
    if kind == "horn":
        reachable = pruned.index.reachable
        out: dict[int, bool] = {}
        for var_str, state in meta["v_state"].items():
            var = int(var_str)
            if state is None:  # top: no falsity witness exists, forced true
                out[var] = True
            else:
                out[var] = state not in reachable
        return out
    if kind == "3sat":
        out = {}
        for entry in meta["chains"]:
            edge = (entry["root"], entry["head"])
            if edge in pruned.c_edges:
                var = abs(entry["literal"])
                value = entry["literal"] > 0
                out.setdefault(var, value)
        for var in range(1, meta["num_vars"] + 1):
            out.setdefault(var, False)
        return out
    if kind == "qbf":
        reachable = pruned.index.reachable
        # deadlock freedom keeps at least one of s/sbar reachable; prefer
        # the positive choice when the controller kept both
        return {entry["var"]: entry["s"] in reachable for entry in meta["block1"]}
    raise DecoderMismatch(f"unknown decoder kind {kind!r}")
