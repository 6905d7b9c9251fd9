"""HyperLTL abstract syntax, desugaring, negation normal form, and
quantifier-prefix fragment classification.

The body grammar is LTL whose atoms are indexed by trace variables.  The
core connectives are true, atoms, negation, disjunction, until, and next;
conjunction, implication, equivalence, eventually, and globally are
derived forms removed by :func:`desugar`.  A Release node exists so that
:func:`negate_nnf` stays linear; it is internal and never printed.

Each body instance compiles once, on first use, to a flat post-order
:class:`Program` (see :func:`compile_body`), which the evaluator in
:mod:`hypersynth.semantics` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import DuplicateQuantifier, UnboundVariable


class Body:
    """Base class for body AST nodes."""

    __slots__ = ()

    @cached_property
    def program(self) -> "Program":
        """The compiled form of this instance, built on first use."""
        return compile_body(self)


@dataclass(frozen=True)
class TrueBool(Body):
    pass


@dataclass(frozen=True)
class Atom(Body):
    prop: str
    var: str


@dataclass(frozen=True)
class Not(Body):
    operand: Body


@dataclass(frozen=True)
class Or(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class And(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class Implies(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class Iff(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class Next(Body):
    operand: Body


@dataclass(frozen=True)
class Until(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class Release(Body):
    """Dual of until; internal only (introduced by negate_nnf)."""

    left: Body
    right: Body


@dataclass(frozen=True)
class Eventually(Body):
    operand: Body


@dataclass(frozen=True)
class Globally(Body):
    operand: Body


class Quantifier(Enum):
    FORALL = "forall"
    EXISTS = "exists"


@dataclass(frozen=True)
class Formula:
    """Quantifier prefix over trace variables plus a quantifier-free body.

    Construction enforces that the formula is a sentence: prefix variables
    are pairwise distinct and every trace variable used in the body is
    bound.
    """

    prefix: tuple[tuple[Quantifier, str], ...]
    body: Body

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        seen: set[str] = set()
        for _, name in self.prefix:
            if name in seen:
                raise DuplicateQuantifier(name)
            seen.add(name)
        for var in sorted(free_vars(self.body)):
            if var not in seen:
                raise UnboundVariable(var)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.prefix)


def free_vars(body: Body) -> frozenset[str]:
    if isinstance(body, TrueBool):
        return frozenset()
    if isinstance(body, Atom):
        return frozenset((body.var,))
    if isinstance(body, (Not, Next, Eventually, Globally)):
        return free_vars(body.operand)
    if isinstance(body, (Or, And, Implies, Iff, Until, Release)):
        return free_vars(body.left) | free_vars(body.right)
    raise TypeError(f"unknown body node {body!r}")


# --- compiled form -----------------------------------------------------------

_UNARY = (Not, Next, Eventually, Globally)
_BINARY = (Or, And, Implies, Iff, Until, Release)
_OPERATORS = frozenset((TrueBool, *_UNARY, *_BINARY))


class Program(NamedTuple):
    """A body flattened for bottom-up evaluation.

    The first slots hold the atoms: ``atoms`` lists each trace variable
    once, in order of first occurrence, with the propositions read off it,
    and their slots follow in that order.  Each later slot holds one
    instruction of ``code``, (node class, a, b), which reads the earlier
    slots a and b (b is 0 for a unary operator); the last slot is the root.
    Equal subtrees, whether one object or equal copies, share one slot.
    ``size`` is the node count of the body as a tree, a shared subtree
    counted once per occurrence.
    """

    atoms: tuple[tuple[str, tuple[str, ...]], ...]
    code: tuple[tuple[type, int, int], ...]
    size: int


def _operands(node: Body) -> tuple[Body, ...]:
    if isinstance(node, _UNARY):
        return (node.operand,)
    if isinstance(node, _BINARY):
        return (node.left, node.right)
    return ()


def compile_body(body: Body) -> Program:
    """Flatten a body into a :class:`Program` by one iterative post-order
    pass (left operand first), so its depth is limited by memory only.

    Each node gets a value number: an atom its (variable, proposition),
    an operator the index of its (class, operand numbers) among the
    distinct operators seen, so equal subtrees get one number.  Slots are
    assigned once all atoms are known.
    """
    number_of: dict[int, tuple[str, str] | int] = {}  # node identity -> number
    size_of: dict[int, int] = {}  # node identity -> tree size
    atoms: dict[str, dict[str, None]] = {}  # variable -> propositions
    operators: dict[tuple, int] = {}  # (class, operand numbers) -> number
    stack = [body]
    while stack:
        node = stack[-1]
        if id(node) in number_of:
            stack.pop()
            continue
        kids = _operands(node)
        pending = [k for k in reversed(kids) if id(k) not in number_of]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if isinstance(node, Atom):
            atoms.setdefault(node.var, {})[node.prop] = None
            number_of[id(node)] = (node.var, node.prop)
            size_of[id(node)] = 1
            continue
        if type(node) not in _OPERATORS:
            raise TypeError(f"unknown body node {node!r}")
        key = (type(node), *(number_of[id(k)] for k in kids))
        number_of[id(node)] = operators.setdefault(key, len(operators))
        size_of[id(node)] = 1 + sum(size_of[id(k)] for k in kids)
    atom_slot = {
        atom: i
        for i, atom in enumerate(
            (var, prop) for var, props in atoms.items() for prop in props
        )
    }
    base = len(atom_slot)

    def slot(number: tuple[str, str] | int) -> int:
        return base + number if isinstance(number, int) else atom_slot[number]

    code = tuple(
        (op, *map(slot, operands), *(0,) * (2 - len(operands)))
        for op, *operands in operators
    )
    program_atoms = tuple((var, tuple(props)) for var, props in atoms.items())
    return Program(program_atoms, code, size_of[id(body)])


def desugar(body: Body) -> Body:
    """Rewrite derived forms into the core {true, atom, !, |, U, X}."""
    if isinstance(body, (TrueBool, Atom)):
        return body
    if isinstance(body, Not):
        return Not(desugar(body.operand))
    if isinstance(body, Or):
        return Or(desugar(body.left), desugar(body.right))
    if isinstance(body, And):
        return Not(Or(Not(desugar(body.left)), Not(desugar(body.right))))
    if isinstance(body, Implies):
        return Or(Not(desugar(body.left)), desugar(body.right))
    if isinstance(body, Iff):
        a, b = desugar(body.left), desugar(body.right)
        return Not(Or(Not(Or(Not(a), b)), Not(Or(Not(b), a))))
    if isinstance(body, Next):
        return Next(desugar(body.operand))
    if isinstance(body, Until):
        return Until(desugar(body.left), desugar(body.right))
    if isinstance(body, Release):
        # R is sugar-free only internally; expand via its definition
        a, b = desugar(body.left), desugar(body.right)
        return Not(Until(Not(a), Not(b)))
    if isinstance(body, Eventually):
        return Until(TrueBool(), desugar(body.operand))
    if isinstance(body, Globally):
        return Not(Until(TrueBool(), Not(desugar(body.operand))))
    raise TypeError(f"unknown body node {body!r}")


def negate_nnf(body: Body) -> Body:
    """Negation normal form of Not(body) for a desugared body.

    Negations end up only on atoms (and on the literal true); until dualizes
    to Release.  The result uses {true, !true, atom, !atom, |, &, U, R, X}
    and is semantically the negation of the input on every assignment.
    """
    return _nnf_neg(body)


def _nnf_pos(body: Body) -> Body:
    if isinstance(body, (TrueBool, Atom)):
        return body
    if isinstance(body, Not):
        return _nnf_neg(body.operand)
    if isinstance(body, Or):
        return Or(_nnf_pos(body.left), _nnf_pos(body.right))
    if isinstance(body, And):
        return And(_nnf_pos(body.left), _nnf_pos(body.right))
    if isinstance(body, Next):
        return Next(_nnf_pos(body.operand))
    if isinstance(body, Until):
        return Until(_nnf_pos(body.left), _nnf_pos(body.right))
    if isinstance(body, Release):
        return Release(_nnf_pos(body.left), _nnf_pos(body.right))
    raise TypeError(f"negate_nnf requires a desugared body, got {body!r}")


def _nnf_neg(body: Body) -> Body:
    if isinstance(body, (TrueBool, Atom)):
        return Not(body)
    if isinstance(body, Not):
        return _nnf_pos(body.operand)
    if isinstance(body, Or):
        return And(_nnf_neg(body.left), _nnf_neg(body.right))
    if isinstance(body, And):
        return Or(_nnf_neg(body.left), _nnf_neg(body.right))
    if isinstance(body, Next):
        return Next(_nnf_neg(body.operand))
    if isinstance(body, Until):
        return Release(_nnf_neg(body.left), _nnf_neg(body.right))
    if isinstance(body, Release):
        return Until(_nnf_neg(body.left), _nnf_neg(body.right))
    raise TypeError(f"negate_nnf requires a desugared body, got {body!r}")


# --- fragment classification ----------------------------------------------


class FragmentKind(Enum):
    E_STAR = "E*"
    A_STAR = "A*"
    E_STAR_A = "E*A"
    A_E_STAR = "AE*"
    EA = "EA"
    AE = "AE"
    FULL = "full"


@dataclass(frozen=True)
class FragmentClass:
    kind: FragmentKind
    alternations: int

    def __str__(self) -> str:
        if self.kind in (FragmentKind.EA, FragmentKind.AE):
            return f"{self.kind.value}({self.alternations})"
        return self.kind.value


def alternation_count(f: Formula) -> int:
    """Number of adjacent quantifier pairs in the prefix that differ."""
    quants = [q for q, _ in f.prefix]
    return sum(1 for a, b in zip(quants, quants[1:]) if a != b)


def classify_fragment(f: Formula) -> FragmentClass:
    """Most specific fragment of the quantifier prefix.

    Specificity order: E*/A* beat E*A/AE*, which beat EA(k)/AE(k).  E*A
    requires exactly one trailing universal quantifier, AE* exactly one
    leading universal; the k-classes are keyed on the leading quantifier
    and the alternation count.
    """
    quants = [q for q, _ in f.prefix]
    alts = alternation_count(f)
    if not quants:
        return FragmentClass(FragmentKind.E_STAR, 0)
    if all(q is Quantifier.EXISTS for q in quants):
        return FragmentClass(FragmentKind.E_STAR, 0)
    if all(q is Quantifier.FORALL for q in quants):
        return FragmentClass(FragmentKind.A_STAR, 0)
    if quants[-1] is Quantifier.FORALL and all(
        q is Quantifier.EXISTS for q in quants[:-1]
    ):
        return FragmentClass(FragmentKind.E_STAR_A, alts)
    if quants[0] is Quantifier.FORALL and all(
        q is Quantifier.EXISTS for q in quants[1:]
    ):
        return FragmentClass(FragmentKind.A_E_STAR, alts)
    lead = FragmentKind.EA if quants[0] is Quantifier.EXISTS else FragmentKind.AE
    return FragmentClass(lead, alts)
