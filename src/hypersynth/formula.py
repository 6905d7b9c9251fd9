"""HyperLTL abstract syntax, desugaring, negation normal form, and
quantifier-prefix fragment classification.

The body grammar is LTL whose atoms are indexed by trace variables.  The
core connectives are true, atoms, negation, disjunction, until, and next;
conjunction, implication, equivalence, eventually, and globally are
derived forms removed by :func:`desugar`.  A Release node exists so that
:func:`negate_nnf` stays linear; it is internal and prints through its
until definition.

Every walk over a body (:func:`compile_body`, :func:`free_vars`,
:func:`desugar`, :func:`negate_nnf`, the printer) is one loop over
:func:`post_order`, which lists its nodes operands first without recursing.
A body compiles once, on first use, to a flat :class:`Program`, which
:mod:`hypersynth.semantics` evaluates and ``==``/``hash`` compare; a
:class:`Formula` compiles its body when it is built and keeps the program.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import DuplicateQuantifier, UnboundVariable


class Body:
    """Base class for body AST nodes.  Bodies are equal when they are the
    same tree, shared or copied: ``==`` and ``hash`` compare the programs of
    :func:`compile_body`, compiled afresh so nothing is stored.

    Nodes are immutable: their fields are written once, into the instance
    dict, by the constructor of their shape (no operand, ``operand``, or
    ``left`` and ``right``; an :class:`Atom` has ``prop`` and ``var``), and
    assigning or deleting an attribute raises
    :class:`dataclasses.FrozenInstanceError`.  A node prints as
    ``Or(left=Atom(prop='a', var='t'), right=TrueBool())``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    @cached_property
    def program(self) -> "Program":
        """The compiled form of this instance, built on first use."""
        return compile_body(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Body):
            return NotImplemented
        return compile_body(self) == compile_body(other)

    def __hash__(self) -> int:
        return hash(compile_body(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Unary(Body):
    """Shape of the nodes with one operand."""

    __match_args__ = ("operand",)

    def __init__(self, operand: Body):
        self.__dict__["operand"] = operand


class _Binary(Body):
    """Shape of the nodes with two operands."""

    __match_args__ = ("left", "right")

    def __init__(self, left: Body, right: Body):
        fields = self.__dict__
        fields["left"] = left
        fields["right"] = right


class TrueBool(Body):
    """The literal true; false is ``Not(TrueBool())``."""


class Atom(Body):
    """Proposition ``prop`` on the trace bound to variable ``var``."""

    __match_args__ = ("prop", "var")

    def __init__(self, prop: str, var: str):
        fields = self.__dict__
        fields["prop"] = prop
        fields["var"] = var


class Not(_Unary):
    """Negation."""


class Or(_Binary):
    """Disjunction."""


class And(_Binary):
    """Conjunction; derived."""


class Implies(_Binary):
    """Implication; derived."""


class Iff(_Binary):
    """Equivalence; derived."""


class Next(_Unary):
    """Next position."""


class Until(_Binary):
    """``left`` holds until ``right`` does, which it must."""


class Release(_Binary):
    """Dual of until; internal only (introduced by negate_nnf)."""


class Eventually(_Unary):
    """Some position from here on; derived."""


class Globally(_Unary):
    """Every position from here on; derived."""


class Quantifier(Enum):
    FORALL = "forall"
    EXISTS = "exists"


@dataclass(frozen=True)
class Formula:
    """Quantifier prefix over trace variables plus a quantifier-free body.

    Construction enforces that the formula is a sentence: prefix variables
    are pairwise distinct and every trace variable used in the body is
    bound.  It compiles the body once (:attr:`program`), for that check
    and for every evaluation of the formula; the program is kept on the
    formula, so the body's nodes hold their fields only.
    """

    prefix: tuple[tuple[Quantifier, str], ...]
    body: Body
    program: "Program" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        seen: set[str] = set()
        for _, name in self.prefix:
            if name in seen:
                raise DuplicateQuantifier(name)
            seen.add(name)
        object.__setattr__(self, "program", compile_body(self.body))
        for var in sorted(var for var, _ in self.program.atoms):
            if var not in seen:
                raise UnboundVariable(var)

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.prefix)


def free_vars(body: Body) -> frozenset[str]:
    return frozenset(node.var for node, _ in post_order(body) if type(node) is Atom)


# --- the one walk -------------------------------------------------------------

_ARITY = {
    **dict.fromkeys((TrueBool, Atom), 0),
    **dict.fromkeys((Not, Next, Eventually, Globally), 1),
    **dict.fromkeys((Or, And, Implies, Iff, Until, Release), 2),
}
_LIST = object()  # stack marker, see post_order


def post_order(body: Body) -> list[tuple[Body, tuple[int, ...]]]:
    """Each distinct node object of ``body`` once, operands before the
    node and left before right, paired with the positions of its operands
    in the list; the root is last.  Built without recursion, so a body's
    depth is limited by memory only.  Raises TypeError on a node that is
    not a body node.
    """
    order: list[tuple[Body, tuple[int, ...]]] = []
    position: dict[int, int] = {}  # node identity -> index in order
    # nodes to visit, and (_LIST, operator, left, right or None) once the
    # operator's operands are pushed above it: listed when popped again
    stack: list = [body]
    while stack:
        node = stack.pop()
        if type(node) is tuple and node[0] is _LIST:
            _, node, left, right = node
            args = (position[id(left)],)
            if right is not None:
                args += (position[id(right)],)
        elif id(node) in position:
            continue
        else:
            arity = _ARITY.get(type(node))
            if arity is None:
                raise TypeError(f"unknown body node {node!r}")
            if arity == 1:
                stack += ((_LIST, node, node.operand, None), node.operand)
                continue
            if arity == 2:
                stack += ((_LIST, node, node.left, node.right), node.right, node.left)
                continue
            args = ()
        position[id(node)] = len(order)
        order.append((node, args))
    return order


# --- compiled form -----------------------------------------------------------


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


def compile_body(body: Body) -> Program:
    """Flatten a body into a :class:`Program` in one pass over
    :func:`post_order`.

    Each node gets a value number: an atom its (variable, proposition),
    an operator the index of its (class, operand numbers) among the
    distinct operators seen, so equal subtrees get one number.  Slots are
    assigned once all atoms are known.
    """
    numbers: list[tuple[str, str] | int] = []  # per listed node
    sizes: list[int] = []  # per listed node: its tree size
    atoms: dict[str, dict[str, None]] = {}  # variable -> propositions
    operators: dict[tuple, int] = {}  # (class, operand numbers) -> number
    for node, args in post_order(body):
        if type(node) is Atom:
            atoms.setdefault(node.var, {})[node.prop] = None
            numbers.append((node.var, node.prop))
            sizes.append(1)
            continue
        key = (type(node), *[numbers[i] for i in args])
        numbers.append(operators.setdefault(key, len(operators)))
        sizes.append(1 + sum([sizes[i] for i in args]))
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
    return Program(program_atoms, code, sizes[-1])


# derived form -> its rewrite over the desugared operands; the core forms
# are rebuilt from their desugared operands, leaves are kept
_DESUGAR = {
    And: lambda a, b: Not(Or(Not(a), Not(b))),
    Implies: lambda a, b: Or(Not(a), b),
    Iff: lambda a, b: Not(Or(Not(Or(Not(a), b)), Not(Or(Not(b), a)))),
    # R is sugar-free only internally; expand via its definition
    Release: lambda a, b: Not(Until(Not(a), Not(b))),
    Eventually: lambda a: Until(TrueBool(), a),
    Globally: lambda a: Not(Until(TrueBool(), Not(a))),
}


def desugar(body: Body) -> Body:
    """Rewrite derived forms into the core {true, atom, !, |, U, X}."""
    out: list[Body] = []
    for node, args in post_order(body):
        if args:
            node = _DESUGAR.get(type(node), type(node))(*[out[i] for i in args])
        out.append(node)
    return out[-1]


# operator -> (constructor of its NNF, constructor of its negation's NNF),
# each applied to the operands' forms of the same polarity
_NNF = {
    Or: (Or, And), And: (And, Or), Next: (Next, Next),
    Until: (Until, Release), Release: (Release, Until),
}


def negate_nnf(body: Body) -> Body:
    """Negation normal form of Not(body) for a desugared body.

    Negations end up only on atoms (and on the literal true); until dualizes
    to Release.  The result uses {true, !true, atom, !atom, |, &, U, R, X}
    and is semantically the negation of the input on every assignment.
    Every node gets both forms, so a negation just swaps its operand's.
    """
    pos: list[Body] = []
    neg: list[Body] = []
    for node, args in post_order(body):
        kind = type(node)
        if kind is Not:
            pos.append(neg[args[0]])
            neg.append(pos[args[0]])
        elif not args:
            pos.append(node)
            neg.append(Not(node))
        elif kind in _NNF:
            positive, negative = _NNF[kind]
            pos.append(positive(*[pos[i] for i in args]))
            neg.append(negative(*[neg[i] for i in args]))
        else:
            raise TypeError(f"negate_nnf requires a desugared body, got {node!r}")
    return neg[-1]


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
