"""Fair non-repudiation case study: a turn-based tree over the actions of
sender A, trusted third party T, and receiver B.

Within each round A moves, then T, then B; states branch over the acting
role's allowed actions for that round.  States are labeled with the
action proposition just taken plus monotone status propositions: m once B
has received the message (via a2b_m or t2b_m), nro once B holds the
non-repudiation-of-origin evidence (a2b_nro or t2b_nro), nrr once A holds
the non-repudiation-of-receipt evidence (b2a_nrr or t2a_nrr).  Outgoing
edges of T-turn states are controllable (we synthesize the third party);
everything else, the environment, is uncontrollable.  Leaves close with
controllable self-loops as every plant state needs an outgoing edge.  The
tree is built one depth at a time (see :func:`build_plant`).

The effectiveness/fairness objective is the exists-forall formula: some
behavior delivers m, nrr, and nro, and along every behavior in which A
(respectively B) acts the same way as in the witness, nrr is delivered
iff nro is.  The incomplete-information consistency condition is the
forall-forall formula: behaviors that agree on everything T can observe
(a2t_m, a2t_nro, b2t_nrr) must agree on T's actions.  The three formulas
take no input, so each is built and compiled once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Mapping, Sequence

from .errors import ConfigInvalid, PartialStrategy
from .formula import (
    And,
    Atom,
    Body,
    Eventually,
    Formula,
    Globally,
    Iff,
    Implies,
    Quantifier,
)
from .plant import Plant
from .synth import ControllerSolution

ACT_A = ("a2b_m", "a2t_m", "a2b_nro", "a2t_nro", "a_skip")
ACT_T = ("t2a_nrr", "t2b_nro", "t2b_m", "t_skip")
ACT_B = ("b2a_nrr", "b2t_nrr", "b_skip")
OBS_T = ("a2t_m", "a2t_nro", "b2t_nrr")

_SKIP = {"A": "a_skip", "T": "t_skip", "B": "b_skip"}
_ACTIONS = {"A": ACT_A, "T": ACT_T, "B": ACT_B}
_STATUS_EFFECT = {
    "a2b_m": "m",
    "t2b_m": "m",
    "a2b_nro": "nro",
    "t2b_nro": "nro",
    "b2a_nrr": "nrr",
    "t2a_nrr": "nrr",
}
ROLE_ORDER = ("A", "T", "B")


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-round action allowlists; the role skip action is always allowed
    and is added when missing."""

    rounds: int
    a_actions: tuple[frozenset[str], ...]
    t_actions: tuple[frozenset[str], ...]
    b_actions: tuple[frozenset[str], ...]

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigInvalid("at least one round is required")
        for role, field in (("A", "a_actions"), ("T", "t_actions"), ("B", "b_actions")):
            rounds = tuple(
                frozenset(acts) | {_SKIP[role]} for acts in getattr(self, field)
            )
            if len(rounds) != self.rounds:
                raise ConfigInvalid(
                    f"{field} must list exactly {self.rounds} per-round sets"
                )
            for acts in rounds:
                unknown = acts - set(_ACTIONS[role])
                if unknown:
                    raise ConfigInvalid(
                        f"unknown {role} actions: {sorted(unknown)}"
                    )
            object.__setattr__(self, field, rounds)

    def allowed(self, role: str, round_ix: int) -> tuple[str, ...]:
        per_role = {
            "A": self.a_actions,
            "T": self.t_actions,
            "B": self.b_actions,
        }[role]
        return tuple(sorted(per_role[round_ix]))


def curated_config() -> ProtocolConfig:
    """Desk-scale configuration used by the regression suite.

    Chosen so the correct third party's six-step run fits in four rounds,
    the premature-NRO third party is refutable (B may stop after receiving
    the NRO), and the complete-information oddity is expressible (the
    direct a2b_m branch exists in round one).  Per-round narrowing keeps
    the tree around a thousand leaves.
    """
    return ProtocolConfig(
        rounds=4,
        a_actions=(
            frozenset({"a2t_m", "a2b_m"}),
            frozenset({"a2t_nro"}),
            frozenset(),
            frozenset(),
        ),
        t_actions=(
            frozenset({"t2b_nro"}),
            frozenset({"t2b_m", "t2b_nro", "t2a_nrr"}),
            frozenset({"t2b_nro", "t2a_nrr"}),
            frozenset({"t2a_nrr"}),
        ),
        b_actions=(
            frozenset(),
            frozenset({"b2t_nrr"}),
            frozenset({"b2t_nrr"}),
            frozenset(),
        ),
    )


def config_from_dict(data: dict) -> ProtocolConfig:
    try:
        rounds = data["rounds"]
        actions = data["actions"]
        if isinstance(rounds, bool) or not isinstance(rounds, int):
            raise ConfigInvalid(f"rounds must be an integer, not {rounds!r}")
        return ProtocolConfig(
            rounds=rounds,
            a_actions=_round_actions(actions, "A"),
            t_actions=_round_actions(actions, "T"),
            b_actions=_round_actions(actions, "B"),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigInvalid(f"malformed protocol config: {exc}") from exc


def _round_actions(actions: dict, role: str) -> tuple[frozenset[str], ...]:
    """The role's action set per round; each round must be an array of
    strings (a bare string would otherwise be read as its characters)."""
    rounds = []
    for i, acts in enumerate(actions[role], 1):
        if not isinstance(acts, list) or not all(isinstance(a, str) for a in acts):
            raise ConfigInvalid(
                f"{role} actions of round {i} must be an array of strings, not {acts!r}"
            )
        rounds.append(frozenset(acts))
    return tuple(rounds)


def config_to_dict(cfg: ProtocolConfig) -> dict:
    return {
        "rounds": cfg.rounds,
        "actions": {
            "A": [sorted(s) for s in cfg.a_actions],
            "T": [sorted(s) for s in cfg.t_actions],
            "B": [sorted(s) for s in cfg.b_actions],
        },
    }


def _status_after(status: frozenset[str], action: str) -> frozenset[str]:
    effect = _STATUS_EFFECT.get(action)
    return status | {effect} if effect else status


def turn_of_depth(depth: int) -> str:
    """Role to move at a state of the given tree depth (root depth 0)."""
    return ROLE_ORDER[depth % 3]


def build_plant(cfg: ProtocolConfig) -> Plant:
    """Turn-based action tree for the configuration.

    State ids encode the action history (root is "root", children append
    "/<action>"), which keeps construction deterministic and states self
    describing.  A state's label is the action that just led to it plus
    the accumulated status propositions.

    The tree is built one depth at a time: the acting role's actions are
    read once per depth, and a child's status and label once per distinct
    (parent status, action) pair, of which there are a handful.
    """
    labels: dict[str, frozenset[str]] = {"root": frozenset()}
    c_edges: list[tuple[str, str]] = []
    u_edges: list[tuple[str, str]] = []
    step: dict[tuple[frozenset[str], str], tuple[frozenset[str], frozenset[str]]] = {}
    level = [("root", frozenset())]  # the states of this depth and their status
    for depth in range(3 * cfg.rounds):
        role = turn_of_depth(depth)
        actions = cfg.allowed(role, depth // 3)
        edges = c_edges if role == "T" else u_edges
        below = []
        for state, status in level:
            for action in actions:
                got = step.get((status, action))
                if got is None:
                    nxt_status = _status_after(status, action)
                    got = step[status, action] = (nxt_status, frozenset({action}) | nxt_status)
                child = f"{state}/{action}"
                labels[child] = got[1]
                edges.append((state, child))
                below.append((child, got[0]))
        level = below
    c_edges += [(leaf, leaf) for leaf, _ in level]  # leaf closure
    return Plant(
        states=frozenset(labels),
        init="root",
        c_edges=frozenset(c_edges),
        u_edges=frozenset(u_edges),
        labeling=labels,
    )


def _conj(parts: Sequence[Body]) -> Body:
    node = parts[0]
    for p in parts[1:]:
        node = And(node, p)
    return node


def _phi_body(pi: str, pi2: str) -> Body:
    effectiveness = _conj([Eventually(Atom(p, pi)) for p in ("m", "nrr", "nro")])

    def fairness(acts: Sequence[str]) -> Body:
        same = Globally(_conj([Iff(Atom(a, pi), Atom(a, pi2)) for a in acts]))
        outcome = Iff(Eventually(Atom("nrr", pi2)), Eventually(Atom("nro", pi2)))
        return Implies(same, outcome)

    return And(And(effectiveness, fairness(ACT_A)), fairness(ACT_B))


def _consistency_body(pi: str, pi2: str) -> Body:
    same_obs = Globally(_conj([Iff(Atom(o, pi), Atom(o, pi2)) for o in OBS_T]))
    same_act = Globally(_conj([Iff(Atom(a, pi), Atom(a, pi2)) for a in ACT_T]))
    return Implies(same_obs, same_act)


@cache
def effectiveness_fairness_formula() -> Formula:
    """exists pi . forall pi' . effectiveness and fairness for A and B."""
    return Formula(
        prefix=((Quantifier.EXISTS, "pi"), (Quantifier.FORALL, "pi2")),
        body=_phi_body("pi", "pi2"),
    )


@cache
def consistency_formula() -> Formula:
    """forall pi . forall pi' . observation-equal behaviors get identical
    third-party actions (incomplete information)."""
    return Formula(
        prefix=((Quantifier.FORALL, "pi"), (Quantifier.FORALL, "pi2")),
        body=_consistency_body("pi", "pi2"),
    )


@cache
def combined_objective_formula() -> Formula:
    """Effectiveness/fairness conjoined with consistency as one sentence.

    Prenexing exists/forall phi with the forall/forall consistency gives
    exists pi . forall pi2 . forall pi3: pi2 ranges over all behaviors, so
    the (pi2, pi3) pairs cover exactly the pairs the consistency condition
    quantifies.
    """
    return Formula(
        prefix=(
            (Quantifier.EXISTS, "pi"),
            (Quantifier.FORALL, "pi2"),
            (Quantifier.FORALL, "pi3"),
        ),
        body=And(_phi_body("pi", "pi2"), _consistency_body("pi2", "pi3")),
    )


# --- reference third-party strategies -----------------------------------

# A strategy maps the action history at a T-turn state plus the round's
# available T actions to T's next action.  The reference strategies fall
# back to skip when their rule's action is not offered in the current
# round; skip is always available, so they are total on every config.
Strategy = Callable[[Sequence[str], tuple[str, ...]], str]


def _rule_based(steps) -> Strategy:
    def strategy(history: Sequence[str], available: tuple[str, ...]) -> str:
        for waits_for, action in steps:
            if waits_for in history:
                continue
            if action in available:
                return action
            return "t_skip"
        return "t_skip"

    return strategy


# Forward m only after receiving it with the NRO, release the NRO only
# against B's NRR, and hand A the NRR last.
t_correct = _rule_based(
    (
        ("a2t_m", "t_skip"),
        ("a2t_nro", "t_skip"),
        ("t2b_m", "t2b_m"),
        ("b2t_nrr", "t_skip"),
        ("t2b_nro", "t2b_nro"),
        ("t2a_nrr", "t2a_nrr"),
    )
)

# Releases the NRO before B commits to the NRR: B can then stop and A
# never receives the NRR, so fairness for A fails.
t_incorrect = _rule_based(
    (
        ("a2t_m", "t_skip"),
        ("a2t_nro", "t_skip"),
        ("t2b_m", "t2b_m"),
        ("t2b_nro", "t2b_nro"),
        ("b2t_nrr", "t_skip"),
        ("t2a_nrr", "t2a_nrr"),
    )
)

# Delivers both pieces of evidence as soon as A sends m directly to B;
# fine for effectiveness/fairness but conditioned on an event T cannot
# observe, so it fails the consistency condition.
t_strange = _rule_based(
    (
        ("a2b_m", "t_skip"),
        ("t2b_nro", "t2b_nro"),
        ("t2a_nrr", "t2a_nrr"),
    )
)


STRATEGIES: Mapping[str, Strategy] = {
    "correct": t_correct,
    "incorrect": t_incorrect,
    "strange": t_strange,
}


def encode_strategy(plant: Plant, strategy: Strategy) -> ControllerSolution:
    """Retain, at every T-turn state, exactly the edge the strategy picks
    (histories are read off the state ids), plus the leaf self-loops.

    Raises PartialStrategy when the chosen action is not available at some
    T-turn state.
    """
    retained: set[tuple[str, str]] = set()
    for state, succ in sorted(plant.index.c_succ.items()):
        if succ == [state]:
            retained.add((state, state))  # leaf self-loop
            continue
        history = state.split("/")[1:]
        available = tuple(sorted(b.rsplit("/", 1)[1] for b in succ))
        action = strategy(history, available)
        target = f"{state}/{action}"
        chosen = (state, target)
        if chosen not in plant.c_edges:
            raise PartialStrategy(state, f"action {action!r} not available")
        retained.add(chosen)
    return ControllerSolution(frozenset(retained))
