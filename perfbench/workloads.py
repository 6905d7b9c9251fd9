"""Seeded workloads: the operations the benchmark times and the oracle
each result is checked against.

Every workload is drawn from ``random.Random(f"{name}:{seed}")`` alone, so
one seed always yields the same inputs.  Inputs are drawn in rounds, one
round at a time while the benchmark runs, so no input is ever run twice in
an end-to-end run however fast the program gets.  A round holds one input
from each cell of the workload (a cell fixes the input properties the cost
depends on: size, alternation depth, truth value, frame), so every prefix
of the operation sequence has nearly the same mix whatever the seed.  The
program only ever sees the generated inputs: DIMACS text, QBF objects,
plant JSON, formula text and protocol configs.

An operation's ``run`` is the timed call.  It reaches the library through
module attributes (``R.parse_dimacs`` rather than an imported name) so that
the traced run's rebinding of those attributes is seen.  Everything else on
an operation (``after``, ``check``, ``census``) runs outside the timed
region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import hypersynth.cli as C
import hypersynth.reductions as R
import hypersynth.synth as S
from hypersynth.formula import Formula, FragmentKind, Not, Quantifier, classify_fragment
from hypersynth.nrp import (
    ACT_A,
    ACT_B,
    ACT_T,
    STRATEGIES,
    ProtocolConfig,
    build_plant,
    combined_objective_formula,
    config_to_dict,
    curated_config,
    effectiveness_fairness_formula,
    encode_strategy,
)
from hypersynth.parser import print_formula
from hypersynth.plant import (
    FrameKind,
    Lasso,
    Plant,
    classify_frame,
    dump_plant,
    enumerate_lassos,
    enumerate_traces,
)
from hypersynth.semantics import check, eval_quantified
from hypersynth.synth import apply_solution, candidate_space_bits

import helpers as H

E, A = Quantifier.EXISTS, Quantifier.FORALL

# Exit codes of the CLI: verdicts, and the candidate-space guard.
VERDICT_CODES = (0, 1, 3)
GUARD_CODE = 4


@dataclass
class Outcome:
    """Result of one timed call.  ``status`` is "ok", "guard" (the
    candidate-space guard tripped), "timeout" or "error"; ``value`` is the
    call's result, and ``extra`` what ``after`` collected."""

    status: str
    value: object = None
    extra: object = None


@dataclass
class Op:
    kind: str
    digest: str  # canonical text of the input, for the input digest
    run: Callable[[], object]
    check: Callable[[Outcome], Optional[str]]  # None, or why it failed
    census: Callable[[], dict]
    after: Optional[Callable[[], object]] = None
    cli: bool = False  # value is (exit code, stdout)

    def decided(self, out: Outcome) -> bool:
        if out.status != "ok":
            return False
        return out.value[0] in VERDICT_CODES if self.cli else True

    def failure(self, out: Outcome) -> Optional[str]:
        """Why the outcome counts as failed, or None.  Undecided outcomes
        (guard, per-operation limit, exit 4) do not fail."""
        if out.status == "error":
            return f"exception {out.value}"
        if out.status != "ok":
            return None
        if self.cli:
            code = out.value[0]
            if code == GUARD_CODE:
                return None
            if code not in VERDICT_CODES:
                return f"exit code {code}"
        return self.check(out)

    def normalized(self, out: Outcome):
        """The part of an outcome that must repeat exactly when the same
        input runs again (the report's elapsed time is dropped)."""
        if self.cli and out.status == "ok":
            code, text = out.value
            report = _json_report(text)
            if isinstance(report, dict):
                report.pop("elapsed", None)
            return (out.status, code, json.dumps(report, sort_keys=True), out.extra)
        return (out.status, repr(out.value), out.extra)


class Workload:
    """A seeded stream of rounds; each round holds the workload's full mix
    of operations.  An end-to-end run holds at least ``min_rounds``
    rounds."""

    def __init__(self, name: str, draw_round: Callable[[], list[Op]], min_rounds: int = 1):
        self.name = name
        self._draw_round = draw_round
        self.min_rounds = min_rounds
        self.rounds = 0
        self._hash = hashlib.sha256()

    def next_round(self) -> list[Op]:
        ops = self._draw_round()
        for op in ops:
            self._hash.update(op.kind.encode())
            self._hash.update(b"\0")
            self._hash.update(op.digest.encode())
            self._hash.update(b"\n")
        self.rounds += 1
        return ops

    def digest(self) -> str:
        """Digest of every input drawn so far."""
        return self._hash.hexdigest()


# --- shared pieces -------------------------------------------------------


def _json_report(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = C.main(argv)
    return code, out.getvalue()


def _route(frame: FrameKind, f: Formula) -> str:
    """The dispatch route a synthesis of ``f`` on this frame takes."""
    kind = classify_fragment(f).kind
    if frame is FrameKind.TREE and kind is FragmentKind.E_STAR_A:
        return "tree_ea"
    if frame is FrameKind.TREE and kind is FragmentKind.A_E_STAR:
        return "marking"
    return "generic"


def _census(plant: Plant, f: Formula, traces: int, route: Optional[str] = None) -> dict:
    """Input properties of one operation; ``route`` None means the
    operation synthesizes, so its route follows from frame and prefix."""
    frame = classify_frame(plant)
    return {
        "route": route or _route(frame, f),
        "universal": all(q is A for q, _ in f.prefix),
        "frame": frame.value,
        "states": len(plant.states),
        "traces": traces,
        "bits": candidate_space_bits(plant),
    }


def _exact_census(plant: Plant, f: Formula) -> dict:
    return _census(plant, f, len(enumerate_traces(plant)))


def _dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _round_drawer(rng: random.Random, cells: list) -> Callable[[], list[Op]]:
    """Rounds of one draw per cell, each round in seeded order."""

    def draw_round():
        round_ = [draw(rng) for draw in cells]
        rng.shuffle(round_)
        return round_

    return draw_round


def _draw_until(rng: random.Random, draw, accept, what: str, tries: int = 10000):
    for _ in range(tries):
        item = draw(rng)
        if accept(item):
            return item
    raise RuntimeError(f"no {what} found in {tries} draws")


# --- sat: 3SAT and HORN reductions ---------------------------------------


def _sat_op(kind: str, cnf: R.CnfInput) -> Op:
    text = _dimacs(cnf.num_vars, cnf.clauses)
    horn = kind == "horn"
    expected = H.sat_brute(cnf)

    def run():
        parsed = R.parse_dimacs(text)
        if horn:
            inst = R.horn_to_instance(R.normalize_horn(parsed))
        else:
            inst = R.threesat_to_instance(parsed)
        result = S.dispatch(inst.plant, inst.formula)
        decoded = (
            R.decode_assignment(inst, result.solution) if result.realizable else None
        )
        return result.verdict.value, decoded

    def check_(out: Outcome) -> Optional[str]:
        verdict, decoded = out.value
        if (verdict == "realizable") != expected:
            return f"{kind} verdict {verdict}, brute force says satisfiable={expected}"
        if decoded is None:
            return None
        original = {v: decoded.get(v) for v in range(1, cnf.num_vars + 1)}
        if None in original.values() or not H.cnf_satisfied(cnf, original):
            return f"{kind} decoded assignment does not satisfy the CNF"
        if horn:
            norm = R.normalize_horn(cnf)
            if not H.cnf_satisfied(norm, decoded):
                return "horn decoded assignment does not satisfy the normalized CNF"
            if decoded[norm.bot] is not False or decoded[norm.top] is not True:
                return "horn decoded assignment breaks the bot/top side conditions"
        return None

    def census():
        norm = R.normalize_horn(cnf) if horn else cnf
        inst = R.horn_to_instance(norm) if horn else R.threesat_to_instance(cnf)
        return _exact_census(inst.plant, inst.formula)

    return Op(kind, text, run, check_, census)


def _threesat_cell(num_vars: int, num_clauses: int):
    return lambda rng: _sat_op("3sat", H.random_3cnf(rng, num_vars, num_clauses))


def _horn_cell(num_clauses: int):
    def draw(rng):
        cnf = _draw_until(
            rng,
            lambda r: H.random_horn_cnf(r, max_vars=4, max_clauses=4),
            lambda c: len(c.clauses) == num_clauses,
            f"{num_clauses}-clause Horn CNF",
        )
        return _sat_op("horn", cnf)

    return draw


def build_sat(rng: random.Random, workdir: Path) -> Workload:
    cells = [_threesat_cell(n, m) for n in (3, 4, 5) for m in (1, 2, 3, 4)]
    cells += [_horn_cell(m) for m in (1, 2, 3, 4) for _ in range(3)]
    return Workload("sat", _round_drawer(rng, cells))


# --- qbf: exists-leading QBF reduction -----------------------------------


def _qbf_op(qbf: R.QbfInput, expected: bool) -> Op:
    def run():
        inst = R.qbf_to_instance(qbf)
        result = S.dispatch(inst.plant, inst.formula)
        decoded = (
            R.decode_assignment(inst, result.solution) if result.realizable else None
        )
        return result.verdict.value, decoded

    def check_(out: Outcome) -> Optional[str]:
        verdict, decoded = out.value
        if (verdict == "realizable") != expected:
            return f"qbf verdict {verdict}, brute force says true={expected}"
        if decoded is not None and not H.qbf_brute_fixed(qbf, decoded):
            return "qbf decoded block-1 assignment does not make the QBF true"
        return None

    def census():
        inst = R.qbf_to_instance(qbf)
        return _exact_census(inst.plant, inst.formula)

    text = json.dumps(
        {"prefix": [[q.value, v] for q, v in qbf.prefix], "clauses": qbf.clauses}
    )
    return Op("qbf", text, run, check_, census)


def _pattern(qbf: R.QbfInput) -> str:
    return "".join("e" if q is E else "a" for q, _ in qbf.prefix)


def _qbf_cell(pattern: str, truth: Optional[bool]):
    alternations = sum(1 for a, b in zip(pattern, pattern[1:]) if a != b)

    def draw(rng):
        qbf = _draw_until(
            rng,
            lambda r: H.random_qbf(r, num_vars=len(pattern), alternations=alternations),
            lambda q: _pattern(q) == pattern and (truth is None or H.qbf_brute(q) is truth),
            f"QBF with prefix {pattern} and truth {truth}",
        )
        return _qbf_op(qbf, H.qbf_brute(qbf))

    return draw


# Cells by quantifier pattern of 3 and 4 variables with one or two
# alternations, split by truth value where both occur often; the pattern
# and the truth value set most of an instance's cost.  "eae" appears twice
# so that the 3- and 4-variable halves take similar time.  Four-variable
# two-alternation instances take 1-2.5 s each and are left out.
QBF_CELLS = (
    ("eaa", True), ("eaa", False), ("eea", True), ("eae", True), ("eae", True),
    ("eaaa", True), ("eaaa", False), ("eeaa", True), ("eeea", True),
)


def build_qbf(rng: random.Random, workdir: Path) -> Workload:
    cells = [_qbf_cell(pattern, truth) for pattern, truth in QBF_CELLS]
    return Workload("qbf", _round_drawer(rng, cells))


# --- casestudy: non-repudiation protocol through the CLI -----------------


def _tree_size(cfg: ProtocolConfig) -> tuple[int, int]:
    """(states, leaves) of the config's action tree, without building it."""
    states, level = 1, 1
    for r in range(cfg.rounds):
        for acts in (cfg.a_actions[r], cfg.t_actions[r], cfg.b_actions[r]):
            level *= len(acts)
            states += level
    return states, level


def _random_config(rng: random.Random) -> ProtocolConfig:
    rounds = rng.randint(1, 4)

    def pick(actions):
        return tuple(
            frozenset(a for a in actions if not a.endswith("_skip") and rng.random() < 0.35)
            for _ in range(rounds)
        )

    return ProtocolConfig(rounds, pick(ACT_A), pick(ACT_T), pick(ACT_B))


# Leaf-count bands of the random configs, one config of each per round;
# the curated config has 1152 leaves and 4012 states.  Larger configs make
# the cost heavy-tailed: one of 32..95 leaves takes 0.01 s to 1 s, one of
# 96..400 leaves 0.1 s to 10 s.
CONFIG_BANDS = ((8, 14), (14, 22), (22, 32))

CURATED_PHI = {"correct": True, "incorrect": False, "strange": True}
CURATED_CONSISTENCY = {"strange": False}


class _Config:
    """One protocol config, its files, and facts the gate derives from it
    (computed on first use, outside the timed region)."""

    def __init__(self, cfg: ProtocolConfig, label: str, workdir: Path, curated: bool):
        self.cfg = cfg
        self.label = label
        self.curated = curated
        self.phi = effectiveness_fairness_formula()
        self.config_path = workdir / f"{label}.config.json"
        self.plant_path = workdir / f"{label}.plant.json"
        self.witness_path = workdir / f"{label}.witness.json"
        self.config_path.write_text(json.dumps(config_to_dict(cfg), sort_keys=True))
        self.plant_path.write_text(dump_plant(build_plant(cfg)))
        self._plant: Optional[Plant] = None
        self._strategy_phi: dict[str, bool] = {}
        self._realizable: Optional[bool] = None
        self._census: Optional[dict] = None
        self._witness_problems: dict[str, Optional[str]] = {}

    def witness_problem(self, text: Optional[str]) -> Optional[str]:
        """``_witness_problem`` against phi, once per distinct witness."""
        key = text or ""
        if key not in self._witness_problems:
            self._witness_problems[key] = _witness_problem(
                self.plant, text, lambda pruned: check(pruned, self.phi).holds)
        return self._witness_problems[key]

    @property
    def plant(self) -> Plant:
        # built again on first use by the gate.  The curated plant is not
        # kept: its config lives through the whole run, and holding its
        # 4012 states would add to the run's peak memory.
        if self._plant is not None:
            return self._plant
        plant = build_plant(self.cfg)
        if not self.curated:
            self._plant = plant
        return plant

    def strategy_phi(self, name: str) -> bool:
        if name not in self._strategy_phi:
            pruned = apply_solution(self.plant, encode_strategy(self.plant, STRATEGIES[name]))
            self._strategy_phi[name] = check(pruned, self.phi).holds
        return self._strategy_phi[name]

    def realizable(self) -> bool:
        if self._realizable is None:
            self._realizable = S.dispatch(self.plant, self.phi).realizable
        return self._realizable

    def census(self, f: Formula, synthesizes: bool) -> dict:
        if self._census is None:
            self._census = _exact_census(self.plant, self.phi)
        frame = FrameKind(self._census["frame"])
        return {**self._census,
                "route": _route(frame, f) if synthesizes else "check",
                "universal": all(q is A for q, _ in f.prefix)}


def _strategy_op(conf: _Config, strategy: str) -> Op:
    argv = ["casestudy", "--strategy", strategy, "--json"]
    if not conf.curated:
        argv[1:1] = ["--config", str(conf.config_path)]

    def check_(out: Outcome) -> Optional[str]:
        code, text = out.value
        report = _json_report(text)
        if not isinstance(report, dict) or "phi" not in report:
            return f"casestudy {strategy}: unreadable report"
        if code != (0 if report["phi"] else 1):
            return f"casestudy {strategy}: exit {code} disagrees with phi={report['phi']}"
        if conf.curated:
            if report["phi"] is not CURATED_PHI[strategy]:
                return f"curated {strategy}: phi={report['phi']}, expected {CURATED_PHI[strategy]}"
            want = CURATED_CONSISTENCY.get(strategy)
            if want is not None and report["consistency"] is not want:
                return f"curated {strategy}: consistency={report['consistency']}"
        elif report["phi"] and not conf.realizable():
            return f"{conf.label} {strategy} satisfies phi but synthesis is unrealizable"
        return None

    return Op(
        "cs_strategy",
        f"{conf.label} {strategy} {conf.config_path.read_text()}",
        lambda: call_cli(argv),
        check_,
        lambda: conf.census(conf.phi, synthesizes=False),
        cli=True,
    )


def _read_witness(path: Path) -> Optional[str]:
    """Read and remove the witness, so a run that writes none is seen."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    path.unlink()
    return text


def _witness_problem(plant: Plant, text: Optional[str], holds) -> Optional[str]:
    """Why a synth --out witness does not hold up, or None; ``holds``
    decides the formula on the pruned plant."""
    if text is None:
        return "realizable but no witness written"
    data = json.loads(text)
    sha = hashlib.sha256(dump_plant(plant).encode()).hexdigest()
    if data.get("plant_sha256") != sha:
        return "witness plant_sha256 does not match the plant"
    retained = frozenset(tuple(e) for e in data["retained"])
    if not retained <= plant.c_edges:
        return "witness retains an edge that is not controllable"
    if not holds(apply_solution(plant, S.ControllerSolution(retained))):
        return "witness does not re-check"
    return None


def _cs_synth_op(conf: _Config) -> Op:
    phi_path = conf.plant_path.parent / "phi.hltl"
    argv = ["synth", str(conf.plant_path), str(phi_path), "--out", str(conf.witness_path), "--json"]

    def check_(out: Outcome) -> Optional[str]:
        code, _ = out.value
        if code == 0:
            problem = conf.witness_problem(out.extra)
            return f"{conf.label} synth: {problem}" if problem else None
        if conf.curated:
            return "curated synth unrealizable, criterion 7 says realizable"
        passing = [s for s in STRATEGIES if conf.strategy_phi(s)]
        if passing:
            return f"{conf.label} synth unrealizable but strategy {passing[0]} satisfies phi"
        return None

    return Op(
        "cs_synth",
        f"{conf.label} synth {conf.config_path.read_text()}",
        lambda: call_cli(argv),
        check_,
        lambda: conf.census(conf.phi, synthesizes=True),
        after=lambda: _read_witness(conf.witness_path),
        cli=True,
    )


def _consistency_op(conf: _Config) -> Op:
    argv = ["casestudy", "--strategy", "synthesize", "--with-consistency", "--json"]

    def check_(out: Outcome) -> Optional[str]:
        code, text = out.value
        report = _json_report(text)
        if not isinstance(report, dict) or "verdict" not in report:
            return "with-consistency: unreadable report"
        if (code == 0) != (report["verdict"] == "realizable"):
            return f"with-consistency: exit {code} disagrees with {report['verdict']}"
        return None

    combined = combined_objective_formula()
    return Op(
        "cs_consistency",
        "curated synthesize --with-consistency",
        lambda: call_cli(argv),
        check_,
        lambda: conf.census(combined, synthesizes=True),
        cli=True,
    )


def _config_in_band(lo: int, hi: int):
    def draw(rng):
        return _draw_until(
            rng,
            _random_config,
            lambda c: lo <= _tree_size(c)[1] < hi,
            f"protocol config with {lo}..{hi} leaves",
        )

    return draw


# Each round opens with one curated operation, then runs the random
# configs' operations.  The curated operation cycles through five kinds,
# the guard-tripping --with-consistency synthesis first, so that operation
# is a fixed share of the rounds and decided_frac does not depend on how
# many rounds a run holds.  Every curated operation takes 1.1-2 s.  An
# end-to-end run holds at least CURATED_MIN_ROUNDS rounds (about 23 s), so
# its eleven slowest operations are always curated ones and the tail
# latency reads fixed inputs rather than whichever random config is
# slowest.  The curated operations are the one input a run repeats: they
# are the paper's case study.
CURATED_CYCLE = ("consistency", "correct", "incorrect", "strange", "synth")
CURATED_MIN_ROUNDS = 12


def build_casestudy(rng: random.Random, workdir: Path) -> Workload:
    (workdir / "phi.hltl").write_text(print_formula(effectiveness_fairness_formula()) + "\n")
    curated = _Config(curated_config(), "curated", workdir, curated=True)
    curated_ops = {
        "consistency": _consistency_op(curated),
        "synth": _cs_synth_op(curated),
        **{s: _strategy_op(curated, s) for s in STRATEGIES},
    }
    bands = [_config_in_band(lo, hi) for lo, hi in CONFIG_BANDS]
    counter = [0]

    def draw_round():
        r = counter[0]
        counter[0] += 1
        random_ops = []
        for c, draw in enumerate(bands):
            conf = _Config(draw(rng), f"r{r}c{c}", workdir, curated=False)
            random_ops += [_strategy_op(conf, s) for s in STRATEGIES]
            random_ops.append(_cs_synth_op(conf))
        rng.shuffle(random_ops)
        return [curated_ops[CURATED_CYCLE[r % len(CURATED_CYCLE)]]] + random_ops

    return Workload("casestudy", draw_round, CURATED_MIN_ROUNDS)


# --- general: bounded check and synth on general frames ------------------


def _canonical_word(stem: tuple, loop: tuple) -> tuple[tuple, tuple]:
    """Reduced form of stem.loop^omega: primitive loop, shortest stem."""
    n = len(loop)
    for p in range(1, n + 1):
        if n % p == 0 and loop == loop[:p] * (n // p):
            loop = loop[:p]
            break
    while stem and stem[-1] == loop[-1]:
        stem, loop = stem[:-1], loop[-1:] + loop[:-1]
    return stem, loop


def bounded_words(plant: Plant, stem_bound: int, loop_bound: int) -> list[Lasso]:
    """Words of walks of length <= stem_bound from init followed by a
    closed walk of length 1..loop_bound, walked state by state; the
    oracle's own counterpart of the library's bounded lasso enumeration."""
    succ: dict[str, list[str]] = {s: [] for s in plant.states}
    for a, b in plant.c_edges | plant.u_edges:
        succ[a].append(b)
    label = plant.label
    words = set()
    walks = [(plant.init, ())]
    for depth in range(stem_bound + 1):
        for state, stem in walks:
            closed = [(state, ())]
            for _ in range(loop_bound):
                nxt = []
                for s, loop in closed:
                    here = loop + (label(s),)
                    for t in succ[s]:
                        if t == state:
                            words.add(_canonical_word(stem, here))
                        nxt.append((t, here))
                closed = nxt
        if depth < stem_bound:
            walks = [(t, stem + (label(s),)) for s, stem in walks for t in succ[s]]
            walks = list(dict.fromkeys(walks))
    return [Lasso(s, l) for s, l in sorted(words, key=lambda w: repr(w))]


def _node_count(body) -> int:
    children = [v for v in vars(body).values() if not isinstance(v, str)]
    return 1 + sum(_node_count(c) for c in children)


def _or3(a, b):
    if a is True or b is True:
        return True
    return False if a is False and b is False else None


def _and3(a, b):
    if a is False or b is False:
        return False
    return True if a is True and b is True else None


def naive_verdict(f: Formula, words: list[Lasso]) -> Optional[bool]:
    """Quantifier enumeration over ``words`` with the tests' truncation
    evaluator at each leaf; None where it stays inconclusive."""
    size = _node_count(f.body)

    def rec(depth: int, asg: dict) -> Optional[bool]:
        if depth == len(f.prefix):
            stem = max(len(l.stem) for l in asg.values())
            period = 1
            for l in asg.values():
                period = math.lcm(period, len(l.loop))
            return H.naive_eval(f.body, asg, stem + period * (size + 2))
        quant, var = f.prefix[depth]
        acc = quant is A
        for w in words:
            r = rec(depth + 1, {**asg, var: w})
            acc = _and3(acc, r) if quant is A else _or3(acc, r)
            if acc is (quant is E):
                return acc
        return acc

    return rec(0, {})


def dual(f: Formula) -> Formula:
    flipped = tuple((E if q is A else A, v) for q, v in f.prefix)
    return Formula(flipped, Not(f.body))


def bounded_holds(plant: Plant, f: Formula, bounds) -> bool:
    """``f`` over the plant's bounded lasso set, walked by the benchmark
    itself, as ``check`` and ``synth`` decide general frames.

    ``check`` cannot serve here: on a pruning that is no longer a general
    frame it switches to the exact trace set, which can disagree with the
    bounded set that ``synth`` searches (a pruning may satisfy a formula
    exactly yet not at the bounds).  The evaluator is the library's; the
    check operations test it against the truncation oracle."""
    return eval_quantified(f, bounded_words(plant, *bounds))


def _general_files(workdir: Path, label: str, plant: Plant, f: Formula):
    plant_path = workdir / f"{label}.plant.json"
    formula_path = workdir / f"{label}.hltl"
    plant_path.write_text(dump_plant(plant))
    formula_path.write_text(print_formula(f) + "\n")
    return plant_path, formula_path


def _general_census(plant: Plant, f: Formula, bounds, route: Optional[str] = None) -> dict:
    return _census(plant, f, len(enumerate_lassos(plant, *bounds)), route)


def _general_check_op(workdir: Path, label: str, plant: Plant, f: Formula, bounds,
                      words: list[Lasso]) -> Op:
    plant_path, formula_path = _general_files(workdir, label, plant, f)
    argv = ["check", str(plant_path), str(formula_path),
            "--stem-bound", str(bounds[0]), "--loop-bound", str(bounds[1]), "--json"]

    def check_(out: Outcome) -> Optional[str]:
        code, _ = out.value
        if code == 1:
            return "general check claimed an exact negative verdict"
        expected = naive_verdict(f, words)
        if expected is None:  # inconclusive: quantifier duality instead
            expected = not eval_quantified(dual(f), words)
        if (code == 0) != expected:
            return f"general check exit {code}, oracle says holds={expected}"
        return None

    return Op(
        "gen_check",
        f"{label} {bounds} {print_formula(f)} {dump_plant(plant)}",
        lambda: call_cli(argv),
        check_,
        lambda: _general_census(plant, f, bounds, "check"),
        cli=True,
    )


def _prunings(plant: Plant):
    """Every deadlock-free retained subset of the controllable edges."""
    edges = sorted(plant.c_edges)
    for mask in range(2 ** len(edges)):
        retained = frozenset(e for k, e in enumerate(edges) if mask >> k & 1)
        sources = {a for a, _ in retained | plant.u_edges}
        if sources >= plant.states:
            yield retained


def _general_synth_op(workdir: Path, label: str, plant: Plant, f: Formula, bounds) -> Op:
    plant_path, formula_path = _general_files(workdir, label, plant, f)
    witness_path = workdir / f"{label}.witness.json"
    argv = ["synth", str(plant_path), str(formula_path), "--out", str(witness_path),
            "--stem-bound", str(bounds[0]), "--loop-bound", str(bounds[1]), "--json"]

    def check_(out: Outcome) -> Optional[str]:
        code, _ = out.value
        if code == 1:
            return "general synth claimed an exact unrealizable verdict"
        passing = [
            r for r in _prunings(plant)
            if bounded_holds(Plant(plant.states, plant.init, r, plant.u_edges, plant.labeling),
                             f, bounds)
        ]
        if (code == 0) != bool(passing):
            return f"general synth exit {code}, brute force finds {len(passing)} passing prunings"
        if code == 0:
            problem = _witness_problem(
                plant, out.extra, lambda pruned: bounded_holds(pruned, f, bounds))
            if problem:
                return f"general synth: {problem}"
            kept = len(json.loads(out.extra)["retained"])
            if kept != max(len(r) for r in passing):
                return "general synth witness is not a maximum-size passing pruning"
        return None

    return Op(
        "gen_synth",
        f"{label} {bounds} {print_formula(f)} {dump_plant(plant)}",
        lambda: call_cli(argv),
        check_,
        lambda: _general_census(plant, f, bounds),
        after=lambda: _read_witness(witness_path),
        cli=True,
    )


# (synth?, quantifiers, (stem bound, loop bound)) per cell.  Larger bounds
# go with one quantifier: the lasso count grows quickly with the bounds,
# and a two-quantifier check evaluates every pair of lassos.
GENERAL_CELLS = (
    (False, 1, (4, 4)),
    (False, 2, (3, 3)),
    (True, 1, (4, 3)),
    (True, 2, (3, 2)),
)
# Plants whose bounded lasso set is empty, or larger than this, are drawn
# again: the cost of an operation grows with the lasso count raised to the
# number of quantifiers, and a few plants of 100+ lassos would otherwise
# decide the tail latency.
GENERAL_MAX_LASSOS = 16


def _general_plant(rng: random.Random) -> Plant:
    return _draw_until(
        rng,
        lambda r: H.random_general_plant(r, max_states=7),
        lambda p: len(p.states) >= 4 and classify_frame(p) is FrameKind.GENERAL,
        "general-frame plant with 4..7 states",
    )


def _with_controllable(rng: random.Random, plant: Plant, count: int) -> Plant:
    flip = set(rng.sample(sorted(plant.u_edges), min(count, len(plant.u_edges))))
    return Plant(plant.states, plant.init, frozenset(flip),
                 plant.u_edges - flip, plant.labeling)


def _general_cell(synth: bool, quantifiers: int, bounds, workdir: Path, counter: list):
    def draw(rng):
        counter[0] += 1
        label = f"g{counter[0]}"
        def plant_and_words(r):
            plant = _general_plant(r)
            return plant, bounded_words(plant, *bounds)

        plant, words = _draw_until(
            rng,
            plant_and_words,
            lambda pw: 1 <= len(pw[1]) <= GENERAL_MAX_LASSOS,
            f"general plant with 1..{GENERAL_MAX_LASSOS} lassos at bounds {bounds}",
        )
        quants = tuple(rng.choice((E, A)) for _ in range(quantifiers))
        f = H.random_prefix_formula(rng, quants, budget=5)
        if synth:
            plant = _with_controllable(rng, plant, rng.randint(2, 3))
            return _general_synth_op(workdir, label, plant, f, bounds)
        return _general_check_op(workdir, label, plant, f, bounds, words)

    return draw


def build_general(rng: random.Random, workdir: Path) -> Workload:
    counter = [0]
    cells = [_general_cell(*cell, workdir, counter) for cell in GENERAL_CELLS]
    return Workload("general", _round_drawer(rng, cells))


# name -> function of (seeded rng, scratch directory) giving the workload
WORKLOADS = {
    "sat": build_sat,
    "qbf": build_qbf,
    "casestudy": build_casestudy,
    "general": build_general,
}
