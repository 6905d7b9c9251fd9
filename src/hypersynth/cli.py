"""Command-line front end.

Commands: classify | check | synth | reduce | casestudy.  Exit codes are a
total function of the verdict: 0 satisfied/realizable, 1 not satisfied/
unrealizable, 2 malformed input, 3 bounded-unknown (negative at the
explored bound, general frames only), 4 candidate-space guard tripped.
The environment variable HYPERSYNTH_THREADS caps internal parallelism;
the engines run deterministically and currently use a single worker,
which always respects the cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import CandidateSpaceExceeded, HypersynthError
from .formula import Formula, classify_fragment
from .nrp import (
    STRATEGIES,
    build_plant,
    combined_objective_formula,
    config_from_dict,
    consistency_formula,
    curated_config,
    effectiveness_fairness_formula,
    encode_strategy,
)
from .parser import parse, print_formula
from .plant import (
    Plant,
    classify_frame,
    dump_edges,
    dump_plant,
    load_plant,
    to_dot,
    validate,
)
from .reductions import (
    SynthesisInstance,
    horn_to_instance,
    normalize_horn,
    parse_dimacs,
    parse_qdimacs,
    qbf_to_instance,
    threesat_to_instance,
)
from .semantics import check
from .synth import Verdict, apply_solution, dispatch

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BAD_INPUT = 2
EXIT_BOUNDED = 3
EXIT_GUARD = 4


@dataclass
class RunReport:
    verdict: str
    exact: bool
    frame: Optional[str] = None
    fragment: Optional[str] = None
    witness_path: Optional[str] = None
    elapsed: float = 0.0

    def lines(self) -> list[str]:
        out = [f"verdict: {self.verdict}"]
        if self.frame is not None:
            out.append(f"frame: {self.frame}")
        if self.fragment is not None:
            out.append(f"fragment: {self.fragment}")
        out.append(f"exact: {'yes' if self.exact else 'no'}")
        if self.witness_path is not None:
            out.append(f"witness: {self.witness_path}")
        out.append(f"elapsed: {self.elapsed:.3f}s")
        return out

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "exact": self.exact,
            "frame": self.frame,
            "fragment": self.fragment,
            "witness": self.witness_path,
            "elapsed": round(self.elapsed, 6),
        }


def _emit(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for line in report.lines():
            print(line)


def _threads_cap() -> int:
    raw = os.environ.get("HYPERSYNTH_THREADS")
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError as exc:
        raise HypersynthError(f"HYPERSYNTH_THREADS must be an integer: {raw!r}") from exc
    if cap < 1:
        raise HypersynthError("HYPERSYNTH_THREADS must be >= 1")
    return cap


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise HypersynthError(f"cannot read {path}: {exc}") from exc


def _load_plant(path: str) -> Plant:
    plant = load_plant(_read(path))
    validate(plant)
    return plant


def _load_formula(path: str) -> Formula:
    return parse(_read(path))


def _plant_sha(plant: Plant) -> str:
    return hashlib.sha256(dump_plant(plant).encode()).hexdigest()


def _bounds(args) -> Optional[tuple[int, int]]:
    if args.stem_bound is None and args.loop_bound is None:
        return None
    if args.stem_bound is None or args.loop_bound is None:
        raise HypersynthError("--stem-bound and --loop-bound must be given together")
    if args.stem_bound < 0 or args.loop_bound < 1:
        raise HypersynthError("--stem-bound must be >= 0 and --loop-bound >= 1")
    return (args.stem_bound, args.loop_bound)


def cmd_classify(args) -> int:
    started = time.perf_counter()
    plant = _load_plant(args.plant)
    frame = classify_frame(plant)
    fragment = None
    if args.formula is not None:
        fragment = str(classify_fragment(_load_formula(args.formula)))
    if args.dot is not None:
        Path(args.dot).write_text(to_dot(plant))
    report = RunReport(
        verdict=frame.value,
        exact=True,
        frame=frame.value,
        fragment=fragment,
        elapsed=time.perf_counter() - started,
    )
    _emit(report, args.json)
    return EXIT_OK


def cmd_check(args) -> int:
    started = time.perf_counter()
    plant = _load_plant(args.plant)
    formula = _load_formula(args.formula)
    result = check(plant, formula, bounds=_bounds(args))
    report = RunReport(
        verdict="satisfied" if result.holds else "not-satisfied",
        exact=result.exact,
        frame=classify_frame(plant).value,
        fragment=str(classify_fragment(formula)),
        elapsed=time.perf_counter() - started,
    )
    _emit(report, args.json)
    if result.holds:
        return EXIT_OK
    return EXIT_NEGATIVE if result.exact else EXIT_BOUNDED


def cmd_synth(args) -> int:
    started = time.perf_counter()
    plant = _load_plant(args.plant)
    formula = _load_formula(args.formula)
    result = dispatch(
        plant, formula, bounds=_bounds(args), max_candidate_bits=args.max_c
    )
    witness_path = None
    if result.realizable and args.out is not None:
        # the text of json.dumps(witness, indent=2, sort_keys=True), whose
        # indenting encoder is pure Python
        Path(args.out).write_text(
            "{\n"
            f'  "plant_sha256": "{_plant_sha(plant)}",\n'
            f'  "retained": {dump_edges(result.solution.retained)}\n'
            "}\n"
        )
        witness_path = args.out
    report = RunReport(
        verdict=result.verdict.value,
        exact=result.exact,
        frame=classify_frame(plant).value,
        fragment=str(classify_fragment(formula)),
        witness_path=witness_path,
        elapsed=time.perf_counter() - started,
    )
    _emit(report, args.json)
    if result.verdict is Verdict.REALIZABLE:
        return EXIT_OK
    if result.verdict is Verdict.UNREALIZABLE:
        return EXIT_NEGATIVE
    return EXIT_BOUNDED


def _write_instance(inst: SynthesisInstance, out_dir: Path, stem: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.plant.json").write_text(dump_plant(inst.plant))
    (out_dir / f"{stem}.formula.hltl").write_text(print_formula(inst.formula) + "\n")
    meta = dict(inst.decoder_meta)
    meta["plant_sha256"] = _plant_sha(inst.plant)
    (out_dir / f"{stem}.decoder.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )


def cmd_reduce(args) -> int:
    started = time.perf_counter()
    text = _read(args.input)
    if args.kind == "horn":
        inst = horn_to_instance(normalize_horn(parse_dimacs(text)))
    elif args.kind == "3sat":
        inst = threesat_to_instance(parse_dimacs(text))
    else:
        inst = qbf_to_instance(parse_qdimacs(text))
    out_dir = Path(args.out_dir)
    _write_instance(inst, out_dir, args.kind)
    report = RunReport(
        verdict="reduced",
        exact=True,
        frame=classify_frame(inst.plant).value,
        fragment=str(classify_fragment(inst.formula)),
        witness_path=str(out_dir / f"{args.kind}.plant.json"),
        elapsed=time.perf_counter() - started,
    )
    _emit(report, args.json)
    return EXIT_OK


def cmd_casestudy(args) -> int:
    started = time.perf_counter()
    if args.config is not None:
        cfg = config_from_dict(json.loads(_read(args.config)))
    else:
        cfg = curated_config()
    plant = build_plant(cfg)
    phi = effectiveness_fairness_formula()
    cons = consistency_formula()
    if args.strategy == "synthesize":
        objective = combined_objective_formula() if args.with_consistency else phi
        result = dispatch(plant, objective, max_candidate_bits=args.max_c)
        report = RunReport(
            verdict=result.verdict.value,
            exact=result.exact,
            frame=classify_frame(plant).value,
            fragment=str(classify_fragment(objective)),
            elapsed=time.perf_counter() - started,
        )
        _emit(report, args.json)
        return EXIT_OK if result.realizable else EXIT_NEGATIVE
    strategy = STRATEGIES[args.strategy]
    pruned = apply_solution(plant, encode_strategy(plant, strategy))
    phi_ok = bool(check(pruned, phi))
    cons_ok = bool(check(pruned, cons))
    elapsed = time.perf_counter() - started
    if args.json:
        print(json.dumps({
            "strategy": args.strategy,
            "phi": phi_ok,
            "consistency": cons_ok,
            "elapsed": round(elapsed, 6),
        }, indent=2))
    else:
        print(f"phi: {'pass' if phi_ok else 'fail'}")
        print(f"consistency: {'pass' if cons_ok else 'fail'}")
        print(f"elapsed: {elapsed:.3f}s")
    return EXIT_OK if phi_ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hypersynth",
        description="Controller synthesis for HyperLTL specifications",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("classify", help="classify a plant frame (and a formula)")
    p.add_argument("plant")
    p.add_argument("--formula", help="also classify this formula's fragment")
    p.add_argument("--dot", help="write a DOT dump of the plant")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="model-check plant |= formula")
    p.add_argument("plant")
    p.add_argument("formula")
    p.add_argument("--stem-bound", type=int)
    p.add_argument("--loop-bound", type=int)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synth", help="synthesize a controller")
    p.add_argument("plant")
    p.add_argument("formula")
    p.add_argument("--out", help="write the witness (retained edges) here")
    p.add_argument(
        "--max-c",
        type=int,
        default=24,
        help="refuse candidate spaces beyond 2^MAX_C (default 24)",
    )
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="accepted for scripting symmetry; the search is always deterministic",
    )
    p.add_argument("--stem-bound", type=int)
    p.add_argument("--loop-bound", type=int)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("reduce", help="generate a synthesis instance")
    p.add_argument("kind", choices=("horn", "3sat", "qbf"))
    p.add_argument("input", help="DIMACS (horn, 3sat) or QDIMACS (qbf) file")
    p.add_argument("--out-dir", required=True)
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("casestudy", help="run the non-repudiation case study")
    p.add_argument("--config", help="protocol config JSON (defaults to curated)")
    p.add_argument(
        "--strategy",
        required=True,
        choices=("correct", "incorrect", "strange", "synthesize"),
    )
    p.add_argument("--with-consistency", action="store_true")
    p.add_argument(
        "--max-c",
        type=int,
        default=24,
        help="candidate-space guard for synthesize (see synth --max-c)",
    )
    common(p)
    p.set_defaults(func=cmd_casestudy)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _threads_cap()
        return args.func(args)
    except CandidateSpaceExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except HypersynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
