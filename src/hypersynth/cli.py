"""Command-line front end.

Commands: classify | check | synth | reduce | casestudy.  Each command
returns its report and whether its outcome is positive; ``main`` times
the call, prints the report (text, or JSON with ``--json``) and derives
the exit code, a total function of the outcome:

  0  positive: classified, satisfied, realizable, reduced, phi passes
  1  negative and exact: not satisfied, unrealizable, phi fails
  2  malformed input: plant, formula, DIMACS/QDIMACS, config, JSON,
     options or bounds; a file that cannot be read or is not UTF-8; an
     output path or stdout that cannot be written
  3  negative at the explored bound (bounded-unknown, general frames only)
  4  candidate-space guard tripped (raise --max-c to search anyway)
  5  internal error: any other exception; stderr gets the traceback

Every run pays for this module's imports at start-up, so importing it
(and the package's public modules) loads only what classify, check and
synth use.  A module that one command alone uses is imported inside it:
the reductions in ``cmd_reduce``, the case study in ``cmd_casestudy``,
and hashlib in ``_sha256`` (synth --out and reduce).  Nothing is
imported in an error path: an import failing there would escape
``main`` as exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import CandidateSpaceExceeded, ConfigInvalid, HypersynthError
from .formula import Formula, classify_fragment
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
from .semantics import check
from .synth import DEFAULT_MAX_CANDIDATE_BITS, apply_solution, dispatch

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BAD_INPUT = 2
EXIT_BOUNDED = 3
EXIT_GUARD = 4
EXIT_INTERNAL = 5


class Report(NamedTuple):
    """A command's output apart from the elapsed time, which ``main`` adds:
    the ``--json`` fields, the text lines, and whether a negative outcome
    is exact (exit 1) or holds only at the explored bound (exit 3)."""

    fields: dict
    lines: list[str]
    exact: bool = True


Outcome = tuple[Report, bool]


def _read(path: str) -> str:
    """The file's text, decoded as UTF-8 whatever the locale."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise HypersynthError(f"cannot read {path}: {exc}") from exc


def _write(path: Path | str, text: str, make_dirs: bool = False) -> None:
    """Write the text as UTF-8 whatever the locale."""
    try:
        if make_dirs:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, UnicodeError) as exc:
        raise HypersynthError(f"cannot write {path}: {exc}") from exc


def _print(text: str) -> None:
    """Write the report.  A stdout that refuses it (a full device, a closed
    pipe) is an unwritable output; what it did not take goes to the null
    device, or the flush at exit would fail again and exit with 120."""
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        with open(os.devnull, "w") as null, contextlib.suppress(AttributeError, OSError):
            os.dup2(null.fileno(), sys.stdout.fileno())
        raise HypersynthError(f"cannot write stdout: {exc}") from exc


def _load_plant(path: str) -> Plant:
    plant = load_plant(_read(path))
    validate(plant)
    return plant


def _load_formula(path: str) -> Formula:
    return parse(_read(path))


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def _bounds(args) -> Optional[tuple[int, int]]:
    if args.stem_bound is None and args.loop_bound is None:
        return None
    if args.stem_bound is None or args.loop_bound is None:
        raise HypersynthError("--stem-bound and --loop-bound must be given together")
    if args.stem_bound < 0 or args.loop_bound < 1:
        raise HypersynthError("--stem-bound must be >= 0 and --loop-bound >= 1")
    return (args.stem_bound, args.loop_bound)


def _report(
    plant: Plant,
    formula: Optional[Formula],
    verdict: Optional[str] = None,
    exact: bool = True,
    witness: Optional[str] = None,
) -> Report:
    """The report of classify, check, synth and reduce; classify's verdict
    is the frame."""
    frame = classify_frame(plant).value
    fragment = None if formula is None else str(classify_fragment(formula))
    verdict = frame if verdict is None else verdict
    fields = {
        "verdict": verdict,
        "exact": exact,
        "frame": frame,
        "fragment": fragment,
        "witness": witness,
    }
    text = {
        "verdict": verdict,
        "frame": frame,
        "fragment": fragment,
        "exact": "yes" if exact else "no",
        "witness": witness,
    }
    return Report(fields, [f"{k}: {v}" for k, v in text.items() if v is not None], exact)


def cmd_classify(args) -> Outcome:
    plant = _load_plant(args.plant)
    formula = None if args.formula is None else _load_formula(args.formula)
    if args.dot is not None:
        _write(args.dot, to_dot(plant))
    return _report(plant, formula), True


def cmd_check(args) -> Outcome:
    plant = _load_plant(args.plant)
    formula = _load_formula(args.formula)
    result = check(plant, formula, bounds=_bounds(args))
    verdict = "satisfied" if result.holds else "not-satisfied"
    return _report(plant, formula, verdict, result.exact), result.holds


def _synthesize(
    plant: Plant,
    formula: Formula,
    max_c: int,
    bounds: Optional[tuple[int, int]] = None,
    out: Optional[str] = None,
) -> Outcome:
    result = dispatch(plant, formula, bounds=bounds, max_candidate_bits=max_c)
    witness = out if result.realizable else None
    if witness is not None:
        # the text of json.dumps(witness, indent=2, sort_keys=True), whose
        # indenting encoder is pure Python
        _write(
            witness,
            "{\n"
            f'  "plant_sha256": "{_sha256(dump_plant(plant))}",\n'
            f'  "retained": {dump_edges(result.solution.retained)}\n'
            "}\n",
        )
    report = _report(plant, formula, result.verdict.value, result.exact, witness)
    return report, result.realizable


def cmd_synth(args) -> Outcome:
    plant = _load_plant(args.plant)
    formula = _load_formula(args.formula)
    return _synthesize(plant, formula, args.max_c, _bounds(args), args.out)


def cmd_reduce(args) -> Outcome:
    from .reductions import (
        horn_to_instance,
        normalize_horn,
        parse_dimacs,
        parse_qdimacs,
        qbf_to_instance,
        threesat_to_instance,
    )

    text = _read(args.input)
    if args.kind == "horn":
        inst = horn_to_instance(normalize_horn(parse_dimacs(text)))
    elif args.kind == "3sat":
        inst = threesat_to_instance(parse_dimacs(text))
    else:
        inst = qbf_to_instance(parse_qdimacs(text))
    plant_text = dump_plant(inst.plant)
    meta = {**inst.decoder_meta, "plant_sha256": _sha256(plant_text)}
    files = {
        "plant.json": plant_text,
        "formula.hltl": print_formula(inst.formula) + "\n",
        "decoder.json": json.dumps(meta, indent=2, sort_keys=True) + "\n",
    }
    out_dir = Path(args.out_dir)
    for suffix, content in files.items():
        _write(out_dir / f"{args.kind}.{suffix}", content, make_dirs=True)
    witness = str(out_dir / f"{args.kind}.plant.json")
    return _report(inst.plant, inst.formula, "reduced", witness=witness), True


def cmd_casestudy(args) -> Outcome:
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

    if args.config is not None:
        try:
            doc = json.loads(_read(args.config))
        except (ValueError, RecursionError) as exc:
            # ValueError: malformed text, or an integer past the digit limit
            raise ConfigInvalid(f"invalid JSON: {exc}") from exc
        cfg = config_from_dict(doc)
    else:
        cfg = curated_config()
    plant = build_plant(cfg)
    phi = effectiveness_fairness_formula()
    if args.strategy == "synthesize":
        objective = combined_objective_formula() if args.with_consistency else phi
        return _synthesize(plant, objective, args.max_c)
    pruned = apply_solution(plant, encode_strategy(plant, STRATEGIES[args.strategy]))
    passed = {
        "phi": check(pruned, phi).holds,
        "consistency": check(pruned, consistency_formula()).holds,
    }
    lines = [f"{name}: {'pass' if ok else 'fail'}" for name, ok in passed.items()]
    return Report({"strategy": args.strategy, **passed}, lines), passed["phi"]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hypersynth",
        description="Controller synthesis for HyperLTL specifications",
    )
    sub = top.add_subparsers(dest="command", required=True)

    # options shared by several commands, declared once
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true", help="machine-readable report")
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--stem-bound", type=int)
    bounds.add_argument("--loop-bound", type=int)
    guard = argparse.ArgumentParser(add_help=False)
    guard.add_argument(
        "--max-c",
        type=int,
        default=DEFAULT_MAX_CANDIDATE_BITS,
        help="refuse candidate spaces beyond 2^MAX_C (default %(default)s)",
    )

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[*parents, report])
        p.set_defaults(func=func)
        return p

    p = command("classify", cmd_classify, "classify a plant frame (and a formula)")
    p.add_argument("plant")
    p.add_argument("--formula", help="also classify this formula's fragment")
    p.add_argument("--dot", help="write a DOT dump of the plant")

    p = command("check", cmd_check, "model-check plant |= formula", bounds)
    p.add_argument("plant")
    p.add_argument("formula")

    p = command("synth", cmd_synth, "synthesize a controller", guard, bounds)
    p.add_argument("plant")
    p.add_argument("formula")
    p.add_argument("--out", help="write the witness (retained edges) here")
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="accepted for scripting symmetry; the search is always deterministic",
    )

    p = command("reduce", cmd_reduce, "generate a synthesis instance")
    p.add_argument("kind", choices=("horn", "3sat", "qbf"))
    p.add_argument("input", help="DIMACS (horn, 3sat) or QDIMACS (qbf) file")
    p.add_argument("--out-dir", required=True)

    p = command("casestudy", cmd_casestudy, "run the non-repudiation case study", guard)
    p.add_argument("--config", help="protocol config JSON (defaults to curated)")
    p.add_argument(
        "--strategy",
        required=True,
        choices=("correct", "incorrect", "strange", "synthesize"),
    )
    p.add_argument("--with-consistency", action="store_true")
    return top


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main()


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, positive = args.func(args)
        elapsed = time.perf_counter() - started
        if args.json:
            _print(json.dumps({**report.fields, "elapsed": round(elapsed, 6)}, indent=2))
        else:
            _print("\n".join([*report.lines, f"elapsed: {elapsed:.3f}s"]))
    except CandidateSpaceExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except HypersynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    if positive:
        return EXIT_OK
    return EXIT_NEGATIVE if report.exact else EXIT_BOUNDED


if __name__ == "__main__":
    sys.exit(main())
