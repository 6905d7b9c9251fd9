"""Span recorder for the traced benchmark run.

The library's public functions are wrapped from outside: every module of
the package that holds a name bound to one of them (the defining module
included, because the modules import each other's functions by name) gets
that name rebound to a wrapper.  Each call records one span: its name, its
start and end, the span that was open when it began, and the operation it
belongs to.  Spans are kept in memory in flat arrays and written out when
the run ends.  A span's self time is its duration minus the time covered by
the spans it caused.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

from hypersynth.errors import CandidateSpaceExceeded

# (module, function, span name, output counter or None).  Several functions
# may share a span name; they then form one layer metric.
WRAPPED = (
    ("plant", "classify_frame", "plant.classify", None),
    ("plant", "enumerate_traces", "plant.traces", len),
    ("plant", "enumerate_lassos", "plant.lassos", len),
    ("plant", "load_plant", "plant.load", None),
    ("plant", "validate", "plant.validate", None),
    ("plant", "dump_plant", "plant.dump", None),
    ("parser", "parse", "parser.parse", None),
    ("semantics", "eval_body", "semantics.eval_body", None),
    ("semantics", "eval_quantified_witness", "semantics.quantified", None),
    ("semantics", "check", "semantics.check", None),
    ("synth", "synth_generic", "synth.generic", None),
    ("synth", "synth_tree_exists_forall", "synth.tree_ef", None),
    ("synth", "synth_tree_marking", "synth.marking", None),
    ("synth", "dispatch", "synth.dispatch", None),
    ("synth", "apply_solution", "synth.apply", None),
    ("reductions", "parse_dimacs", "reductions.parse", None),
    ("reductions", "parse_qdimacs", "reductions.parse", None),
    ("reductions", "normalize_horn", "reductions.build", None),
    ("reductions", "horn_to_instance", "reductions.build", None),
    ("reductions", "threesat_to_instance", "reductions.build", None),
    ("reductions", "qbf_to_instance", "reductions.build", None),
    ("reductions", "decode_assignment", "reductions.decode", None),
    ("nrp", "build_plant", "nrp.build", None),
    ("nrp", "encode_strategy", "nrp.encode", None),
    ("cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in WRAPPED))
MODULES = ("plant", "parser", "semantics", "synth", "reductions", "nrp", "cli")

# Per-layer metrics: (metric name, unit, how it is computed).  "self" sums
# self time over a span name, "calls" counts its spans, "out" sums the
# output counter, and the rest are named special cases.
LAYER_METRICS = (
    ("plant.classify_s", "s", ("self", "plant.classify")),
    ("plant.classify_calls", "count", ("calls", "plant.classify")),
    ("plant.traces_s", "s", ("self", "plant.traces")),
    ("plant.traces_out", "count", ("out", "plant.traces")),
    ("plant.lassos_s", "s", ("self", "plant.lassos")),
    ("plant.lassos_out", "count", ("out", "plant.lassos")),
    ("plant.load_s", "s", ("self", "plant.load")),
    ("plant.validate_s", "s", ("self", "plant.validate")),
    ("plant.dump_s", "s", ("self", "plant.dump")),
    ("parser.parse_s", "s", ("self", "parser.parse")),
    ("parser.parse_calls", "count", ("calls", "parser.parse")),
    ("semantics.eval_body_s", "s", ("self", "semantics.eval_body")),
    ("semantics.eval_body_calls", "count", ("calls", "semantics.eval_body")),
    ("semantics.quantified_self_s", "s", ("self", "semantics.quantified")),
    ("semantics.quantified_calls", "count", ("calls", "semantics.quantified")),
    ("semantics.check_self_s", "s", ("self", "semantics.check")),
    ("synth.generic_self_s", "s", ("self", "synth.generic")),
    ("synth.generic_calls", "count", ("calls", "synth.generic")),
    ("synth.candidates_evaluated", "count", ("child_calls", "synth.generic", "semantics.quantified")),
    ("synth.tree_ef_self_s", "s", ("self", "synth.tree_ef")),
    ("synth.tree_ef_calls", "count", ("calls", "synth.tree_ef")),
    ("synth.marking_self_s", "s", ("self", "synth.marking")),
    ("synth.marking_calls", "count", ("calls", "synth.marking")),
    ("synth.dispatch_s", "s", ("self", "synth.dispatch")),
    ("synth.apply_s", "s", ("self", "synth.apply")),
    ("synth.guard_trips", "count", ("guard", "synth.generic")),
    ("reductions.parse_s", "s", ("self", "reductions.parse")),
    ("reductions.build_s", "s", ("self", "reductions.build")),
    ("reductions.decode_s", "s", ("self", "reductions.decode")),
    ("nrp.build_s", "s", ("self", "nrp.build")),
    ("nrp.encode_s", "s", ("self", "nrp.encode")),
    ("cli.main_self_s", "s", ("self", "cli.main")),
)


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    ``install`` rebinds every wrapped name in the package's modules and
    ``uninstall`` restores the originals; the oracles and the census run
    with the tracer uninstalled so that they leave no spans.  ``write``
    puts the spans in a file when the run ends.
    """

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct child spans
        self.out: dict[str, int] = {n: 0 for n in SPAN_NAMES}
        self.guard_trips = 0
        self.current_op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name_id: int, counter):
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, child, stack = self.start, self.end, self.child, self._stack
        span_name = SPAN_NAMES[name_id]
        counts_guard = span_name == "synth.generic"
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            child.append(0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            starts[idx] = t0
            try:
                result = fn(*args, **kwargs)
            except CandidateSpaceExceeded:
                if counts_guard:
                    tracer.guard_trips += 1
                raise
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                if stack:
                    child[stack[-1]] += t1 - t0
            if counter is not None:
                tracer.out[span_name] += counter(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"hypersynth.{m}") for m in MODULES}
        package = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "hypersynth" or key.startswith("hypersynth."))
        ]
        for mod_name, fn_name, span_name, counter in WRAPPED:
            original = getattr(modules[mod_name], fn_name, None)
            if original is None:
                if f"{mod_name}.{fn_name}" not in self.missing:
                    self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(original, SPAN_NAMES.index(span_name), counter)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # --- results ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> list[float]:
        s, e, c = self.start, self.end, self.child
        return [e[i] - s[i] - c[i] for i in range(len(s))]

    def aggregate(self, op_kind=None) -> dict[str, dict[str, float]]:
        """Per span name: summed self time, span count, and the count of
        its child spans by name ("under").  ``op_kind`` maps an operation
        index to a group; the result is keyed by group (None without it)."""
        selfs = self.self_times()
        groups: dict = {}
        for i, name_id in enumerate(self.name):
            key = op_kind(self.op[i]) if op_kind else None
            per = groups.setdefault(key, {})
            name = SPAN_NAMES[name_id]
            entry = per.setdefault(name, {"self": 0.0, "calls": 0, "under": {}})
            entry["self"] += selfs[i]
            entry["calls"] += 1
            p = self.parent[i]
            if p >= 0:
                parent_name = SPAN_NAMES[self.name[p]]
                under = per.setdefault(parent_name, {"self": 0.0, "calls": 0, "under": {}})["under"]
                under[name] = under.get(name, 0) + 1
        return groups

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as a run total and per operation."""
        agg = self.aggregate().get(None, {})
        empty = {"self": 0.0, "calls": 0, "under": {}}
        out: dict[str, tuple[float, str]] = {}
        for metric, unit, rule in LAYER_METRICS:
            entry = agg.get(rule[1], empty)
            kind = rule[0]
            if kind == "self":
                value = entry["self"]
            elif kind == "calls":
                value = entry["calls"]
            elif kind == "out":
                value = self.out[rule[1]]
            elif kind == "child_calls":
                value = entry["under"].get(rule[2], 0)
            else:  # guard
                value = self.guard_trips
            out[metric] = (value, unit)
            out[f"{metric}.per_op"] = (value / ops if ops else 0.0, f"{unit}/op")
        return out

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line: index, name, parent
        index, operation index, start, end, self time (seconds)."""
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("# " + json.dumps({"columns": [
                "span", "name", "parent", "op", "start_s", "end_s", "self_s"]}) + "\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{SPAN_NAMES[self.name[i]]}\t{self.parent[i]}\t{self.op[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{selfs[i]:.9f}\n"
                )
