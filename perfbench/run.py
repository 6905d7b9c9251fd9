#!/usr/bin/env python3
"""hypersynth benchmark: one seeded workload, timed end to end, with every
result checked by an oracle gate outside the timed region.

    python3 perfbench/run.py --workload sat --seed 1 --seconds 15 --trace 0

Load is one process, one thread and one client in a closed loop: the next
operation starts when the previous one returns.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is the separate traced run that reports
the per-layer metrics (see perfbench/README.md).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only when every checked result is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

OP_LIMIT_S = 10.0  # an operation running longer counts as undecided
SETUP_REPEATS = 20
TAIL_ABOVE = 10  # samples the tail percentile must leave above it
SHOWN_FAILURES = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised inside an operation that outlives OP_LIMIT_S."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def checkout_problem() -> str | None:
    for path in (SRC / "hypersynth" / "__init__.py", TESTS / "helpers.py"):
        if not path.is_file():
            return f"{path.relative_to(ROOT)} not found; run from a full checkout"
    return None


class Setup:
    """Wall times of a fresh interpreter importing the package (interpreter
    start, import, exit); the program has no other one-time set-up.  The
    starts are spread over the timed loop, between rounds, so they see the
    same machine as the operations do."""

    def __init__(self):
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.times: list[float] = []

    def catch_up(self, share: float) -> None:
        """Start interpreters until ``share`` of SETUP_REPEATS have run."""
        while len(self.times) < round(SETUP_REPEATS * min(share, 1.0)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import hypersynth.cli"],
                           cwd=ROOT, env=self.env, check=True)
            self.times.append(perf_counter() - t0)

    def median(self) -> float:
        self.catch_up(1.0)
        return statistics.median(self.times)


# --- the timed loop ------------------------------------------------------


class Runner:
    """Runs operations one at a time, each under the per-operation limit."""

    def __init__(self, outcome_cls):
        self.Outcome = outcome_cls
        self.in_op = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, *_):
        if self.in_op:
            raise OpTimeout()

    def call(self, op):
        from hypersynth.errors import CandidateSpaceExceeded

        self.in_op = True
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        t0 = perf_counter()
        try:
            out = self.Outcome("ok", op.run())
        except OpTimeout:
            out = self.Outcome("timeout")
        except CandidateSpaceExceeded as exc:
            out = self.Outcome("guard", exc.bits)
        except Exception as exc:  # any escape is a failed operation
            out = self.Outcome("error", f"{type(exc).__name__}: {exc}")
        finally:
            t1 = perf_counter()
            self.in_op = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        if op.after is not None:
            out.extra = op.after()
        return t1 - t0, out

    def run_ops(self, ops, tracer=None, first=0):
        """Run ``ops`` back to back.  Returns [(latency, outcome)] and the
        wall time they took, ``after`` hooks included."""
        results = []
        start = perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = first + i
            results.append(self.call(op))
        return results, perf_counter() - start


# --- gate, census, metrics -----------------------------------------------


class Gate:
    """Checks every result: the first result of each input against its
    oracle, a repeat (the traced run's second pass) against that first
    result."""

    def __init__(self, remember: bool = False):
        self.attempted = self.failed = self.decided = 0
        self.reasons: list[str] = []
        self.first: dict[int, tuple] | None = {} if remember else None

    def add(self, key: int, op, out) -> None:
        self.attempted += 1
        if op.decided(out):
            self.decided += 1
        if self.first is not None and key in self.first:
            norm, problem = self.first[key]
            if op.normalized(out) != norm:
                problem = "result differs from an earlier run of the same input"
        else:
            try:
                problem = op.failure(out)
            except Exception as exc:  # a result the oracle cannot read
                problem = f"oracle raised {type(exc).__name__}: {exc}"
            if self.first is not None:
                self.first[key] = (op.normalized(out), problem)
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < SHOWN_FAILURES:
                self.reasons.append(f"op {key} ({op.kind}): {problem}")


class Census:
    """Input properties of the operations run, one count per operation."""

    def __init__(self):
        self.n = self.universal = 0
        self.routes: dict[str, int] = {}
        self.frames: dict[str, int] = {}
        self.sizes: dict[str, list] = {"states": [], "traces": [], "bits": []}

    def add(self, op) -> None:
        props = op.census()
        self.n += 1
        self.universal += props["universal"]
        for key, counts in (("route", self.routes), ("frame", self.frames)):
            counts[props[key]] = counts.get(props[key], 0) + 1
        for key, values in self.sizes.items():
            values.append(props[key])

    def summary(self) -> dict:
        def shares(counts):
            return {k: round(v / self.n, 4) for k, v in sorted(counts.items())}

        def spread(values, digits=None):
            values = sorted(values)
            out = {"min": values[0], "median": statistics.median(values), "max": values[-1]}
            return {k: round(v, digits) for k, v in out.items()} if digits else out

        return {
            "ops": self.n,
            "route_share": shares(self.routes),
            "universal_share": round(self.universal / self.n, 4),
            "frame_share": shares(self.frames),
            "plant_states": spread(self.sizes["states"]),
            "traces_or_lassos": spread(self.sizes["traces"]),
            "candidate_space_bits": spread(self.sizes["bits"], 2),
        }


@dataclass
class Report:
    """What one run measured; ``emit`` turns it into the printed result."""

    gate: Gate
    census: Census = field(default_factory=Census)
    latencies: list = field(default_factory=list)  # untraced operations only
    kinds: list = field(default_factory=list)
    elapsed: float = 0.0  # wall time of the untraced operations
    digest: str = ""
    rounds: int = 0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    start_rss_mb: float = 0.0
    traced: dict | None = None

    def record(self, ops, results) -> None:
        """Gate and count one batch of untraced operations."""
        for op, (latency, out) in zip(ops, results):
            key = len(self.latencies)
            self.latencies.append(latency)
            self.kinds.append(op.kind)
            self.gate.add(key, op, out)
            self.census.add(op)


def tail(latencies):
    """(value, percentile, samples above): the highest percentile that
    still leaves TAIL_ABOVE samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n, TAIL_ABOVE


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layers_by_kind(tracer, kinds):
    """Self seconds per span name for each operation kind, largest first."""
    grouped = tracer.aggregate(lambda i: kinds[i] if 0 <= i < len(kinds) else "other")
    return {
        kind: dict(sorted(((name, round(e["self"], 4)) for name, e in per.items()),
                          key=lambda kv: -kv[1]))
        for kind, per in sorted(grouped.items(), key=lambda kv: str(kv[0]))
    }


# --- main ---------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    sys.path[:0] = [str(SRC), str(TESTS)]
    import random

    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        rng = random.Random(f"{args.workload}:{args.seed}")
        workload = W.WORKLOADS[args.workload](rng, Path(tmp))
        runner = Runner(W.Outcome)
        report = Report(Gate(remember=bool(args.trace)), start_rss_mb=peak_rss_mb())
        if args.trace:
            run_traced(args, workload, runner, report)
        else:
            setup = Setup()
            timed_loop(workload, runner, args.seconds, report, workload.min_rounds, setup)
            report.peak_rss_mb = peak_rss_mb()
            report.setup_s = setup.median()
    return emit(args, report)


def timed_loop(workload, runner, seconds, report, min_rounds=1, setup=None, keep=None):
    """Closed loop over freshly drawn rounds until ``seconds`` of operation
    time have passed and at least ``min_rounds`` rounds ran.  Stopping only
    between rounds keeps the run's mix of operations the same whichever
    operation the time runs out in.  Drawing a round, gating its results
    and the set-up starts happen between rounds, outside the timed
    region."""
    while report.elapsed < seconds or workload.rounds < min_rounds:
        ops = workload.next_round()
        results, spent = runner.run_ops(ops)
        report.elapsed += spent
        report.record(ops, results)
        if keep is not None:
            keep.append(ops)
        if setup is not None:
            setup.catch_up(report.elapsed / seconds)
    report.digest = workload.digest()
    report.rounds = workload.rounds


def run_traced(args, workload, runner, report) -> None:
    """Untraced for a third of the time; then each of those rounds runs
    twice more, untraced and traced, so the two passes that
    trace_overhead_frac compares see the same inputs equally warm."""
    from spans import Tracer

    rounds: list = []
    timed_loop(workload, runner, args.seconds / 3, report, keep=rounds)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    first = 0
    for ops in rounds:
        results, spent = runner.run_ops(ops)
        plain_s += spent
        tracer.install()
        try:
            traced, spent = runner.run_ops(ops, tracer=tracer, first=first)
        finally:
            tracer.uninstall()
        traced_s += spent
        for i, op in enumerate(ops):
            report.gate.add(first + i, op, results[i][1])
            report.gate.add(first + i, op, traced[i][1])
        first += len(ops)
    if tracer.missing:
        print(f"note: not traced (missing): {', '.join(tracer.missing)}", file=sys.stderr)
    layers = tracer.layer_metrics(first)
    layers["trace_overhead_frac"] = (1.0 - plain_s / traced_s, "fraction")
    spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.tsv"
    tracer.write(spans_path)
    report.traced = {"layers": layers, "spans": (len(tracer), spans_path),
                     "by_kind": layers_by_kind(tracer, report.kinds)}


def emit(args, report) -> int:
    gate = report.gate
    lat = report.latencies
    tail_value, tail_pct, tail_above = tail(lat)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"input digest {report.digest[:16]} ({report.rounds} rounds)")
    print(f"ops {len(lat)} in {report.elapsed:.3f} s (closed loop, 1 client, "
          f"{'traced run' if args.trace else 'untraced'})")
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(report.kinds, lat):
        by_kind.setdefault(kind, []).append(latency)
    for kind, values in sorted(by_kind.items()):
        print(f"  {kind:16s} ops {len(values):6d}  total {sum(values):8.3f} s  "
              f"median {statistics.median(values) * 1000:9.3f} ms")
    print("census " + json.dumps(report.census.summary(), sort_keys=True))
    for reason in gate.reasons:
        print(f"FAIL {reason}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report.traced["layers"].items()}
        count, path = report.traced["spans"]
        print(f"spans {count} written to {path.relative_to(ROOT)}")
        print("self_s_by_kind " + json.dumps(report.traced["by_kind"]))
        for name, m in metrics.items():
            if not name.endswith(".per_op"):
                print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    else:
        values = {
            "ops_per_s": len(lat) / report.elapsed,
            "latency_p50_ms": statistics.median(lat) * 1000.0,
            "latency_tail_ms": tail_value * 1000.0,
            "decided_frac": gate.decided / gate.attempted,
            "setup_s": report.setup_s,
            "peak_rss_mb": report.peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        for name, m in metrics.items():
            extra = (f"  (p{tail_pct:.2f}, {tail_above} samples above, n={len(lat)})"
                     if name == "latency_tail_ms" else
                     f"  (before the loop: {report.start_rss_mb:.1f} MB)"
                     if name == "peak_rss_mb" else "")
            print(f"  {name:16s} {m['value']:.6g} {m['unit']}{extra}")
        print(f"  {'fail_frac':16s} {gate.failed / gate.attempted:.6g} fraction")

    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
