"""infharm benchmark: three closed-loop workloads, timed end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

  campaign  one op is one theorem trial, run as run_suite runs it
  ladder    one op is `infharm check` on one rung of a degree ladder
  fallback  one op is cross_validate on a map that needs the numeric fallback

Each run is one single-threaded process with one caller: the next op starts
when the previous one has returned.  A workload is a fixed list of ops.  With
--trace 0 the list runs in whole passes until --seconds have passed; each
op's fastest pass gives the op metrics, so that time stolen by other work on
the host drops out, and the end-to-end metrics named in BENCHMARK.json are
reported.  With --trace 1 the list runs once untraced and once under the
tracing shims, and the per-layer metrics are reported; --seconds is not used.

Every verdict is checked against reference.json.  A wrong verdict, an
exception or a CLI exit 2 counts as a failed op and the run continues.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import workloads  # sibling module: bench/ is sys.path[0] when this file runs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_out")
MODULES = ("exprcore", "spaces", "mapspec", "calculus", "classify", "cli")
SETUP_REPEATS = 8


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or definition)."""


# ---------------------------------------------------------------------------
# set-up


def build_spaces(infharm, labels) -> dict:
    spaces = {label: infharm.build_space(label) for label in labels}
    for space in spaces.values():
        infharm.christoffel(space)
    return spaces


def time_setup(labels, repeats: int = SETUP_REPEATS) -> tuple[object, dict, list[float]]:
    """Import infharm afresh and build the workload's spaces, `repeats` times."""
    times = []
    for _ in range(repeats):
        for name in [n for n in sys.modules if n == "infharm" or n.startswith("infharm.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        infharm = importlib.import_module("infharm")
        spaces = build_spaces(infharm, labels)
        times.append(time.perf_counter() - t0)
    return infharm, spaces, times


def setup(labels) -> tuple[SimpleNamespace, dict, list[float]]:
    if not os.path.isfile(os.path.join(SRC, "infharm", "__init__.py")):
        raise BenchError(f"no infharm sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    infharm, spaces, times = time_setup(labels)
    if os.path.dirname(os.path.abspath(infharm.__file__)) != os.path.join(SRC, "infharm"):
        raise BenchError(f"imported infharm from {infharm.__file__}, not from {SRC}")
    ih = SimpleNamespace(**{m: importlib.import_module(f"infharm.{m}") for m in MODULES})
    return ih, spaces, times


def make_workload(name: str, ih, seed: int, spaces: dict) -> list:
    if name == "campaign":
        return workloads.campaign(ih, seed)
    if name == "ladder":
        return workloads.ladder(ih, seed, WORKDIR)
    return workloads.fallback(ih, seed, spaces)


# ---------------------------------------------------------------------------
# the closed loop


def record_line(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, default=str).encode() + b"\n"


class Run:
    """Per-op samples of one closed-loop run: every op's time in every pass."""

    def __init__(self, ops):
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.first: list[bytes] = []
        self.problems: list[str] = []

    def add(self, k: int, seconds: float, verdict: str, record: dict) -> None:
        op = self.ops[k]
        line = record_line({"key": op.key, "verdict": verdict, **record})
        if k == len(self.first):
            self.digest.update(line)
            self.first.append(line)
        elif self.first[k] != line:
            self.problems.append(f"{op.key}: output differs from its first pass")
        self.attempted += 1
        if verdict != op.expected:
            if self.failed < 5:
                print(f"failed op: expected {op.expected}, got {line.decode().strip()[:300]}", file=sys.stderr)
            self.failed += 1
        self.times[k].append(seconds)

    @property
    def passes(self) -> int:
        return len(self.times[-1])

    def best(self) -> list[float]:
        """Each op's fastest pass: the least disturbed by other work on the host."""
        return [min(t) for t in self.times]


def run_op(op, runner, k: int):
    """Time one op; an exception is the op's failure, not the run's."""
    t0 = time.perf_counter()
    try:
        result = runner(k, op.call)
    except Exception as exc:  # the loop must go on; the failure is recorded and counted
        return time.perf_counter() - t0, "error", {"error": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - t0
    verdict, record = op.outcome(result)
    return seconds, verdict, record


def measure(ops, seconds: float, runner=lambda k, call: call(), after_pass=lambda: None) -> Run:
    """Run whole passes over `ops`, one op at a time, until `seconds` have passed (at least one pass)."""
    run = Run(ops)
    start = time.perf_counter()
    while not run.attempted or time.perf_counter() - start < seconds:
        for k, op in enumerate(ops):
            run.add(k, *run_op(op, runner, k))
        after_pass()
    return run


# ---------------------------------------------------------------------------
# metrics


def percentile_ms(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def end_to_end(run: Run) -> dict:
    best = run.best()
    return {
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": statistics.median(best) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - run.failed / run.attempted,
    }


def details(run: Run) -> list[str]:
    """Human-readable figures beyond the gated metrics."""
    best = run.best()
    n = len(best)
    total = sum(sum(t) for t in run.times)
    lines = [
        f"{n} ops x {run.passes} passes in {total:.3f} s of op time; mean ops_per_s {run.attempted / total:.4g};"
        f" op metrics use each op's fastest pass (n={n})",
        f"failed_ratio {run.failed / run.attempted:.6f} ({run.failed} of {run.attempted})",
    ]
    if n >= 200:
        lines.append(f"op_p95_ms {percentile_ms(best, 95):.4f} ms (n={n})")
    if n >= 1000:
        lines.append(f"op_p99_ms {percentile_ms(best, 99):.4f} ms (n={n})")
    for cls in ("nonzero", "zero"):
        cls_s = sum(b for b, op in zip(best, run.ops) if op.expected == cls)
        if cls_s:
            lines.append(f"{cls}_s {cls_s:.6f} s (one pass, fastest time per op)")
    return lines


def per_layer(tracer, base: Run, traced: Run, ih) -> dict:
    calls, self_s = tracer.totals()
    counts = tracer.counts
    m = {}
    for name in ("mul", "add", "pow", "partial", "substitute", "evaluate"):
        m[f"exprcore.{name}.calls"] = calls.get(f"exprcore.{name}", 0)
        m[f"exprcore.{name}.self_s"] = self_s.get(f"exprcore.{name}", 0.0)
    m["exprcore.mul.term_pairs"] = counts["exprcore.mul.term_pairs"]
    m["exprcore.mul.out_terms"] = counts["exprcore.mul.out_terms"]
    for name in (
        "exprcore.to_string", "spaces.build_space", "spaces.christoffel", "mapspec.parse",
        "mapspec.materialize", "mapspec.realify", "calculus.energy", "calculus.tension",
        "calculus.witness", "calculus.sample_points", "calculus.numeric_zero_check",
        "calculus.fallback", "calculus.p_tension", "calculus.hessian_form",
        "calculus.infinity_laplacian", "calculus.fd_p_tension", "classify.predict",
        "classify.cross_validate", "cli",
    ):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("calculus.witness", "calculus.sample_points", "calculus.numeric_zero_check", "classify.predict"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "calculus.energy.out_terms", "calculus.tension.out_terms", "calculus.tension.clearing_terms",
        "calculus.witness.points_tried", "calculus.fallback.points", "calculus.symbolic_attempt.wasted_s",
        "classify.no_predictor", "classify.verdicts.zero", "classify.verdicts.nonzero",
    ):
        m[name] = counts[name]
    attempts = counts["calculus.symbolic_attempt.attempts"]
    m["calculus.symbolic_attempt.useful_ratio"] = counts["calculus.symbolic_attempt.useful"] / attempts if attempts else 0.0
    # Per-theorem and per-rung times come from the untraced pass.
    base_s = {op.key: t[0] for op, t in zip(base.ops, base.times)}
    for tid in ih.classify.THEOREMS:
        m[f"classify.suite.{tid}_s"] = sum(s for key, s in base_s.items() if key.split("#")[0] == tid)
    for pair, d in workloads.ladder_keys():
        m[workloads.rung_metric(pair, d)] = base_s.get(f"{pair}.d{d}", 0.0)
    m["trace.overhead_ratio"] = sum(t[0] for t in traced.times) / sum(t[0] for t in base.times)
    return m


# ---------------------------------------------------------------------------
# entry point


def load_definition() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def result_line(spec: list[dict], values: dict, correct: bool, runs: list[Run]) -> str:
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in spec}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def untraced_run(ops, seconds: int, labels, setup_times: list[float]):
    # Set-up is timed again after every pass and after the loop, so that its
    # median spans the run as the op times do.
    run = measure(ops, seconds, after_pass=lambda: setup_times.extend(time_setup(labels, 2)[2]))
    values = end_to_end(run)
    values["setup_s"] = statistics.median(setup_times + time_setup(labels)[2])
    return values, details(run), [run], run.problems, run.digest.hexdigest()


def traced_run(ops, ih, labels, spans_path: str):
    """One untraced pass, then one pass under the tracing shims."""
    from tracing import Tracer

    base = measure(ops, 0)
    tracer = Tracer(ih)
    tracer.install()
    try:
        tracer.run_op(-1, lambda: build_spaces(ih.spaces, labels))
        traced = measure(ops, 0, tracer.run_op)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    digest = base.digest.hexdigest()
    problems = base.problems + traced.problems
    if traced.digest.hexdigest() != digest:
        problems.append("traced digest differs from the untraced digest")
    lines = [
        f"traced digest sha256:{traced.digest.hexdigest()}",
        f"spans {len(tracer.start)} in {os.path.relpath(spans_path, ROOT)}",
    ]
    return per_layer(tracer, base, traced, ih), lines, [base, traced], problems, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.LABELS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    labels = workloads.LABELS[args.workload]
    try:
        definition = load_definition()
        ih, spaces, setup_times = setup(labels)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    ops = make_workload(args.workload, ih, args.seed, spaces)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        spans_path = os.path.join(WORKDIR, f"spans-{args.workload}-{args.seed}.tsv.gz")
        values, lines, runs, problems, digest = traced_run(ops, ih, labels, spans_path)
        spec = definition["per_layer"]
    else:
        values, lines, runs, problems, digest = untraced_run(ops, args.seconds, labels, setup_times)
        spec = definition["end_to_end"]

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"digest sha256:{digest} over one pass of {len(ops)} ops")
    for line in lines:
        print(line)
    for entry in spec:
        print(f"{entry['name']} {values[entry['name']]:.6g} {entry['unit']}")
    print(result_line(spec, values, not problems, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
