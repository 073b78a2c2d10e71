"""One workload in one fresh process; started and awaited by ``run.py``.

Sets up (imports, inputs, programs), then runs whole rounds of the
workload's operations until ``--seconds`` have passed, timing each
operation from its input to its verdict.  With ``--trace 1`` the rounds
alternate untraced and traced, and the traced ones report per-layer
times.  After the rounds, every outcome is checked (``workloads.py``).
Writes its result as JSON to ``--result`` for ``run.py``.

``--setup-only`` stops once the first check is ready: ``run.py`` starts
several such processes to time set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

import numpy  # noqa: F401  (part of every run's set-up)

import repro.checker  # noqa: F401
import repro.kernel.shared  # noqa: F401
import repro.kernel.vector  # noqa: F401
import workloads

#: Self-time layers of the trace, and the metric each one feeds.
LAYER_SECONDS = {
    "gcl.parse": "gcl.parse_s",
    "gcl.compile": "gcl.compile_s",
    "core.restrict": "core.restrict_s",
    "kernel.lower": "kernel.lower_s",
    "kernel.fixpoint": "kernel.fixpoint_s",
    "kernel.image": "kernel.image_s",
    "kernel.decode": "kernel.decode_s",
    "kernel.vector.lower": "kernel.vector.lower_s",
    "kernel.vector.succ": "kernel.vector.succ_s",
    "kernel.vector.dedup": "kernel.vector.dedup_s",
    "kernel.vector.reachable": "kernel.vector.reachable_s",
    "kernel.vector.core": "kernel.vector.core_s",
    "kernel.vector.peel": "kernel.vector.peel_s",
    "kernel.vector.materialize": "kernel.vector.materialize_s",
    "kernel.shared.runtime": "kernel.shared.runtime_s",
    "kernel.shared.lower": "kernel.shared.lower_s",
    "kernel.shared.reachable": "kernel.shared.reachable_s",
    "kernel.shared.core": "kernel.shared.core_s",
    "kernel.shared.peel": "kernel.shared.peel_s",
    "kernel.shared.materialize": "kernel.shared.materialize_s",
    "checker.witness": "checker.witness_s",
    "checker.core": "checker.core_s",
    "checker.cycle_search": "checker.cycle_search_s",
    "checker.worst_case": "checker.worst_case_s",
    "checker.refine_scan": "checker.refine_scan_s",
    "checker.refine_cycle_clause": "checker.refine_cycle_clause_s",
    "op": "checker.unattributed_s",
    "parallel.pool": "parallel.pool_s",
}
LAYER_CALLS = {
    "gcl.compile": "gcl.compile_calls",
    "kernel.decode": "kernel.decode_calls",
    "kernel.vector.succ": "kernel.vector.succ_calls",
    "kernel.vector.reachable": "kernel.vector.reachable_calls",
}
MIB = float(1 << 20)
#: The program's own counters, read in the traced run: metric -> (counter, scale).
COUNTERS = {
    "kernel.shared.spill_mib": ("shm.spill.bytes", MIB),
    "kernel.shared.segments": ("shm.segments", 1.0),
    "kernel.shared.table_hits": ("kernel.tables.hits", 1.0),
    "kernel.shared.table_misses": ("kernel.tables.misses", 1.0),
    "kernel.shared.visited_mmap_mib": ("shm.visited.mmap_bytes", MIB),
}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def run_round(ops, inputs, traced, tracer, outcomes, errors) -> Dict[str, object]:
    """Run every operation once; returns the round's sums."""
    verdict = cpu = 0.0
    failed = 0
    counters: Dict[str, float] = {}
    if traced:
        from tracer import TracingRecorder

        tracer.install()
    try:
        for op, op_inputs in zip(ops, inputs):
            instrumentation = (
                TracingRecorder(tracer) if traced else workloads.EngineEvents()
            )
            if traced:
                tracer.open("op")
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            try:
                result = op.run(op_inputs, instrumentation)
            except Exception:  # one failed operation must not end the run
                result = None
                errors.append(f"{op.label}: {traceback.format_exc()}")
            finally:
                seconds = time.perf_counter() - start
                cpu += cpu_seconds() - cpu_start
                if traced:
                    tracer.close()
            verdict += seconds
            if result is None:
                failed += 1
                continue
            outcome = workloads.outcome_of(result, instrumentation)
            if workloads.engine_problem(op, outcome) is not None:
                failed += 1
            outcomes.setdefault(op.label, []).append(outcome)
            if traced:
                for metric, (name, scale) in COUNTERS.items():
                    value = instrumentation.counter(name) / scale  # type: ignore[attr-defined]
                    counters[metric] = counters.get(metric, 0.0) + value
    finally:
        if traced:
            tracer.uninstall()
    summary: Dict[str, object] = {"verdict": verdict, "cpu": cpu, "failed": failed}
    if traced:
        self_seconds, calls, tasks = tracer.take()
        layers = {metric: 0.0 for metric in LAYER_SECONDS.values()}
        layers.update({metric: 0.0 for metric in LAYER_CALLS.values()})
        for name, value in self_seconds.items():
            layers[LAYER_SECONDS[name]] += value
        for name, value in calls.items():
            if name in LAYER_CALLS:
                layers[LAYER_CALLS[name]] += value
        layers["parallel.tasks"] = float(tasks)
        layers.update(counters)
        summary["layers"] = layers
        summary["accounted"] = sum(self_seconds.values())
    return summary


def verify(ops, outcomes: Dict[str, List[workloads.Outcome]]) -> List[str]:
    """Check every outcome; return the problems found."""
    problems: List[str] = []
    by_group: Dict[str, Dict[str, str]] = {}
    for op in ops:
        runs = outcomes.get(op.label, [])
        if not runs:
            continue
        first = runs[0]
        if any(other.text != first.text for other in runs[1:]):
            problems.append(f"{op.label}: verdict differs between rounds")
        engine = workloads.engine_problem(op, first)
        if engine is not None:
            # Counted in ``failed``; the verdict itself is still checked.
            print(f"failed: {op.label}: {engine}", file=sys.stderr)
        for problem in op.verify(first, op.make()):
            problems.append(f"{op.label}: {problem}")
        by_group.setdefault(op.group, {})[op.engine] = first.text
    for group, texts in by_group.items():
        if len(set(texts.values())) > 1:
            problems.append(f"{group}: engines print different verdicts ({sorted(texts)})")
    return problems


def write_result(path: str, payload: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed, args.root)
    inputs = [op.make() for op in ops]
    ready = time.monotonic()
    if args.setup_only:
        write_result(args.result, {"ready": ready})
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    outcomes: Dict[str, List[workloads.Outcome]] = {}
    errors: List[str] = []
    rounds: List[Dict[str, object]] = []
    started = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(ops, inputs, traced, tracer, outcomes, errors))
        print(
            f"round {len(rounds)}{' traced' if traced else ''}: "
            f"verdict {rounds[-1]['verdict']:.3f} s, cpu {rounds[-1]['cpu']:.3f} s",
            file=sys.stderr,
        )
        enough = time.monotonic() - started >= args.seconds
        if enough and (not args.trace or len(rounds) >= 2):
            break
        inputs = [op.make() for op in ops]
    peak = peak_rss_mib()

    for error in errors:
        print(error, file=sys.stderr)
    problems = verify(ops, outcomes)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    plain = [r for r in rounds if "layers" not in r]
    metrics: Dict[str, object] = {
        "verdict_s": statistics.median(float(r["verdict"]) for r in plain),
        "cpu_s": statistics.median(float(r["cpu"]) for r in plain),
        "peak_rss_mib": peak,
    }
    if args.trace:
        traced_rounds = [r for r in rounds if "layers" in r]
        for r in traced_rounds:
            if abs(float(r["accounted"]) - float(r["verdict"])) > 1e-3 * len(ops):
                problems.append("layer self times do not add up to the traced verdict time")
        names = traced_rounds[0]["layers"].keys()  # type: ignore[union-attr]
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced_rounds)  # type: ignore[index]
            for name in names
        }
        metrics["obs.overhead_s"] = (
            statistics.median(float(r["verdict"]) for r in traced_rounds)
            - statistics.median(float(r["verdict"]) for r in plain)
        )
        if args.trace_out:
            tracer.write(args.trace_out)  # type: ignore[union-attr]
    write_result(args.result, {
        "ready": ready,
        "rounds": len(rounds),
        "attempted": len(ops) * len(rounds),
        "failed": sum(int(r["failed"]) for r in rounds),
        "correct": not problems,
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
