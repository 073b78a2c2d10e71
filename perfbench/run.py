"""Verifier benchmark: one workload, timed end to end or split by layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload check-pass --seed 1 --seconds 20 --trace 0

Workloads: ``check-pass``, ``check-fail``, ``refine``, ``small-specs``
(see ``perfbench/README.md``).  The workload runs in a child process
(``child.py``) that this script waits for; a few more children only set
up, to time set-up.  Before it prints its result, the script checks that
no process it started is alive (workers and the multiprocessing
resource tracker included: this process adopts orphaned descendants),
that no ``rs-*`` shared-memory segment appeared under ``/dev/shm`` and
that no ``repro-spill-*`` directory is left in the temporary directory.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits with 0 only when the
run completed; 2 when the program to benchmark is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Set

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("check-pass", "check-fail", "refine", "small-specs")
#: Set-up is timed in this many processes (the workload's own included).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
LINGER_S = 10.0
PR_SET_CHILD_SUBREAPER = 36

END_TO_END_UNITS = {"verdict_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def adopt_orphans() -> None:
    """Make orphaned descendants children of this process (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def process_table() -> Dict[int, int]:
    """pid -> parent pid of every live process, read from /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z":
            table[int(entry)] = int(fields[1])
    return table


def descendants() -> Set[int]:
    table = process_table()
    mine = {os.getpid()}
    found: Set[int] = set()
    grew = True
    while grew:
        grew = False
        for pid, parent in table.items():
            if parent in mine and pid not in mine:
                mine.add(pid)
                found.add(pid)
                grew = True
    return found


def reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants() -> List[int]:
    """Wait for every descendant to end; kill those that outlive the wait.

    Returns the pids that had to be killed.
    """
    deadline = time.monotonic() + LINGER_S
    while True:
        reap()
        alive = descendants()
        if not alive:
            return []
        if time.monotonic() >= deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.2)
            reap()
            return sorted(alive)
        time.sleep(0.05)


def shm_segments() -> Set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("rs-")}
    except OSError:
        return set()


def spill_dirs(directory: str) -> Set[str]:
    try:
        return {
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if name.startswith("repro-spill-")
        }
    except OSError:
        return set()


def run_child(argv: List[str], env: Dict[str, str], result_path: str) -> Optional[dict]:
    """Run ``child.py`` and return the JSON it wrote (``None`` if it failed).

    The result travels through a file, not a pipe: a descendant that
    outlives the child must not hold this process up before the
    hygiene check below finds it.
    """
    if os.path.exists(result_path):
        os.remove(result_path)
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *argv, "--result", result_path],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
    )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"error: child {argv} timed out", file=sys.stderr)
        return None
    if code != 0 or not os.path.isfile(result_path):
        print(f"error: child {argv} exited with {code}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="verifier benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to benchmark under {ROOT}/src", file=sys.stderr)
        return 2
    adopt_orphans()
    work = os.path.join(ROOT, ".perfbench_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = work
    shm_before = shm_segments()
    spill_before = spill_dirs(tempfile.gettempdir())

    common = ["--workload", args.workload, "--seed", str(args.seed), "--root", ROOT]
    setups: List[float] = []
    result: Optional[dict] = None
    try:
        for _ in range(SETUP_SAMPLES - 1):
            start = time.monotonic()
            probe = run_child(
                [*common, "--seconds", "0", "--setup-only"], env,
                os.path.join(work, "setup.json"),
            )
            if probe is None:
                return 1
            setups.append(probe["ready"] - start)
        trace_out = os.path.join(
            ROOT, ".perfbench_out", f"{args.workload}-seed{args.seed}-spans.jsonl"
        )
        start = time.monotonic()
        result = run_child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--trace-out", trace_out],
            env,
            os.path.join(work, "result.json"),
        )
    finally:
        killed = stop_descendants()
    if result is None:
        return 1
    setups.append(result["ready"] - start)

    problems = []
    if killed:
        problems.append(f"descendant processes outlived the run: {killed}")
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        problems.append(f"shared-memory segments left behind: {leaked}")
    spills = sorted((spill_dirs(tempfile.gettempdir()) - spill_before) | spill_dirs(work))
    if spills:
        problems.append(f"spill directories left behind: {spills}")
    shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    print(json.dumps({
        "correct": bool(result["correct"]) and not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS.get(name, unit_of(name))}
            for name, value in metrics.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
