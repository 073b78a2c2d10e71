"""Layer spans for the traced run, recorded from the benchmark's side.

:func:`install` wraps the public entry points of each layer at run time
(every module attribute and class attribute under ``repro`` that refers
to the entry point, so names the checker imported into its own
namespace are wrapped too) and :func:`uninstall` puts the originals
back.  The checker's own phase spans (``check.core``, ...) join the
same tree through :class:`TracingRecorder`, so a layer's self time is
its span time minus the time of the spans opened inside it.  Spans are
kept in memory as ``(name, start, end, parent)`` and written out by
:meth:`Tracer.write`.

Only the process and thread that installed the wrappers record; forked
workers and helper threads call straight through.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import Recorder

#: (module, attribute, layer) for module-level functions.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.gcl.parser", "parse_program", "gcl.parse"),
    ("repro.gcl.semantics", "compile_program", "gcl.compile"),
    ("repro.kernel.engine", "as_kernel", "kernel.lower"),
    ("repro.kernel.engine", "image_codes", "kernel.image"),
    ("repro.kernel.fixpoint", "packed_reachable", "kernel.fixpoint"),
    ("repro.kernel.fixpoint", "packed_core", "kernel.fixpoint"),
    ("repro.kernel.fixpoint", "packed_has_cycle", "kernel.fixpoint"),
    ("repro.kernel.fixpoint", "packed_terminals", "kernel.fixpoint"),
    ("repro.kernel.fixpoint", "packed_longest_path", "kernel.fixpoint"),
    ("repro.kernel.vector.kernel", "as_vector_kernel", "kernel.vector.lower"),
    ("repro.kernel.vector.kernel", "_unique_sorted", "kernel.vector.dedup"),
    ("repro.kernel.vector.fixpoint", "vector_reachable", "kernel.vector.reachable"),
    ("repro.kernel.vector.fixpoint", "vector_core", "kernel.vector.core"),
    ("repro.kernel.vector.fixpoint", "vector_has_cycle", "kernel.vector.peel"),
    ("repro.kernel.vector.fixpoint", "vector_longest_path", "kernel.vector.peel"),
    ("repro.kernel.shared.fixpoint", "shared_reachable", "kernel.shared.reachable"),
    ("repro.kernel.shared.fixpoint", "shared_core", "kernel.shared.core"),
    ("repro.kernel.shared.fixpoint", "shared_has_cycle", "kernel.shared.peel"),
    ("repro.kernel.shared.fixpoint", "shared_longest_path", "kernel.shared.peel"),
    ("repro.checker.graph", "find_cycle_within", "checker.witness"),
    ("repro.checker.graph", "shortest_path", "checker.witness"),
    ("repro.checker.fairness", "find_fair_trap", "checker.witness"),
)

#: (module, class, method, layer) for methods.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.system", "System", "restricted_to", "core.restrict"),
    ("repro.kernel.interner", "StateInterner", "decode", "kernel.decode"),
    ("repro.kernel.vector.kernel", "VectorKernel", "succ_pairs", "kernel.vector.succ"),
    ("repro.kernel.vector.kernel", "VectorKernel", "materialize", "kernel.vector.materialize"),
    ("repro.kernel.shared.kernel", "SharedKernel", "__init__", "kernel.shared.lower"),
    ("repro.kernel.shared.kernel", "SharedKernel", "materialize", "kernel.shared.materialize"),
    ("repro.parallel.pool", "WorkerPool", "map", "parallel.pool"),
    ("repro.parallel.pool", "WorkerPool", "map_observed", "parallel.pool"),
)

#: ``open_runtime`` is a context manager: its enter and exit are timed.
RUNTIME = ("repro.kernel.shared.runtime", "open_runtime", "kernel.shared.runtime")

#: Checker phase spans (from the program's own instrumentation) that
#: join the layer tree.
PHASES: Dict[str, str] = {
    "check.core": "checker.core",
    "check.cycle_search": "checker.cycle_search",
    "check.worst_case": "checker.worst_case",
    "refine.transition_scan": "checker.refine_scan",
    "refine.cycle_clause": "checker.refine_cycle_clause",
}

#: The benchmark's own span around one check, from input to verdict.
ROOT = "op"


class Tracer:
    """In-memory span tree with self time computed as spans close."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.active = False
        self.spans: List[Tuple[str, float, float, int]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.tasks = 0
        self._stack: List[List[object]] = []  # [index, name, start, child seconds]
        self._patches: List[Tuple[object, str, object]] = []

    def here(self) -> bool:
        return (
            self.active
            and os.getpid() == self.pid
            and threading.get_ident() == self.thread
        )

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))  # type: ignore[arg-type]
        self._stack.append([len(self.spans) - 1, name, time.perf_counter(), 0.0])

    def close(self) -> None:
        index, name, start, child = self._stack.pop()
        end = time.perf_counter()
        seconds = end - start  # type: ignore[operator]
        self.spans[index] = (name, start, end, self.spans[index][3])  # type: ignore[index]
        self.self_seconds[name] += seconds - child  # type: ignore[operator,index]
        self.calls[name] += 1  # type: ignore[index]
        if self._stack:
            self._stack[-1][3] += seconds  # type: ignore[operator]

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def take(self) -> Tuple[Dict[str, float], Dict[str, int], int]:
        """Self seconds, calls and pool tasks since the last take."""
        taken = (dict(self.self_seconds), dict(self.calls), self.tasks)
        self.self_seconds.clear()
        self.calls.clear()
        self.tasks = 0
        return taken

    # -- wrapping ---------------------------------------------------------

    def _traced(self, fn: Callable, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.here():
                return fn(*args, **kwargs)
            if layer == "parallel.pool" and not tracer.inside(layer):
                batches = args[2] if len(args) > 2 else kwargs.get("batches", ())
                tracer.tasks += len(batches)
            tracer.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        return traced

    def _timed_context(self, factory: Callable, layer: str) -> Callable:
        tracer = self

        class TimedContext:
            def __init__(self, manager):
                self._manager = manager

            def __enter__(self):
                if not tracer.here():
                    return self._manager.__enter__()
                tracer.open(layer)
                try:
                    return self._manager.__enter__()
                finally:
                    tracer.close()

            def __exit__(self, *exc_info):
                if not tracer.here():
                    return self._manager.__exit__(*exc_info)
                tracer.open(layer)
                try:
                    return self._manager.__exit__(*exc_info)
                finally:
                    tracer.close()

        @functools.wraps(factory)
        def opened(*args, **kwargs):
            return TimedContext(factory(*args, **kwargs))

        return opened

    def _replace_everywhere(self, original: object, replacement: object) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attribute, original))
                    setattr(module, attribute, replacement)

    def install(self) -> None:
        """Wrap every listed entry point and start recording."""
        for module_name, attribute, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attribute)
            self._replace_everywhere(original, self._traced(original, layer))
        module_name, attribute, layer = RUNTIME
        original = getattr(importlib.import_module(module_name), attribute)
        self._replace_everywhere(original, self._timed_context(original, layer))
        for module_name, class_name, method, layer in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[method]
            self._patches.append((owner, method, original))
            setattr(owner, method, self._traced(original, layer))
        self.active = True

    def uninstall(self) -> None:
        """Put every original back and stop recording."""
        self.active = False
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, round(start, 7), round(end, 7), parent]))
                handle.write("\n")


class _PhaseSpan:
    """A checker phase span that also opens a layer span."""

    def __init__(self, inner, tracer: Tracer, layer: str):
        self._inner = inner
        self._tracer = tracer
        self._layer = layer
        self._recording = False

    def __enter__(self):
        self._recording = self._tracer.here()
        if self._recording:
            self._tracer.open(self._layer)
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            if self._recording:
                self._tracer.close()


class TracingRecorder(Recorder):
    """The program's :class:`Recorder`, with its phase spans in the tree."""

    def __init__(self, tracer: Optional[Tracer]):
        super().__init__(kind="bench")
        self._tracer = tracer

    def span(self, name: str, /, **attrs: object):
        inner = super().span(name, **attrs)
        layer = PHASES.get(name)
        if layer is None or self._tracer is None:
            return inner
        return _PhaseSpan(inner, self._tracer, layer)
