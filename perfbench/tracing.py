"""Spans and counts recorded around the public entry point of each layer.

The benchmark wraps flowcheck from the outside: for every layer it
replaces the public function with a wrapper, in every ``flowcheck``
module that holds a reference to it (``from .x import f`` copies the
reference, so patching only the defining module would miss callers).
Spans are kept in memory and handed back when the analysis ends.

A wrapped function that a later version of flowcheck no longer has is
reported as missing; the metrics derived from it are left out instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time


def _extraction_counts(args, sequences):
    return {"extraction.sequences": len(sequences),
            "extraction.elements": sum(len(s) for s in sequences)}


def _propagation_counts(args, propagated):
    frames = [frame for sequence in propagated for frame in sequence.frames]
    return {"propagation.snapshot_entries": sum(len(frame) for frame in frames),
            "propagation.distinct_frames": len({id(frame) for frame in frames})}


def _query_counts(args, violations):
    propagated, constraints = args[0], args[1]
    return {"query.checks": sum(len(p) for p in propagated) * len(constraints),
            "query.violations": sum(len(v) for v in violations.values())}


def _report_counts(args, text):
    return {"report.bytes": len(text.encode())}


# (span name, module, public function, counts taken from its arguments and result)
LAYERS = (
    ("loader", "flowcheck.loader", "load_model", None),
    ("loader.validate", "flowcheck.loader", "validate_model", None),
    ("extraction", "flowcheck.extraction", "find_all_sequences", _extraction_counts),
    ("propagation", "flowcheck.propagation", "evaluate_all", _propagation_counts),
    ("propagation.propagate", "flowcheck.propagation", "propagate", None),
    ("kernel", "flowcheck.kernel", "run_sequence", None),
    ("constraints.parse", "flowcheck.constraints", "load_constraints", None),
    ("query", "flowcheck.constraints", "query_many", _query_counts),
    ("report", "flowcheck.constraints", "format_report", _report_counts),
)


def resolve(module_name, attr):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def patch(module_name, attr, make_wrapper) -> bool:
    """Replace ``module.attr`` with ``make_wrapper(original)`` everywhere.

    Returns False, and changes nothing, when the function does not exist.
    """
    original = resolve(module_name, attr)
    if original is None:
        return False
    replacement = make_wrapper(original)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "flowcheck" or name.startswith("flowcheck.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
    return True


class Tracer:
    """Records one span per wrapped call; install once per process."""

    def __init__(self, analysis_id):
        self.analysis_id = analysis_id
        self.spans = []  # (id, name, start_ns, end_ns, parent id)
        self.missing = []
        self.counts = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        for name, module_name, attr, count in LAYERS:
            if not patch(module_name, attr, functools.partial(self.wrap, name, count)):
                self.missing.append(name)

    def wrap(self, name, count, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            # counted outside the span but inside the analysis, so the cost
            # shows in cli.unattributed_ms; the result is not kept alive
            if count is not None:
                self._count(count, args, result)
            return result

        return wrapper

    def _count(self, count, args, result) -> None:
        try:
            counts = count(args, result)
        except (AttributeError, TypeError, KeyError, IndexError):
            return  # an interface that changed reads as a missing count
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name):
        return _Span(self, name)

    def total_ms(self, name) -> float | None:
        """Summed duration of every span with this name; None when missing."""
        if name in self.missing:
            return None
        return sum((end - start) / 1e6 for _, n, start, end, _ in self.spans if n == name)

    def child_ms(self, parent_name) -> float:
        """Time covered by spans whose parent is the (single) named span."""
        parents = {sid for sid, n, *_ in self.spans if n == parent_name}
        return sum((end - start) / 1e6 for _, _, start, end, parent in self.spans
                   if parent in parents)

    def records(self) -> list[dict]:
        return [
            {"id": sid, "name": name, "start_ns": start, "end_ns": end,
             "parent": parent, "analysis": self.analysis_id}
            for sid, name, start, end, parent in sorted(self.spans)
        ]


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        # a worker thread's first span hangs under the innermost span of
        # the thread that handed it the work
        if stack:
            self.parent = stack[-1]
        elif tracer._main:
            self.parent = tracer._main[-1]
        else:
            self.parent = None
        self.sid = next(tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.name, self.start, end, self.parent))
        return False
