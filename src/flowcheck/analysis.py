"""High-level facade tying the pipeline together.

The shape mirrors how the analysis reads in code: find all sequences,
evaluate the data flows once, then query the propagated results as often
as needed.

    analysis = DataFlowAnalysis.from_file("model.json")
    sequences = analysis.find_all_sequences()
    propagated = analysis.evaluate_data_flows(sequences)
    violations = analysis.query_data_flow(
        propagated[0],
        lambda node: node.has_node_characteristic("ServerLocation", "nonEU")
        and any(
            v.has_data_characteristic("DataSensitivity", "Personal")
            and not v.has_data_characteristic("Encryption", "Encrypted")
            for v in node.variables
        ),
    )

``run_pipeline`` is the same pipeline as one timed call, shared by
``flowcheck analyze`` and ``flowcheck bench``.  ``collector_paused`` is
the pause of the cyclic garbage collector that it and the command line
run in.
"""

from __future__ import annotations

import gc
import sys
import time

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:  # no ``resource`` module on Windows
    getrusage = None

from .constraints import Constraint, Violation, query, query_many
from .extraction import ActionSequence, find_all_sequences
from .loader import load_model
from .model import ArchitectureModel
from .propagation import PropagatedSequence, evaluate_all

__all__ = ["DataFlowAnalysis", "Timings", "collector_paused", "run_pipeline"]


class DataFlowAnalysis:
    """One model, analysed end to end."""

    def __init__(self, model: ArchitectureModel):
        self.model = model

    @classmethod
    def from_file(cls, path) -> "DataFlowAnalysis":
        return cls(load_model(path))

    def find_all_sequences(self) -> list[ActionSequence]:
        return find_all_sequences(self.model)

    def evaluate_data_flows(self, sequences=None) -> list[PropagatedSequence]:
        """Propagate labels; extracts the sequences first when not given."""
        if sequences is None:
            sequences = self.find_all_sequences()
        return evaluate_all(self.model, sequences)

    def query_data_flow(
        self,
        propagated: PropagatedSequence,
        predicate,
        *,
        sequence_index: int = 0,
        name: str = "query",
    ) -> list[Violation]:
        """Match one propagated sequence against a constraint.

        ``predicate`` is either a :class:`Constraint` or a callable
        taking an element result and returning truth.
        """
        if isinstance(predicate, Constraint):
            return query(propagated, predicate, sequence_index=sequence_index)
        violations = []
        for element_index, result in enumerate(propagated.results):
            if predicate(result):
                violations.append(
                    Violation(
                        name,
                        sequence_index,
                        element_index,
                        result.element.element_id,
                        (),
                    )
                )
        return violations

    def query_all(self, propagated_sequences, constraints) -> dict[str, list[Violation]]:
        """Evaluate many constraints against already-propagated results."""
        return query_many(propagated_sequences, constraints)


class Timings:
    """Wall time of each pipeline stage, in the order the stages ran, and
    of the parts the loader marks in the load stage, with the process's
    peak resident memory when each stage ended."""

    def __init__(self):
        self.stage_ms: dict[str, float] = {}
        self.load_split_ms: dict[str, float] = {}
        self.maxrss_mib: dict[str, float] = {}
        self.started = self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        """Close ``stage``: it took the time since the previous lap."""
        self.maxrss_mib[stage] = _maxrss_mib()
        now = time.perf_counter()
        self.stage_ms[stage] = (now - self._last) * 1000.0
        self._last = now

    def split(self, part: str) -> None:
        """Close ``part`` of the load stage: it took the time since the
        stage began, less the parts closed before it."""
        ms = (time.perf_counter() - self._last) * 1000.0
        self.load_split_ms[part] = ms - sum(self.load_split_ms.values())

    @property
    def total_ms(self) -> float:
        """From the start to the last lap."""
        return (self._last - self.started) * 1000.0


def _maxrss_mib() -> float:
    """The ``ru_maxrss`` high-water mark of this process in MiB; 0 where
    the platform has none."""
    if getrusage is None:
        return 0.0
    # kibibytes on Linux, bytes on macOS
    return getrusage(RUSAGE_SELF).ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)


class collector_paused:
    """Pause the cyclic garbage collector, then put it back as it was.

    Almost everything an analysis allocates lives until it ends, so each
    collection would only rescan the growing model; and what it builds
    holds no reference cycles, so reference counting frees all of it and
    the pause leaves nothing behind.  The pause has to last until those
    objects are freed: a collection that runs while they are still alive
    scans every one of them once more.  The exit turns the collector back
    on as its last step, so no allocation of its own starts that scan.
    """

    def __enter__(self):
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self._was_enabled:
            gc.enable()


def run_pipeline(load, constraints_for):
    """Load, extract, propagate and query, timing each stage.

    ``load(timings)`` returns the model and ``constraints_for(model)`` the
    constraints to query.  Returns ``(model, sequences, propagated,
    constraints, violations, timings)``; ``timings`` holds the stages
    ``load``, ``constraints``, ``extract``, ``propagate`` and ``query``.
    If ``load`` splits its stage, ``validate`` is the rest of the load.
    The stage functions are looked up as module globals on every call,
    so a wrapper installed over them later is seen.  The stages run in
    :func:`collector_paused`.
    """
    with collector_paused():
        timings = Timings()
        model = load(timings)
        timings.lap("load")
        split = timings.load_split_ms
        if split:
            split["validate"] = timings.stage_ms["load"] - sum(split.values())
        constraints = constraints_for(model)
        timings.lap("constraints")
        sequences = find_all_sequences(model)
        timings.lap("extract")
        propagated = evaluate_all(model, sequences)
        timings.lap("propagate")
        violations = query_many(propagated, constraints)
        timings.lap("query")
        # built inside the pause, so nothing allocates once the collector is on
        return model, sequences, propagated, constraints, violations, timings
