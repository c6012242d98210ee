"""Scalability benchmark: model generators, harness and CSV output.

Four model features scale independently while everything else stays
constant, so each run isolates one growth dimension:

* ``node-characteristics``: labels on the called component's node
* ``characteristics-propagation``: label-forwarding actions in the seff
* ``variable-actions``: label-setting actions in the seff
* ``seff-parameters``: parameters of the called signature

Each timed repetition executes the full pipeline: parse the in-memory
JSON serialization, resolve and validate, extract sequences, propagate,
and evaluate a constraint that flags every element ("all violations").
``include_load=False`` drops the parse/resolve step from the timed
region.  One data point starts from cold caches; a crash, timeout or
memory exhaustion is recorded as a failed outcome instead of killing the
harness.
"""

from __future__ import annotations

import enum
import gc
import resource
import statistics
import time
from dataclasses import dataclass

from .constraints import parse_constraint, query_many
from .extraction import find_all_sequences
from .loader import load_model_text, model_from_data, model_to_json
from .model import ArchitectureModel, clear_parse_cache
from .propagation import evaluate_all

__all__ = [
    "BenchFeature",
    "BenchConfig",
    "BenchResult",
    "ALL_VIOLATIONS_CONSTRAINT",
    "generate_bench_model",
    "run_bench",
    "write_runs_csv",
    "write_medians_csv",
]

ALL_VIOLATIONS_CONSTRAINT = "VIOLATION all WHERE TRUE AND DATA TRUE"

DEFAULT_SIZES = (1, 10, 100, 1_000, 10_000, 100_000)


class BenchFeature(enum.Enum):
    NODE_CHARACTERISTICS = "node-characteristics"
    CHARACTERISTICS_PROPAGATION = "characteristics-propagation"
    VARIABLE_ACTIONS = "variable-actions"
    SEFF_PARAMETERS = "seff-parameters"


@dataclass(frozen=True)
class BenchConfig:
    feature: BenchFeature
    sizes: tuple[int, ...] = DEFAULT_SIZES
    repetitions: int = 10
    include_load: bool = True
    timeout_s: float = 600.0


@dataclass(frozen=True)
class BenchResult:
    feature: BenchFeature
    size: int
    runs_ms: tuple[float, ...]
    median_ms: float | None
    peak_rss_bytes: int | None
    outcome: str  # "completed" or "failed: <reason>"

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"


def generate_bench_model(feature: BenchFeature, size: int) -> ArchitectureModel:
    """A minimal valid model where only ``feature`` grows with ``size``.

    Constant skeleton: one component with one signature, one assembled
    instance on one container, one scenario with one user variable
    action followed by one call.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    label_types = [{"name": "Data", "values": ["Marked"]}]
    component_labels: list[str] = []
    parameters = ["input"]
    seff_actions: list[dict] = []
    bindings = {"input": "data"}

    if feature is BenchFeature.NODE_CHARACTERISTICS:
        label_types.append(
            {"name": "Mark", "values": [f"L{i}" for i in range(size)]}
        )
        component_labels = [f"Mark.L{i}" for i in range(size)]
        seff_actions.append(
            {
                "type": "variable",
                "id": "a0",
                "assignments": ["input.Data.Marked := input.Data.Marked"],
            }
        )
    elif feature is BenchFeature.CHARACTERISTICS_PROPAGATION:
        seff_actions.extend(
            {
                "type": "variable",
                "id": f"a{i}",
                "assignments": ["input.*.* := input.*.*"],
            }
            for i in range(size)
        )
    elif feature is BenchFeature.VARIABLE_ACTIONS:
        label_types.append({"name": "Flag", "values": ["On"]})
        seff_actions.extend(
            {
                "type": "variable",
                "id": f"a{i}",
                "assignments": ["buf.Flag.On := TRUE"],
            }
            for i in range(size)
        )
    elif feature is BenchFeature.SEFF_PARAMETERS:
        parameters = [f"p{i}" for i in range(size)]
        bindings = {param: "data" for param in parameters}
        seff_actions.append(
            {
                "type": "variable",
                "id": "a0",
                "assignments": ["p0.Data.Marked := p0.Data.Marked"],
            }
        )
    else:
        raise ValueError(f"unknown bench feature {feature!r}")

    data = {
        "dictionary": {"labelTypes": label_types},
        "components": [
            {
                "id": "comp",
                "name": "Worker",
                "labels": component_labels,
                "signatures": [{"id": "svc", "name": "work", "parameters": parameters}],
                "seffs": {"svc": seff_actions},
            }
        ],
        "assembly": {
            "instances": [{"id": "inst", "component": "comp"}],
            "connectors": [],
        },
        "deployment": {
            "containers": [{"id": "host", "name": "host", "labels": []}],
            "allocations": {"inst": "host"},
        },
        "usageScenarios": [
            {
                "id": "scene",
                "name": "drive",
                "userLabels": [],
                "actions": [
                    {
                        "type": "variable",
                        "id": "u0",
                        "assignments": ["data.Data.Marked := TRUE"],
                    },
                    {
                        "type": "call",
                        "id": "u1",
                        "instance": "inst",
                        "signature": "svc",
                        "bindings": bindings,
                    },
                ],
            }
        ],
    }
    return model_from_data(data)


def _pipeline(model: ArchitectureModel | None, text: str | None) -> int:
    """One full analysis pass; returns the violation count."""
    if text is not None:
        model = load_model_text(text)
    sequences = find_all_sequences(model)
    propagated = evaluate_all(model, sequences)
    constraint = parse_constraint(ALL_VIOLATIONS_CONSTRAINT, model.dictionary)
    violations = query_many(propagated, [constraint])
    return sum(len(v) for v in violations.values())


def _bench_point(config: BenchConfig, size: int) -> BenchResult:
    clear_parse_cache()
    runs: list[float] = []
    outcome = "completed"
    try:
        model = generate_bench_model(config.feature, size)
        text = model_to_json(model) if config.include_load else None
        prepared = None if config.include_load else model
        deadline = time.monotonic() + config.timeout_s
        # collector pauses land on random repetitions and would skew the
        # medians between sizes, so collection is forced between timed
        # regions and paused inside them
        gc_was_enabled = gc.isenabled()
        try:
            for _ in range(config.repetitions):
                if time.monotonic() > deadline:
                    outcome = f"failed: timeout after {config.timeout_s:.0f} s"
                    break
                gc.collect()
                gc.disable()
                start = time.perf_counter()
                _pipeline(prepared, text)
                runs.append((time.perf_counter() - start) * 1000.0)
                if gc_was_enabled:
                    gc.enable()
        finally:
            if gc_was_enabled:
                gc.enable()
    except MemoryError:
        outcome = "failed: out of memory"
    except Exception as exc:  # a failed point must not kill the harness
        outcome = f"failed: {type(exc).__name__}: {exc}"
    median = statistics.median(runs) if runs and outcome == "completed" else None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return BenchResult(config.feature, size, tuple(runs), median, peak, outcome)


def run_bench(config: BenchConfig, *, progress=None) -> list[BenchResult]:
    """Execute the configured sweep; one result per size.

    ``progress`` is called with each finished :class:`BenchResult`.
    """
    results = []
    for size in config.sizes:
        result = _bench_point(config, size)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


# ---------------------------------------------------------------------------
# CSV output


def write_runs_csv(results, path) -> None:
    """Per-repetition wall times: feature,size,run,wall_ms,outcome."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["feature", "size", "run", "wall_ms", "outcome"])
        for result in results:
            for run, wall_ms in enumerate(result.runs_ms):
                writer.writerow(
                    [result.feature.value, result.size, run, f"{wall_ms:.3f}", "completed"]
                )


def write_medians_csv(results, path) -> None:
    """Aggregates: feature,size,median_ms,outcome."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["feature", "size", "median_ms", "outcome"])
        for result in results:
            median = "" if result.median_ms is None else f"{result.median_ms:.3f}"
            writer.writerow([result.feature.value, result.size, median, result.outcome])
