"""Scalability benchmark: model generators, harness and JSON output.

Four model features scale independently while everything else stays
constant, so each run isolates one growth dimension:

* ``node-characteristics``: labels on the called component's node
* ``characteristics-propagation``: label-forwarding actions in the seff
* ``variable-actions``: label-setting actions in the seff
* ``seff-parameters``: parameters of the called signature

Each timed repetition executes the full pipeline through
``analysis.run_pipeline``: parse the in-memory JSON serialization,
resolve and validate, parse a constraint that flags every element ("all
violations"), extract sequences, propagate and query.  Each repetition
keeps its wall time, the time of each stage and that of ``json.loads``
of the text, a reference that drifts with the machine as they do.
``run_pipeline`` pauses the cyclic garbage collector from load to query,
as it does for ``flowcheck analyze``, so a collector pass lands in no
timed region and bench and ``analyze`` time the same program.  One data
point starts from cold caches; a crash, timeout or memory exhaustion is
recorded as a failed outcome instead of killing the harness.
"""

from __future__ import annotations

import enum
import gc
import json
import statistics
import time
from typing import NamedTuple

from .analysis import collector_paused, run_pipeline
from .constraints import parse_constraint
from .loader import load_model_text, model_from_data, model_to_json
from .model import ArchitectureModel, clear_parse_cache

__all__ = [
    "BenchFeature",
    "BenchConfig",
    "BenchResult",
    "ALL_VIOLATIONS_CONSTRAINT",
    "generate_bench_model",
    "run_bench",
    "write_bench_json",
]

ALL_VIOLATIONS_CONSTRAINT = "VIOLATION all WHERE TRUE AND DATA TRUE"

DEFAULT_SIZES = (1, 10, 100, 1_000, 10_000, 100_000)


class BenchFeature(enum.Enum):
    NODE_CHARACTERISTICS = "node-characteristics"
    CHARACTERISTICS_PROPAGATION = "characteristics-propagation"
    VARIABLE_ACTIONS = "variable-actions"
    SEFF_PARAMETERS = "seff-parameters"


class BenchConfig(NamedTuple):
    feature: BenchFeature
    sizes: tuple[int, ...] = DEFAULT_SIZES
    repetitions: int = 10
    timeout_s: float = 600.0


class BenchResult(NamedTuple):
    feature: BenchFeature
    size: int
    runs_ms: tuple[float, ...]
    stage_runs_ms: tuple[dict[str, float], ...]  # per run: stage -> ms
    median_ms: float | None
    stage_median_ms: dict[str, float]  # empty unless completed
    outcome: str  # "completed" or "failed: <reason>"
    load_split_median_ms: dict[str, float]  # the median-load run's json, build, validate
    reference_median_ms: float | None = None  # json.loads of the model text

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


def _all_violations(model: ArchitectureModel) -> list:
    return [parse_constraint(ALL_VIOLATIONS_CONSTRAINT, model.dictionary)]


def _bench_point(config: BenchConfig, size: int) -> BenchResult:
    clear_parse_cache()
    runs: list[float] = []
    references: list[float] = []  # json.loads of the text, the reference, per run
    stage_runs: list[dict[str, float]] = []
    split_runs: list[dict[str, float]] = []
    outcome = "completed"
    try:
        text = model_to_json(generate_bench_model(config.feature, size))
        deadline = time.monotonic() + config.timeout_s
        # the collector stays paused until a repetition's results are
        # freed, as in every analysis; collection is forced between
        # repetitions instead
        with collector_paused():
            for _ in range(config.repetitions):
                if time.monotonic() > deadline:
                    outcome = f"failed: timeout after {config.timeout_s:.0f} s"
                    break
                gc.collect()
                started, document = time.perf_counter(), json.loads(text)
                references.append((time.perf_counter() - started) * 1000.0)
                del document
                result = run_pipeline(lambda t: load_model_text(text, timings=t), _all_violations)
                # from the record's start, past the cold microseconds after a collection
                timings = result[-1]
                runs.append((time.perf_counter() - timings.started) * 1000.0)
                stage_runs.append(timings.stage_ms)
                split_runs.append(timings.load_split_ms)
                del result, timings
    except MemoryError:
        outcome = "failed: out of memory"
    except Exception as exc:  # a failed point must not kill the harness
        outcome = f"failed: {type(exc).__name__}: {exc}"
    median, stage_median, split, reference = None, {}, {}, None
    if runs and outcome == "completed":
        median, reference = statistics.median(runs), statistics.median(references)
        stage_median = {
            stage: statistics.median(run[stage] for run in stage_runs)
            for stage in stage_runs[0]
        }
        # the parts of the run whose load is the (lower) median add up to its load
        loads = [run["load"] for run in stage_runs]
        split = split_runs[loads.index(statistics.median_low(loads))]
    return BenchResult(config.feature, size, tuple(runs), tuple(stage_runs), median,
                       stage_median, outcome, split, reference)


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
# JSON output


def write_bench_json(results, path) -> None:
    """One document: ``{"points": [...]}``, one point per result in sweep order.

    A point has ``feature``, ``size``, ``outcome``, ``runs_ms`` (wall time
    per repetition), ``stage_runs_ms`` (per repetition, stage -> time),
    ``median_ms`` (null unless completed), ``stage_median_ms`` and
    ``load_split_median_ms`` (``json``, ``build`` and ``validate``, the
    parts of the load of the run whose load is the lower median), then
    ``reference_median_ms`` (``json.loads`` of the model text) and
    ``over_reference``, each of those stages and parts over it.  Stages
    keep pipeline order; times are milliseconds rounded to microseconds.
    """
    points = [
        {
            "feature": result.feature.value,
            "size": result.size,
            "outcome": result.outcome,
            "runs_ms": [round(ms, 3) for ms in result.runs_ms],
            "stage_runs_ms": [
                {stage: round(ms, 3) for stage, ms in stages.items()}
                for stages in result.stage_runs_ms
            ],
            "median_ms": None if result.median_ms is None else round(result.median_ms, 3),
            "stage_median_ms": {
                stage: round(ms, 3) for stage, ms in result.stage_median_ms.items()
            },
            "load_split_median_ms": {
                part: round(ms, 3) for part, ms in result.load_split_median_ms.items()
            },
            "reference_median_ms": result.reference_median_ms and round(result.reference_median_ms, 3),
            "over_reference": {name: round(ms / result.reference_median_ms, 3) for name, ms in
                               {**result.stage_median_ms, **result.load_split_median_ms}.items()},
        }
        for result in results
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"points": points}, handle, indent=2)
        handle.write("\n")
