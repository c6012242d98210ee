"""Checks of the benchmark itself: expected results, refusals and tracing.

    python3 -m pytest perfbench

The generators derive each expected report by construction.  Here small
instances of every workload family are cross-checked against
flowcheck's independent set-based oracle (quadratic, so it cannot run at
benchmark size), and against the CLI itself.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from flowcheck.extraction import find_all_sequences  # noqa: E402
from flowcheck.loader import model_from_data  # noqa: E402
from flowcheck.oracle import oracle_propagate, oracle_query  # noqa: E402

SMALL = {
    # few label types, so that assignments overwrite labels already set
    "fleet-load": dict(components=8, signatures=2, scenarios=2, attr_types=3),
    "shared-callee": dict(scenarios=12, chain=3, actions=12),
    "wide-frames": dict(parameters=15, actions=45),
}
SEEDS = range(20)


def small_spec(workload, seed):
    return workloads.GENERATORS[workload](random.Random(seed), **SMALL[workload])


def oracle_report(spec) -> tuple[str, int]:
    model = model_from_data(workloads.render_model(spec))
    sequences = find_all_sequences(model)
    lines = []
    for constraint in spec["constraints"]:
        text = workloads.constraints_text([constraint]).strip()
        for sequence_index, sequence in enumerate(sequences):
            for element_index, names in oracle_query(model, sequence, text):
                lines.append(
                    f"CONSTRAINT {constraint[0]} SEQ {sequence_index} ELEM {element_index} "
                    f"NODE {sequence.elements[element_index].element_id} "
                    f"VARS {','.join(names) or '-'}"
                )
    lines.append(f"TOTAL {len(lines)} violations")
    return "\n".join(lines) + "\n", 1 if len(lines) > 1 else 0


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_expected_report_matches_oracle(workload):
    violations = 0
    for seed in SEEDS:
        spec = small_spec(workload, seed)
        stdout, code, elements = workloads.expected_report(spec)
        assert (stdout, code) == oracle_report(spec), f"seed {seed}"
        assert elements == sum(len(s) for s in find_all_sequences(
            model_from_data(workloads.render_model(spec))))
        violations += stdout.count("\n") - 1
    assert violations > 0, "no instance exercises a violation"


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_tracked_labels_match_oracle_at_every_element(workload):
    # one constraint per label that every element matches turns the
    # report into a dump of every variable's labels at every element
    for seed in SEEDS:
        spec = small_spec(workload, seed)
        pairs = [(t, v) for t, values in spec["types"] for v in values]
        spec["constraints"] = [
            (f"has_{t}_{v}", ("const", True), ("ref", "data", t, v)) for t, v in pairs
        ]
        stdout, _, _ = workloads.expected_report(spec)
        model = model_from_data(workloads.render_model(spec))
        propagated = [oracle_propagate(model, s) for s in find_all_sequences(model)]
        lines = []
        for t, v in pairs:
            for sequence_index, sequence in enumerate(propagated):
                for element_index, result in enumerate(sequence.results):
                    names = [var.name for var in result.variables
                             if var.has_data_characteristic(t, v)]
                    if names:
                        lines.append(
                            f"CONSTRAINT has_{t}_{v} SEQ {sequence_index} "
                            f"ELEM {element_index} NODE {result.element.element_id} "
                            f"VARS {','.join(names)}"
                        )
        lines.append(f"TOTAL {len(lines)} violations")
        assert stdout == "\n".join(lines) + "\n", f"seed {seed}"


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_cli_reproduces_expected_reports_byte_for_byte(workload, tmp_path):
    spec = small_spec(workload, 7)
    cases = [workloads.clean_case("clean", spec)] + [
        workloads.defective_case(kind, spec, kind, random.Random(kind))
        for kind in workloads.DEFECT_KINDS
    ]
    for case in cases:
        model, constraints = workloads.write_case(case, tmp_path)
        entry = {"name": case.name, "code": case.code, "stdout": case.stdout,
                 "needle": case.needle}
        outputs = set()
        for _ in range(2):
            payload, error, _ = run.in_child(run.analyze, model, constraints)
            assert run.verdict(entry, payload, error) is None, case.name
            outputs.add(payload["out"])
        assert len(outputs) == 1


def test_same_seed_same_inputs():
    first = workloads.make_cases("wide-frames", 3, clean=1, parameters=10, actions=20)
    second = workloads.make_cases("wide-frames", 3, clean=1, parameters=10, actions=20)
    assert first == second
    other = workloads.make_cases("wide-frames", 4, clean=1, parameters=10, actions=20)
    assert first != other


def _traced_without_some_layers(model, constraints):
    tracing.LAYERS = tracing.LAYERS + (
        ("gone", "flowcheck.kernel", "removed_function", None),
        ("gone.module", "flowcheck.removed_module", "function", None),
    )
    return run.analyze_traced(model, constraints, "test")


def test_traced_spans_account_for_the_analysis(tmp_path):
    case = workloads.clean_case("shared", small_spec("shared-callee", 1))
    model, constraints = workloads.write_case(case, tmp_path)
    payload, error, _ = run.in_child(_traced_without_some_layers, model, constraints)
    assert error is None
    assert payload["out"] == case.stdout
    assert sorted(payload["missing"]) == ["gone", "gone.module"]
    layers = payload["layers"]
    top_level = ["loader.ms", "extraction.ms", "propagation.ms", "constraints.parse_ms",
                 "query.ms", "report.ms", "cli.unattributed_ms"]
    assert sum(layers[name] for name in top_level) == pytest.approx(layers["analyze_ms"])
    assert layers["extraction.elements"] == case.elements
    assert layers["propagation.runs"] == layers["extraction.sequences"] == 12
    spans = payload["spans"]
    assert {"id", "name", "start_ns", "end_ns", "parent", "analysis"} <= set(spans[0])
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        if span["name"] == "kernel":
            assert by_id[span["parent"]]["name"] == "propagation.propagate"


def test_tail_has_ten_samples_above_it():
    samples = list(range(100))
    value, percentile = run.tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == 90.0
