"""Benchmark model generation, the measurement harness, and CSV output."""

import csv
import statistics

import pytest

from flowcheck.benchgen import (
    ALL_VIOLATIONS_CONSTRAINT,
    BenchConfig,
    BenchFeature,
    BenchResult,
    generate_bench_model,
    run_bench,
    write_medians_csv,
    write_runs_csv,
)
from flowcheck.constraints import parse_constraint, query_many
from flowcheck.extraction import find_all_sequences
from flowcheck.propagation import evaluate_all

FEATURES = list(BenchFeature)

# elements in the single extracted sequence as a function of model size
EXPECTED_ELEMENTS = {
    BenchFeature.NODE_CHARACTERISTICS: lambda n: 5,
    BenchFeature.CHARACTERISTICS_PROPAGATION: lambda n: n + 4,
    BenchFeature.VARIABLE_ACTIONS: lambda n: n + 4,
    BenchFeature.SEFF_PARAMETERS: lambda n: 5,
}


def test_feature_values():
    assert {f.value for f in FEATURES} == {
        "node-characteristics",
        "characteristics-propagation",
        "variable-actions",
        "seff-parameters",
    }


@pytest.mark.parametrize("feature", FEATURES)
@pytest.mark.parametrize("size", [1, 3, 10, 50])
def test_generated_models_load_and_have_expected_shape(feature, size):
    model = generate_bench_model(feature, size)
    sequences = find_all_sequences(model)
    assert len(sequences) == 1
    assert len(sequences[0].elements) == EXPECTED_ELEMENTS[feature](size)


@pytest.mark.parametrize("feature", FEATURES)
def test_all_violations_constraint_matches_every_element(feature):
    # the harness checks violations == element count, verify the base fact
    for size in (1, 4, 25):
        model = generate_bench_model(feature, size)
        propagated = evaluate_all(model, find_all_sequences(model))
        c = parse_constraint(ALL_VIOLATIONS_CONSTRAINT, model.dictionary)
        violations = query_many(propagated, [c])[c.name]
        assert len(violations) == sum(len(p) for p in propagated)


def test_generator_rejects_size_zero():
    with pytest.raises(ValueError, match="size must be at least 1"):
        generate_bench_model(BenchFeature.VARIABLE_ACTIONS, 0)


def test_generated_text_is_deterministic():
    from flowcheck.loader import model_to_json
    a = model_to_json(generate_bench_model(BenchFeature.SEFF_PARAMETERS, 12))
    b = model_to_json(generate_bench_model(BenchFeature.SEFF_PARAMETERS, 12))
    assert a == b


def test_run_bench_result_shape():
    config = BenchConfig(BenchFeature.NODE_CHARACTERISTICS,
                         sizes=(1, 10), repetitions=2)
    results = run_bench(config)
    assert [r.size for r in results] == [1, 10]
    for r in results:
        assert isinstance(r, BenchResult)
        assert r.feature is BenchFeature.NODE_CHARACTERISTICS
        assert r.completed
        assert r.outcome == "completed"
        assert len(r.runs_ms) == 2
        assert r.median_ms == pytest.approx(statistics.median(r.runs_ms))


def test_run_bench_timeout_marks_failure():
    config = BenchConfig(BenchFeature.NODE_CHARACTERISTICS,
                         sizes=(1,), repetitions=2, timeout_s=0.0)
    results = run_bench(config)
    assert len(results) == 1
    assert not results[0].completed
    assert results[0].outcome.startswith("failed: timeout")


def test_run_bench_no_load_still_measures():
    config = BenchConfig(BenchFeature.VARIABLE_ACTIONS,
                         sizes=(1,), repetitions=2, include_load=False)
    results = run_bench(config)
    assert results[0].completed
    assert results[0].median_ms >= 0.0


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_runs_csv_columns(tmp_path):
    config = BenchConfig(BenchFeature.NODE_CHARACTERISTICS,
                         sizes=(1, 10), repetitions=2)
    results = run_bench(config)
    runs_path = tmp_path / "runs.csv"
    medians_path = tmp_path / "medians.csv"
    write_runs_csv(results, runs_path)
    write_medians_csv(results, medians_path)

    rows = csv_rows(runs_path)
    assert rows[0] == ["feature", "size", "run", "wall_ms", "outcome"]
    assert len(rows) == 1 + 4  # 2 sizes x 2 repetitions

    rows = csv_rows(medians_path)
    assert rows[0] == ["feature", "size", "median_ms", "outcome"]
    assert [r[1] for r in rows[1:]] == ["1", "10"]
