"""Benchmark model generation, the measurement harness, and JSON output."""

import json
import pathlib
import statistics

import pytest

from flowcheck.analysis import run_pipeline
from flowcheck.benchgen import (
    ALL_VIOLATIONS_CONSTRAINT,
    BenchConfig,
    BenchFeature,
    BenchResult,
    generate_bench_model,
    run_bench,
    write_bench_json,
)
from flowcheck.constraints import parse_constraint, query_many
from flowcheck.extraction import find_all_sequences
from flowcheck.loader import load_model_text, model_to_json
from flowcheck.propagation import evaluate_all

FEATURES = list(BenchFeature)
STAGES = ["load", "constraints", "extract", "propagate", "query"]
POINT_KEYS = {"feature", "size", "outcome", "runs_ms", "stage_runs_ms",
              "median_ms", "stage_median_ms", "load_split_median_ms",
              "reference_median_ms", "over_reference"}

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
    with pytest.raises(ValueError, match="unknown bench feature 'variable-actions'"):
        generate_bench_model("variable-actions", 3)


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


def assert_stages_cover_runs(runs_ms, stage_runs_ms, rounding=1e-9):
    """The stages add up to each run's wall time, short of the runner's bookkeeping.

    A preemption can land between two stages of any one run, so the
    bookkeeping alone (tens of microseconds) shows in the run with the
    smallest gap.
    """
    gaps = [wall - sum(stages.values()) for wall, stages in zip(runs_ms, stage_runs_ms)]
    assert all(gap >= -rounding for gap in gaps)
    assert min(gaps) <= 0.1 + 0.01 * max(runs_ms) + rounding


def test_run_bench_times_each_stage():
    config = BenchConfig(BenchFeature.VARIABLE_ACTIONS, sizes=(1, 2000), repetitions=3)
    for r in run_bench(config):
        assert len(r.stage_runs_ms) == 3
        assert all(list(stages) == STAGES for stages in r.stage_runs_ms)
        assert_stages_cover_runs(r.runs_ms, r.stage_runs_ms)
        assert list(r.stage_median_ms) == STAGES
        for stage in STAGES:
            assert r.stage_median_ms[stage] == pytest.approx(
                statistics.median(run[stage] for run in r.stage_runs_ms))


@pytest.mark.parametrize("feature", FEATURES)
def test_smallest_runs_are_their_stages(feature):
    # a run is timed from its Timings record, not from the end of the
    # collection before it, whose cold aftermath no stage covers; what is
    # left is the pipeline's return, a few microseconds of a run of about
    # half a millisecond, so the least disturbed run shows it
    [r] = run_bench(BenchConfig(feature, sizes=(1,), repetitions=5))
    assert_stages_cover_runs(r.runs_ms, r.stage_runs_ms)
    assert max(sum(stages.values()) / wall
               for wall, stages in zip(r.runs_ms, r.stage_runs_ms)) >= 0.99


def test_load_split_is_the_median_runs_load():
    [r] = run_bench(BenchConfig(BenchFeature.VARIABLE_ACTIONS, sizes=(2000,), repetitions=4))
    assert list(r.load_split_median_ms) == ["json", "build", "validate"]
    load = statistics.median_low(run["load"] for run in r.stage_runs_ms)
    assert sum(r.load_split_median_ms.values()) == pytest.approx(load, rel=0, abs=1e-9)


def test_load_split_adds_up_to_each_load():
    text = model_to_json(generate_bench_model(BenchFeature.SEFF_PARAMETERS, 2000))
    for _ in range(3):
        *_, timings = run_pipeline(
            lambda timings: load_model_text(text, timings=timings), lambda model: [])
        assert list(timings.load_split_ms) == ["json", "build", "validate"]
        assert all(ms >= 0 for ms in timings.load_split_ms.values())
        assert sum(timings.load_split_ms.values()) == pytest.approx(
            timings.stage_ms["load"], rel=0, abs=1e-9)


def bench_json(tmp_path, name, results):
    path = tmp_path / name
    write_bench_json(results, path)
    return json.loads(path.read_text())


def key_structure(document):
    return [
        (sorted(point), list(point["stage_median_ms"]),
         [list(stages) for stages in point["stage_runs_ms"]])
        for point in document["points"]
    ]


def test_bench_json_points(tmp_path):
    config = BenchConfig(BenchFeature.NODE_CHARACTERISTICS,
                         sizes=(1, 10), repetitions=2)
    document = bench_json(tmp_path, "bench.json", run_bench(config))
    assert list(document) == ["points"]
    points = document["points"]
    assert [(p["feature"], p["size"]) for p in points] == [
        ("node-characteristics", 1), ("node-characteristics", 10)]
    for point in points:
        assert set(point) == POINT_KEYS
        assert point["outcome"] == "completed"
        assert len(point["runs_ms"]) == len(point["stage_runs_ms"]) == 2
        assert point["median_ms"] == pytest.approx(
            statistics.median(point["runs_ms"]), abs=1e-3)
        assert list(point["stage_median_ms"]) == STAGES
        assert all(list(stages) == STAGES for stages in point["stage_runs_ms"])
        # each of the six rounded times is off by at most half a microsecond
        assert_stages_cover_runs(point["runs_ms"], point["stage_runs_ms"], rounding=0.003)


def test_bench_json_points_carry_the_stages_over_a_json_loads_reference(tmp_path):
    config = BenchConfig(BenchFeature.VARIABLE_ACTIONS, sizes=(2000,), repetitions=3)
    [point] = bench_json(tmp_path, "bench.json", run_bench(config))["points"]
    reference = point["reference_median_ms"]
    assert reference > 0
    medians = {**point["stage_median_ms"], **point["load_split_median_ms"]}
    assert list(point["over_reference"]) == STAGES + ["json", "build", "validate"]
    for name, ratio in point["over_reference"].items():
        assert ratio == pytest.approx(medians[name] / reference, rel=0.01, abs=2e-3), name
    # the load's own json part parses the same text
    assert 0.2 < point["over_reference"]["json"] < 5


def test_bench_json_same_structure_on_rerun(tmp_path):
    config = BenchConfig(BenchFeature.SEFF_PARAMETERS, sizes=(1, 5), repetitions=2)
    first = bench_json(tmp_path, "a.json", run_bench(config))
    second = bench_json(tmp_path, "b.json", run_bench(config))
    assert key_structure(first) == key_structure(second)


def test_bench_json_failed_point(tmp_path):
    config = BenchConfig(BenchFeature.NODE_CHARACTERISTICS,
                         sizes=(1,), repetitions=2, timeout_s=0.0)
    [point] = bench_json(tmp_path, "failed.json", run_bench(config))["points"]
    assert point["outcome"].startswith("failed: timeout")
    assert point["median_ms"] is None
    assert point["stage_median_ms"] == {}
    assert point["reference_median_ms"] is None
    assert point["over_reference"] == {}


COMMITTED_BENCHES = sorted(pathlib.Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", COMMITTED_BENCHES, ids=lambda p: p.name)
def test_committed_bench_json(path):
    for point in json.loads(path.read_text(encoding="utf-8"))["points"]:
        where = f"{point['feature']} {point['size']}"
        assert point["outcome"] == "completed", where
        assert list(point["stage_median_ms"]) == STAGES, where
        assert all(list(stages) == STAGES for stages in point["stage_runs_ms"]), where
        if point["size"] < 10_000:
            continue  # the first microseconds after gc.collect() weigh too much here
        for wall, stages in zip(point["runs_ms"], point["stage_runs_ms"]):
            assert sum(stages.values()) == pytest.approx(wall, rel=0.05), where
