"""The high-level facade tying loading, extraction, and queries together."""

import gc
import json

import pytest

import flowcheck
from flowcheck.analysis import DataFlowAnalysis, run_pipeline
from flowcheck.benchgen import BenchFeature, generate_bench_model
from flowcheck.constraints import load_constraints, parse_constraint
from flowcheck.errors import ModelLoadError
from flowcheck.loader import load_model, load_model_text, model_to_json

from conftest import call_chain_model_data
from generators import random_constraints, random_small_model

GEO = ("VIOLATION geo WHERE node.ServerLocation.nonEU "
       "AND DATA data.DataSensitivity.Personal & !data.Encryption.Encrypted")


def test_from_file_full_pipeline(shop_no_encrypt_path):
    run = DataFlowAnalysis.from_file(shop_no_encrypt_path)
    sequences = run.find_all_sequences()
    propagated = run.evaluate_data_flows(sequences)
    c = parse_constraint(GEO, run.model.dictionary)
    buckets = run.query_all(propagated, [c])
    assert [v.element_id for v in buckets["geo"]] == ["act.db.log", "act.db.ret"]


def test_evaluate_data_flows_default_sequences(shop_path):
    run = DataFlowAnalysis.from_file(shop_path)
    propagated = run.evaluate_data_flows()
    assert len(propagated) == 1
    assert len(propagated[0]) == 9


def test_query_data_flow_accepts_constraint_and_callable(shop_no_encrypt_path):
    run = DataFlowAnalysis.from_file(shop_no_encrypt_path)
    propagated = run.evaluate_data_flows()[0]

    c = parse_constraint(GEO, run.model.dictionary)
    hits = run.query_data_flow(propagated, c)
    assert [v.element_index for v in hits] == [4, 5]

    # a bare callable over ElementResult works too
    hits = run.query_data_flow(
        propagated,
        lambda r: r.has_node_characteristic("ServerLocation", "nonEU"),
        name="off_eu")
    assert [v.element_index for v in hits] == [4, 5]
    assert all(v.constraint_name == "off_eu" for v in hits)


def test_deep_call_chain_refused_at_load(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(call_chain_model_data(70)))
    with pytest.raises(ModelLoadError, match=r"call depth exceeded \(64 nested calls\)"):
        DataFlowAnalysis.from_file(path)


def test_empty_document_is_a_valid_empty_model(tmp_path):
    # every section is optional; an empty object is an empty model
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    run = DataFlowAnalysis.from_file(empty)
    assert run.find_all_sequences() == []


def test_from_file_propagates_load_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"usageScenarios": [{"id": "s", "actions": ['
                   '{"type": "call", "id": "a", "instance": "ghost",'
                   ' "signature": "x", "bindings": {}}]}]}')
    with pytest.raises(ModelLoadError):
        DataFlowAnalysis.from_file(bad)


def test_package_level_exports(shop_path):
    model = flowcheck.load_model(shop_path)
    sequences = flowcheck.find_all_sequences(model)
    propagated = flowcheck.evaluate_all(model, sequences)
    c = flowcheck.constraints.parse_constraint(GEO, model.dictionary)
    assert flowcheck.query_many(propagated, [c]) == {"geo": []}
    assert flowcheck.format_report({"geo": []}) == "TOTAL 0 violations"


# run_pipeline pauses the cyclic garbage collector from load to query and
# puts it back as it found it, also when a stage raises.
@pytest.fixture
def collector_state():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _no_constraints(model):
    return []


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pipeline_restores_collector_state(collector_state, shop_path, enabled):
    gc.enable() if enabled else gc.disable()
    seen = []

    def load(timings):
        seen.append(gc.isenabled())
        return load_model(shop_path)

    run_pipeline(load, _no_constraints)
    assert seen == [False]
    assert gc.isenabled() is enabled


def _raise_runtime_error(model):
    raise RuntimeError("stage failed")


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pipeline_restores_collector_state_on_errors(collector_state, tmp_path, shop_path,
                                                         enabled):
    gc.enable() if enabled else gc.disable()
    bad = tmp_path / "bad.json"
    bad.write_text('{"usageScenarios": 1}')
    with pytest.raises(ModelLoadError):
        run_pipeline(lambda timings: load_model(bad, timings), _no_constraints)
    assert gc.isenabled() is enabled
    with pytest.raises(RuntimeError):
        run_pipeline(lambda timings: load_model(shop_path, timings), _raise_runtime_error)
    assert gc.isenabled() is enabled


def _pipelines(models_dir):
    constraints_file = models_dir / "geo.constraints"
    for name in ("online_shop.json", "online_shop_no_encrypt.json"):
        yield (lambda timings, path=models_dir / name: load_model(path, timings),
               lambda model: load_constraints(constraints_file, model.dictionary))
    for seed in range(50):
        model = random_small_model(seed)
        # drawn here: the generator's closures form cycles of their own
        texts = random_constraints(model, seed)
        yield (lambda timings, text=model_to_json(model): load_model_text(text, timings=timings),
               lambda model, texts=texts: [parse_constraint(t, model.dictionary) for t in texts])


def test_paused_run_leaves_no_cyclic_garbage(collector_state, models_dir):
    # the premise of the pause: nothing the pipeline builds needs the
    # collector to be freed
    gc.disable()
    for load, constraints_for in _pipelines(models_dir):
        gc.collect()
        run_pipeline(load, constraints_for)
        assert gc.collect() == 0


def test_run_pipeline_ends_without_a_collection(collector_state):
    # with the collector on, the pause ends as the pipeline's last step, so
    # no allocation on the way out starts a scan of everything it built
    model = generate_bench_model(BenchFeature.VARIABLE_ACTIONS, 2000)
    collections = []

    def record(phase, info):
        collections.append(phase)

    remove = gc.callbacks.remove
    gc.collect()
    gc.enable()
    gc.callbacks.append(record)
    try:
        run_pipeline(lambda timings: model, _no_constraints)
    finally:
        remove(record)
    assert collections == []
