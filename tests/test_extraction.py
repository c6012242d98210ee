"""Sequence extraction: element shapes, call expansion, and depth limits."""

import pytest

from flowcheck.errors import CallDepthError, ExtractionError, ModelLoadError
from flowcheck.extraction import (
    DEFAULT_MAX_CALL_DEPTH,
    ActionSequence,
    CallingSeffNode,
    CallingUserNode,
    ReturningSeffNode,
    ReturningUserNode,
    SeffReturnNode,
    SeffVariableNode,
    UserStart,
    UserVariableNode,
    find_all_sequences,
)
from flowcheck.loader import load_model, model_from_data

from conftest import minimal_model_data, unchecked_model
from generators import random_small_model


def test_default_depth_limit():
    assert DEFAULT_MAX_CALL_DEPTH == 64


def test_online_shop_sequence_shape(shop_path):
    sequences = find_all_sequences(load_model(shop_path))
    assert len(sequences) == 1
    seq = sequences[0]
    assert isinstance(seq, ActionSequence)
    assert seq.scenario_id == "purchase"
    shape = [(type(el).__name__, el.element_id) for el in seq.elements]
    assert shape == [
        ("UserStart", "purchase"),
        ("UserVariableNode", "u.data"),
        ("CallingUserNode", "u.buy"),
        ("SeffVariableNode", "act.shop.encrypt"),
        ("CallingSeffNode", "act.shop.store"),
        ("SeffVariableNode", "act.db.log"),
        ("SeffReturnNode", "act.db.ret"),
        ("ReturningSeffNode", "act.shop.store"),
        ("ReturningUserNode", "u.buy"),
    ]


def test_node_kinds_and_fields(shop_path):
    seq = find_all_sequences(load_model(shop_path))[0]
    start = seq.elements[0]
    assert isinstance(start, UserStart)
    assert start.kind == "UserStart"
    assert start.scenario_id == "purchase"

    calling = seq.elements[2]
    assert isinstance(calling, CallingUserNode)
    assert calling.instance_id == "inst.shop"
    assert calling.signature_id == "buy"
    assert calling.bindings == (("order", "userData"),)

    inner_call = seq.elements[4]
    assert isinstance(inner_call, CallingSeffNode)
    assert inner_call.instance_id == "inst.shop"
    assert inner_call.callee_instance_id == "inst.db"

    returning = seq.elements[8]
    assert isinstance(returning, ReturningUserNode)
    assert returning.result_variable is None  # the scenario discards the result


def test_call_brackets_balance(shop_path):
    # every Calling* node has a matching Returning* node, well nested
    seq = find_all_sequences(load_model(shop_path))[0]
    depth = 0
    for el in seq.elements:
        if isinstance(el, (CallingUserNode, CallingSeffNode)):
            depth += 1
        elif isinstance(el, (ReturningUserNode, ReturningSeffNode)):
            depth -= 1
        assert depth >= 0
    assert depth == 0


@pytest.mark.parametrize("seed", range(12))
def test_call_brackets_balance_random(seed):
    model = random_small_model(seed)
    for seq in find_all_sequences(model):
        depth = 0
        for el in seq.elements:
            if isinstance(el, (CallingUserNode, CallingSeffNode)):
                depth += 1
            elif isinstance(el, (ReturningUserNode, ReturningSeffNode)):
                depth -= 1
            assert depth >= 0
        assert depth == 0
        assert isinstance(el, (ReturningUserNode, UserVariableNode, UserStart))


def test_sequences_follow_scenario_order(model_data):
    scn2 = {
        "id": "scn2", "name": "again", "userLabels": [],
        "actions": [{"type": "variable", "id": "w0",
                     "assignments": ["v.Color.Red := TRUE"]}],
    }
    model_data["usageScenarios"].append(scn2)
    sequences = find_all_sequences(model_from_data(model_data))
    assert [s.scenario_id for s in sequences] == ["scn", "scn2"]


def cyclic_model_data():
    """Two components that call each other forever."""
    data = minimal_model_data()
    data["components"] = [
        {
            "id": "comp.a", "name": "A",
            "signatures": [{"id": "ping", "name": "ping", "parameters": []}],
            "seffs": {"ping": [
                {"type": "call", "id": "a0", "role": "next",
                 "signature": "pong", "bindings": {}},
            ]},
        },
        {
            "id": "comp.b", "name": "B",
            "signatures": [{"id": "pong", "name": "pong", "parameters": []}],
            "seffs": {"pong": [
                {"type": "call", "id": "b0", "role": "back",
                 "signature": "ping", "bindings": {}},
            ]},
        },
    ]
    data["assembly"] = {
        "instances": [
            {"id": "inst.a", "component": "comp.a"},
            {"id": "inst.b", "component": "comp.b"},
        ],
        "connectors": [
            {"instance": "inst.a", "role": "next", "target": "inst.b"},
            {"instance": "inst.b", "role": "back", "target": "inst.a"},
        ],
    }
    data["deployment"]["allocations"] = {"inst.a": "host", "inst.b": "host"}
    data["usageScenarios"] = [{
        "id": "scn", "name": "loop", "userLabels": [],
        "actions": [{"type": "call", "id": "u0", "instance": "inst.a",
                     "signature": "ping", "bindings": {}}],
    }]
    return data


def test_cyclic_calls_hit_depth_limit():
    # the loader refuses the cycle, so build the model without its checks
    model = unchecked_model(cyclic_model_data())
    with pytest.raises(CallDepthError) as info:
        find_all_sequences(model)
    assert "call depth exceeded" in str(info.value)
    assert info.value.call_chain  # names the offending chain


def test_cyclic_chain_stops_at_the_limit():
    with pytest.raises(CallDepthError, match=r"\(64 nested calls\)") as info:
        find_all_sequences(unchecked_model(cyclic_model_data()))
    chain = info.value.call_chain
    assert len(chain) == DEFAULT_MAX_CALL_DEPTH + 1
    assert chain[:4] == ("u0", "a0", "b0", "a0")


def test_loader_refuses_a_reachable_cycle():
    with pytest.raises(ModelLoadError) as info:
        model_from_data(cyclic_model_data())
    chain = " -> ".join(["u0"] + ["a0", "b0"] * 32)
    assert info.value.defects == (
        f"scenario 'scn', action 'u0': call depth exceeded (64 nested calls): {chain}",
    )


def test_loader_ignores_an_unreachable_cycle():
    data = cyclic_model_data()
    data["usageScenarios"][0]["actions"] = []
    assert find_all_sequences(model_from_data(data))[0].parts == ((UserStart("scn", "scn"),),)


def test_extraction_error_names_scenario(model_data):
    model = model_from_data(model_data)
    # break the index after validation by rebuilding with an empty assembly
    import dataclasses
    from flowcheck.model import Assembly
    broken = dataclasses.replace(model, assembly=Assembly((), ()))
    with pytest.raises(ExtractionError, match="scenario 'scn':"):
        find_all_sequences(broken)


def test_sequence_container_protocol(shop_path):
    seq = find_all_sequences(load_model(shop_path))[0]
    assert len(seq.elements) == 9
    assert seq.elements[0].element_id == "purchase"
    ids = [el.element_id for el in seq.elements]
    assert ids.count("u.buy") == 2  # calling and returning bracket
