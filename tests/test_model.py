"""Model records, assignment interning, the index, and whole-model validation."""

import pytest

from flowcheck.errors import ModelLoadError, UnknownElementError
from flowcheck.loader import model_from_data
from flowcheck.model import (
    RETURN_VARIABLE,
    index_of,
    ExternalCall,
    ReturnAction,
    SystemCall,
    UserVariableAction,
    VariableAction,
    assignment_from_text,
    node_labels_for_instance,
)


def defects_of(data):
    with pytest.raises(ModelLoadError) as info:
        model_from_data(data)
    return list(info.value.defects)


def test_return_variable_name():
    assert RETURN_VARIABLE == "RETURN"


def test_assignment_interning():
    # same source text yields the same cached object
    a = assignment_from_text("x.T.V := TRUE")
    b = assignment_from_text("x.T.V := TRUE")
    assert a is b
    assert a.target_var == "x"
    assert a.target_type == "T"
    assert a.target_value == "V"
    assert a.text == "x.T.V := TRUE"


def test_assignment_wildcard_arity():
    assert assignment_from_text("x.T.V := TRUE").wildcard_arity() == 0
    assert assignment_from_text("x.T.* := y.T.*").wildcard_arity() == 1
    assert assignment_from_text("x.*.* := y.*.*").wildcard_arity() == 2


def test_actions_are_tuples():
    a = VariableAction("a1", (assignment_from_text("x.T.V := TRUE"),))
    assert isinstance(a, tuple)
    assert a.id == "a1"
    u = UserVariableAction("a2", ())
    assert isinstance(u, VariableAction)
    r = ReturnAction("r1", ())
    assert r.assignments == ()
    c = ExternalCall("c1", "role", "sig", (("p", "v"),), None, ())
    assert c.bindings == (("p", "v"),)
    s = SystemCall("s1", "inst", "sig", (), "out", ())
    assert s.result_variable == "out"


def test_minimal_model_loads(model_data):
    model = model_from_data(model_data)
    assert [c.id for c in model.components] == ["comp.a"]
    assert model.scenarios[0].actions[1].result_variable == "got"


def test_index_lookups(model_data):
    model = model_from_data(model_data)
    index = index_of(model)
    inst = index.instance("inst.a")
    assert inst.component_id == "comp.a"
    assert index.component_of("inst.a").id == "comp.a"
    seff = index.seff_for("inst.a", "svc")
    assert seff.signature_id == "svc"
    with pytest.raises(UnknownElementError, match="unknown assembly instance 'ghost'"):
        index.instance("ghost")
    with pytest.raises(UnknownElementError,
                       match="component 'comp.a' provides no seff for signature 'other'"):
        index.seff_for("inst.a", "other")
    with pytest.raises(UnknownElementError,
                       match="no connector for role 'dep' of instance 'inst.a'"):
        index.resolve_call("inst.a", "dep")
    with pytest.raises(UnknownElementError, match="unknown usage scenario 'ghost'"):
        index.scenario("ghost")


def test_node_labels_union_component_and_container(model_data):
    model = model_from_data(model_data)
    # component carries Color.Red, its container carries Color.Blue
    labels = node_labels_for_instance(model, "inst.a")
    assert labels.names() == ["Color.Blue", "Color.Red"]


def test_node_mask_matches_node_labels(model_data):
    model = model_from_data(model_data)
    index = index_of(model)
    mask = index.node_mask("inst.a")
    assert model.dictionary.set_from_mask(mask).names() == ["Color.Blue", "Color.Red"]


# -- validation defect catalogue ------------------------------------------

def test_duplicate_component_id(model_data):
    model_data["components"].append(model_data["components"][0])
    assert any("duplicate component id 'comp.a'" in d for d in defects_of(model_data))


def test_missing_seff(model_data):
    del model_data["components"][0]["seffs"]["svc"]
    msgs = defects_of(model_data)
    assert "component 'comp.a': no seff for provided signature 'svc'" in msgs


def test_return_must_be_final(model_data):
    model_data["components"][0]["seffs"]["svc"].reverse()
    assert ("component 'comp.a', seff 'svc', action 's1': "
            "Return must be the final action") in defects_of(model_data)


def test_reserved_parameter_name(model_data):
    model_data["components"][0]["signatures"][0]["parameters"] = ["RETURN"]
    assert any("parameter name 'RETURN' is reserved" in d
               for d in defects_of(model_data))


def test_reserved_return_variable_in_scenario(model_data):
    model_data["usageScenarios"][0]["actions"][0]["assignments"] = [
        "RETURN.Color.Red := TRUE"]
    msgs = defects_of(model_data)
    assert any("variable name RETURN is reserved" in d for d in msgs)
    # losing the definition of v also breaks the later binding
    assert any("binding references variable 'v' not in scope" in d for d in msgs)


def test_return_assignments_must_target_return(model_data):
    model_data["components"][0]["seffs"]["svc"][1]["assignments"] = [
        "oops.Color.Blue := TRUE"]
    assert any("return assignments must target RETURN" in d
               for d in defects_of(model_data))


def test_wildcard_arity_mismatch(model_data):
    model_data["components"][0]["seffs"]["svc"][0]["assignments"] = [
        "out.Color.* := p.Color.Red"]
    assert any("reference 'p' has wildcard arity 0, target has 1" in d
               for d in defects_of(model_data))


def test_unknown_label_value(model_data):
    model_data["usageScenarios"][0]["actions"][0]["assignments"] = [
        "v.Color.Green := TRUE"]
    assert any("unknown value 'Green' for label type 'Color'" in d
               for d in defects_of(model_data))


def test_unknown_component_reference(model_data):
    model_data["assembly"]["instances"][0]["component"] = "comp.ghost"
    assert any("instance 'inst.a': unknown component 'comp.ghost'" in d
               for d in defects_of(model_data))


def test_unallocated_instance(model_data):
    model_data["deployment"]["allocations"] = {}
    assert ("instance 'inst.a' is not allocated to any container"
            in defects_of(model_data))


def test_allocation_to_unknown_container(model_data):
    model_data["deployment"]["allocations"]["inst.a"] = "nowhere"
    assert "allocation of 'inst.a': unknown container 'nowhere'" in defects_of(model_data)


def test_binding_unknown_parameter(model_data):
    model_data["usageScenarios"][0]["actions"][1]["bindings"]["q"] = "v"
    assert any("binding names unknown parameter 'q' of signature 'svc'" in d
               for d in defects_of(model_data))


def test_binding_out_of_scope_variable(model_data):
    model_data["usageScenarios"][0]["actions"][1]["bindings"]["p"] = "ghost"
    assert any("binding references variable 'ghost' not in scope" in d
               for d in defects_of(model_data))


def test_call_to_unknown_signature(model_data):
    model_data["usageScenarios"][0]["actions"][1]["signature"] = "other"
    assert any("unknown signature 'other'" in d for d in defects_of(model_data))


def test_call_to_unprovided_signature(model_data):
    # the signature exists, but on a component the called instance lacks
    model_data["components"].append({
        "id": "comp.b",
        "name": "Beta",
        "signatures": [{"id": "other", "name": "other", "parameters": []}],
        "seffs": {"other": [{"type": "return", "id": "b1", "assignments": []}]},
    })
    model_data["usageScenarios"][0]["actions"][1]["signature"] = "other"
    model_data["usageScenarios"][0]["actions"][1]["bindings"] = {}
    assert any("instance 'inst.a' does not provide signature 'other'" in d
               for d in defects_of(model_data))


def test_duplicate_action_id(model_data):
    actions = model_data["usageScenarios"][0]["actions"]
    actions[1]["id"] = actions[0]["id"]
    assert any("duplicate action id" in d for d in defects_of(model_data))


def test_connector_checks(model_data):
    # second component calls the first through a required role
    model_data["components"].append({
        "id": "comp.b",
        "name": "Beta",
        "signatures": [{"id": "entry", "name": "entry", "parameters": []}],
        "seffs": {"entry": [
            {"type": "call", "id": "b0", "role": "dep", "signature": "svc",
             "bindings": {"p": "local"}},
        ]},
    })
    model_data["assembly"]["instances"].append(
        {"id": "inst.b", "component": "comp.b"})
    model_data["deployment"]["allocations"]["inst.b"] = "host"

    # no connector for the role at all
    msgs = defects_of(model_data)
    assert any("call 'b0': no connector for role 'dep'" in d for d in msgs)
    # the binding references a variable the seff never defined
    assert any("binding references variable 'local' not in scope" in d for d in msgs)

    model_data["components"][1]["seffs"]["entry"][0]["bindings"] = {}
    model_data["assembly"]["connectors"] = [
        {"instance": "inst.b", "role": "dep", "target": "inst.ghost"}]
    assert any("unknown target instance 'inst.ghost'" in d
               for d in defects_of(model_data))

    # connector lands on an instance that does not provide the signature
    model_data["assembly"]["connectors"][0]["target"] = "inst.b"
    assert any("does not provide signature 'svc'" in d
               for d in defects_of(model_data))


# -- one document holding one defect of each kind -------------------------

def _call(aid, role, sig, bindings=None, result=None):
    out = {"type": "call", "id": aid, "role": role, "signature": sig,
           "bindings": bindings or {}}
    if result is not None:
        out["result"] = result
    return out


_MULTI_FAULT = {
    "dictionary": {"labelTypes": [
        {"name": "Color", "values": ["Red", "Blue", "Red"]},
        {"name": "Color", "values": ["Green"]},
        {"name": "Size", "values": []},
        {"name": "bad-name", "values": ["x"]},
        {"name": "Shape", "values": ["round-ish"]},
    ]},
    "components": [
        {"id": "comp.a", "labels": ["Color.Red"],
         "signatures": [
             {"id": "svc", "parameters": ["p"]},
             {"id": "noret", "parameters": []},
             {"id": "aux", "parameters": ["RETURN", "1bad", "q", "q"]},
         ],
         "seffs": {
             "svc": [
                 {"type": "variable", "id": "s0", "assignments": ["out.Color.Blue := p.Color.Red"]},
                 {"type": "variable", "id": "s0", "assignments": ["t.Color.Red := TRUE"]},
                 {"type": "variable", "id": "s1", "assignments": ["t.Nope.X := TRUE"]},
                 {"type": "variable", "id": "s2", "assignments": ["w.Color.* := p.Color.Red"]},
                 {"type": "return", "id": "s3", "assignments": ["oops.Color.Blue := out.Color.Blue"]},
             ],
             "noret": [{"type": "variable", "id": "n0", "assignments": ["m.Color.Red := TRUE"]}],
             "ghost": [{"type": "return", "id": "g0", "assignments": []}],
         }},
        {"id": "comp.b",
         "signatures": [{"id": "entry", "parameters": ["e"]}],
         "seffs": {"entry": [
             _call("b0", "dep", "svc", {"p": "local"}),
             _call("b1", "dep", "nosuch"),
             _call("b2", "dep", "svc", {"zz": "e"}),
             _call("b3", "dep", "noret", result="r"),
             _call("b4", "side", "svc"),
             _call("b5", "wrong", "svc"),
             _call("b6", "dep", "svc", result="RETURN"),
             {"type": "return", "id": "b7", "assignments": []},
             {"type": "variable", "id": "b8", "assignments": ["z.Color.Red := TRUE"]},
         ]}},
        {"id": "comp.c"},
        {"id": "comp.c"},
        {"id": "comp.d",
         "signatures": [{"id": "svc", "parameters": []}],
         "seffs": {"svc": [{"type": "return", "id": "d0", "assignments": []}]}},
    ],
    "assembly": {
        "instances": [
            {"id": "inst.a", "component": "comp.a"},
            {"id": "inst.b", "component": "comp.b"},
            {"id": "inst.d", "component": "comp.c"},
            {"id": "inst.d", "component": "comp.c"},
            {"id": "inst.x", "component": "comp.ghost"},
            {"id": "inst.y", "component": "comp.c"},
        ],
        "connectors": [
            {"instance": "inst.b", "role": "dep", "target": "inst.a"},
            {"instance": "inst.b", "role": "wrong", "target": "inst.b"},
            {"instance": "inst.b", "role": "dep", "target": "inst.a"},
            {"instance": "inst.ghost", "role": "r", "target": "inst.a"},
            {"instance": "inst.a", "role": "r2", "target": "inst.nowhere"},
        ],
    },
    "deployment": {
        "containers": [{"id": "host"}, {"id": "host"}],
        "allocations": {"inst.a": "host", "inst.b": "host", "inst.d": "nowhere",
                        "inst.x": "host", "inst.gone": "host"},
    },
    "usageScenarios": [
        {"id": "scn", "actions": [
            {"type": "variable", "id": "u0", "assignments": ["v.Color.Red := TRUE"]},
            {"type": "call", "id": "u1", "instance": "inst.a", "signature": "svc",
             "bindings": {"p": "v"}, "result": "got"},
            {"type": "variable", "id": "u1", "assignments": ["v.Color.Blue := TRUE"]},
            {"type": "variable", "id": "u2", "assignments": ["v.Color.Purple := TRUE"]},
            {"type": "call", "id": "u3", "instance": "inst.none", "signature": "svc"},
            {"type": "call", "id": "u4", "instance": "inst.a", "signature": "entry"},
            {"type": "call", "id": "u5", "instance": "inst.a", "signature": "svc",
             "bindings": {"p": "nothere"}},
            {"type": "variable", "id": "u6", "assignments": ["RETURN.Color.Red := TRUE"]},
        ]},
        {"id": "scn", "actions": []},
    ],
}

# the loader's defects, in reading order, come before the cross-references
_MULTI_FAULT_LOCAL = [
    "label type 'Color': duplicate value 'Red'",
    "duplicate label type name 'Color'",
    "label type 'Size' declares no values",
    "label type name 'bad-name' is not a valid identifier",
    "label type 'Shape': value 'round-ish' is not a valid identifier",
    "signature 'aux': parameter name 'RETURN' is reserved",
    "signature 'aux': parameter '1bad' is not a valid identifier",
    "signature 'aux': duplicate parameter 'q'",
    "component 'comp.a', seff 'svc', action 's0': duplicate action id",
    "component 'comp.a', seff 'svc', action 's1': assignment 't.Nope.X := TRUE': unknown label type 'Nope'",
    "component 'comp.a', seff 'svc', action 's2': assignment 'w.Color.* := p.Color.Red': reference 'p' has wildcard arity 0, target has 1",
    "component 'comp.a', seff 'svc', action 's3': assignment 'oops.Color.Blue := out.Color.Blue': return assignments must target RETURN",
    "component 'comp.a', seff 'ghost': component does not provide this signature",
    "component 'comp.a': no seff for provided signature 'aux'",
    "component 'comp.b', seff 'entry', action 'b0': binding references variable 'local' not in scope",
    "component 'comp.b', seff 'entry', action 'b6': variable name RETURN is reserved",
    "component 'comp.b', seff 'entry', action 'b7': Return must be the final action",
    "duplicate component id 'comp.c'",
    "duplicate signature id 'svc' (components 'comp.a' and 'comp.d')",
    "duplicate assembly instance id 'inst.d'",
    "connector (inst.b, dep): duplicate connector for this role",
    "duplicate container id 'host'",
    "scenario 'scn', action 'u1': duplicate action id",
    "scenario 'scn', action 'u2': assignment 'v.Color.Purple := TRUE': unknown value 'Purple' for label type 'Color'",
    "scenario 'scn', action 'u5': binding references variable 'nothere' not in scope",
    "scenario 'scn', action 'u6': assignment 'RETURN.Color.Red := TRUE': variable name RETURN is reserved",
    "duplicate usage scenario id 'scn'",
]
_MULTI_FAULT_CROSS_REFERENCES = [
    "component 'comp.b', seff 'entry', action 'b1': unknown signature 'nosuch'",
    "component 'comp.b', seff 'entry', action 'b2': binding names unknown parameter 'zz' of signature 'svc'",
    "component 'comp.b', seff 'entry', action 'b3': result variable set but seff of 'noret' has no Return action",
    "instance 'inst.b', call 'b4': no connector for role 'side'",
    "instance 'inst.b', call 'b5': connector target 'inst.b' does not provide signature 'svc'",
    "instance 'inst.x': unknown component 'comp.ghost'",
    "instance 'inst.y' is not allocated to any container",
    "connector (inst.ghost, r): unknown source instance",
    "connector (inst.a, r2): unknown target instance 'inst.nowhere'",
    "allocation of 'inst.d': unknown container 'nowhere'",
    "allocation of 'inst.gone': unknown instance",
    "scenario 'scn', action 'u3': unknown instance 'inst.none'",
    "scenario 'scn', action 'u4': instance 'inst.a' does not provide signature 'entry'",
]
# recorded from the loader that still validated in a second sweep
_MULTI_FAULT_SORTED_BEFORE_SPLIT = [
    "allocation of 'inst.d': unknown container 'nowhere'",
    "allocation of 'inst.gone': unknown instance",
    "component 'comp.a', seff 'ghost': component does not provide this signature",
    "component 'comp.a', seff 'svc', action 's0': duplicate action id",
    "component 'comp.a', seff 'svc', action 's1': assignment 't.Nope.X := TRUE': unknown label type 'Nope'",
    "component 'comp.a', seff 'svc', action 's2': assignment 'w.Color.* := p.Color.Red': reference 'p' has wildcard arity 0, target has 1",
    "component 'comp.a', seff 'svc', action 's3': assignment 'oops.Color.Blue := out.Color.Blue': return assignments must target RETURN",
    "component 'comp.a': no seff for provided signature 'aux'",
    "component 'comp.b', seff 'entry', action 'b0': binding references variable 'local' not in scope",
    "component 'comp.b', seff 'entry', action 'b1': unknown signature 'nosuch'",
    "component 'comp.b', seff 'entry', action 'b2': binding names unknown parameter 'zz' of signature 'svc'",
    "component 'comp.b', seff 'entry', action 'b3': result variable set but seff of 'noret' has no Return action",
    "component 'comp.b', seff 'entry', action 'b6': variable name RETURN is reserved",
    "component 'comp.b', seff 'entry', action 'b7': Return must be the final action",
    "connector (inst.a, r2): unknown target instance 'inst.nowhere'",
    "connector (inst.b, dep): duplicate connector for this role",
    "connector (inst.ghost, r): unknown source instance",
    "duplicate assembly instance id 'inst.d'",
    "duplicate component id 'comp.c'",
    "duplicate container id 'host'",
    "duplicate label type name 'Color'",
    "duplicate signature id 'svc' (components 'comp.a' and 'comp.d')",
    "duplicate usage scenario id 'scn'",
    "instance 'inst.b', call 'b4': no connector for role 'side'",
    "instance 'inst.b', call 'b5': connector target 'inst.b' does not provide signature 'svc'",
    "instance 'inst.x': unknown component 'comp.ghost'",
    "instance 'inst.y' is not allocated to any container",
    "label type 'Color': duplicate value 'Red'",
    "label type 'Shape': value 'round-ish' is not a valid identifier",
    "label type 'Size' declares no values",
    "label type name 'bad-name' is not a valid identifier",
    "scenario 'scn', action 'u1': duplicate action id",
    "scenario 'scn', action 'u2': assignment 'v.Color.Purple := TRUE': unknown value 'Purple' for label type 'Color'",
    "scenario 'scn', action 'u3': unknown instance 'inst.none'",
    "scenario 'scn', action 'u4': instance 'inst.a' does not provide signature 'entry'",
    "scenario 'scn', action 'u5': binding references variable 'nothere' not in scope",
    "scenario 'scn', action 'u6': assignment 'RETURN.Color.Red := TRUE': variable name RETURN is reserved",
    "signature 'aux': duplicate parameter 'q'",
    "signature 'aux': parameter '1bad' is not a valid identifier",
    "signature 'aux': parameter name 'RETURN' is reserved",
]


def test_multi_fault_document_defects():
    msgs = defects_of(_MULTI_FAULT)
    assert sorted(msgs) == _MULTI_FAULT_SORTED_BEFORE_SPLIT
    assert msgs == _MULTI_FAULT_LOCAL + _MULTI_FAULT_CROSS_REFERENCES
