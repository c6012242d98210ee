"""Label propagation along sequences, frozen against hand-checked traces."""

import pytest

from flowcheck.errors import DictionaryError, PropagationError
from flowcheck.extraction import find_all_sequences
from flowcheck.labels import DataDictionary, Label, LabelSet, LabelType
from flowcheck.loader import load_model, model_from_data
from flowcheck.model import assignment_from_text
from flowcheck.oracle import oracle_propagate
from flowcheck.propagation import (
    DataFlowVariable,
    PropagatedSequence,
    evaluate_all,
    evaluate_assignments,
    propagate,
    propagation_runs,
)
from flowcheck import kernel


EU = ["ServerLocation.EU"]
NON_EU = ["ServerLocation.nonEU"]
PERSONAL = ["DataSensitivity.Personal"]
SEALED = ["DataSensitivity.Personal", "Encryption.Encrypted"]

# Expected state after each element: (element id, node labels, variable labels).
# Worked out by hand from the model files and cross-checked against the naive
# interpreter before being frozen here.
SHOP_TRACE = [
    ("purchase", EU, {}),
    ("u.data", EU, {"userData": PERSONAL}),
    ("u.buy", EU, {"order": PERSONAL}),
    ("act.shop.encrypt", EU, {"order": SEALED}),
    ("act.shop.store", EU, {"payload": SEALED}),
    ("act.db.log", NON_EU, {"payload": SEALED, "stored": SEALED}),
    ("act.db.ret", NON_EU, {"payload": SEALED, "stored": SEALED}),
    ("act.shop.store", EU, {"ack": [], "order": SEALED}),
    ("u.buy", EU, {"userData": PERSONAL}),
]

SHOP_NO_ENCRYPT_TRACE = [
    ("purchase", EU, {}),
    ("u.data", EU, {"userData": PERSONAL}),
    ("u.buy", EU, {"order": PERSONAL}),
    ("act.shop.store", EU, {"payload": PERSONAL}),
    ("act.db.log", NON_EU, {"payload": PERSONAL, "stored": PERSONAL}),
    ("act.db.ret", NON_EU, {"payload": PERSONAL, "stored": PERSONAL}),
    ("act.shop.store", EU, {"ack": [], "order": PERSONAL}),
    ("u.buy", EU, {"userData": PERSONAL}),
]


def observed_trace(propagated):
    out = []
    for result in propagated.results:
        frame = {v.name: v.labels.names() for v in result.variables}
        out.append((result.element.element_id, result.node_labels.names(), frame))
    return out


@pytest.mark.parametrize("model_name,expected", [
    ("online_shop.json", SHOP_TRACE),
    ("online_shop_no_encrypt.json", SHOP_NO_ENCRYPT_TRACE),
])
def test_frozen_shop_traces(models_dir, model_name, expected):
    model = load_model(models_dir / model_name)
    seq = find_all_sequences(model)[0]
    assert observed_trace(propagate(model, seq)) == expected


@pytest.mark.parametrize("model_name", [
    "online_shop.json", "online_shop_no_encrypt.json",
])
def test_engine_matches_naive_interpreter(models_dir, model_name):
    model = load_model(models_dir / model_name)
    seq = find_all_sequences(model)[0]
    assert propagate(model, seq) == oracle_propagate(model, seq)


def test_result_bound_through_return(model_data):
    # seff computes Color.Blue and its Return hands it back as 'got'
    model = model_from_data(model_data)
    seq = find_all_sequences(model)[0]
    last = propagate(model, seq).results[-1]
    assert last.variable("got").labels.names() == ["Color.Blue"]
    assert last.variable("v").labels.names() == ["Color.Red"]


def test_unbound_caller_variable_invisible_in_callee(model_data):
    # scenario defines w but only binds v; w must not leak into the seff
    model_data["usageScenarios"][0]["actions"].insert(1, {
        "type": "variable", "id": "u0b",
        "assignments": ["w.Color.Blue := TRUE"],
    })
    model = model_from_data(model_data)
    seq = find_all_sequences(model)[0]
    propagated = propagate(model, seq)
    by_id = {r.element.element_id: r for r in propagated.results}
    assert "w" in by_id["u1"].variable_names()
    assert by_id["s0"].variable_names() == ["out", "p"]
    assert by_id["s0"].variable("w") is None


def test_node_characteristic_lookup(model_data):
    model = model_from_data(model_data)
    seq = find_all_sequences(model)[0]
    results = propagate(model, seq).results
    # seff elements run on inst.a: component Red plus container Blue
    s0 = next(r for r in results if r.element.element_id == "s0")
    assert s0.has_node_characteristic("Color", "Red")
    assert s0.has_node_characteristic("Color", "Blue")
    # user elements carry the scenario's user labels only
    u0 = next(r for r in results if r.element.element_id == "u0")
    assert u0.node_labels.names() == ["Color.Red"]
    assert not u0.has_node_characteristic("Color", "Blue")


def test_has_data_characteristic(model_data):
    model = model_from_data(model_data)
    seq = find_all_sequences(model)[0]
    last = propagate(model, seq).results[-1]
    got = last.variable("got")
    assert got.has_data_characteristic("Color", "Blue")
    assert not got.has_data_characteristic("Color", "Red")


def test_element_reads_pre_state_after_call_and_return(model_data):
    # the first callee element and the first caller element after the
    # return both read a variable that a sibling assignment overwrites
    seff = model_data["components"][0]["seffs"]["svc"]
    seff[0]["assignments"] = ["p.Color.Red := FALSE", "out.Color.Blue := p.Color.Red"]
    model_data["usageScenarios"][0]["actions"].append({
        "type": "variable", "id": "u2",
        "assignments": ["got.Color.Blue := FALSE", "seen.Color.Red := got.Color.Blue"],
    })
    model = model_from_data(model_data)
    seq = find_all_sequences(model)[0]
    propagated = propagate(model, seq)
    kinds = [r.element.kind for r in propagated.results]
    s0 = kinds.index("SeffVariableNode")
    assert kinds[s0 - 1] == "CallingUserNode"
    assert kinds[-2:] == ["ReturningUserNode", "UserVariableNode"]

    def labels(result):
        return {v.name: v.labels.names() for v in result.variables}

    assert labels(propagated.results[s0]) == {"out": ["Color.Blue"], "p": []}
    assert labels(propagated.results[-1]) == {
        "got": [], "seen": ["Color.Red"], "v": ["Color.Red"]}
    assert propagated == oracle_propagate(model, seq)


# -- single-action semantics ----------------------------------------------

@pytest.fixture
def dict_tu():
    return DataDictionary((
        LabelType("T", ("A", "B")),
        LabelType("U", ("X",)),
    ))


def var(dictionary, name, *labels):
    return DataFlowVariable(
        name, dictionary.label_set([Label(t, v) for t, v in labels]))


def run_one(dictionary, texts, variables):
    out = evaluate_assignments(
        dictionary, [assignment_from_text(t) for t in texts], variables)
    return {v.name: v.labels.names() for v in out}


def test_assignment_true_false(dict_tu):
    state = run_one(dict_tu, ["x.T.A := TRUE"], [])
    assert state == {"x": ["T.A"]}
    state = run_one(dict_tu, ["x.T.A := FALSE"], [var(dict_tu, "x", ("T", "A"))])
    assert state == {"x": []}


def test_assignment_reads_pre_state(dict_tu):
    # both right-hand sides see the state before the action started
    state = run_one(
        dict_tu,
        ["a.T.A := b.T.A", "b.T.A := FALSE"],
        [var(dict_tu, "b", ("T", "A"))],
    )
    assert state == {"a": ["T.A"], "b": []}
    state = run_one(dict_tu, ["x.T.A := TRUE", "y.T.A := x.T.A"], [])
    assert state == {"x": ["T.A"], "y": []}


def test_assignment_last_wins(dict_tu):
    state = run_one(dict_tu, ["x.T.A := TRUE", "x.T.A := FALSE"], [])
    assert state == {"x": []}


def test_wildcard_value_replaces_type_region(dict_tu):
    # x.T.* := y.T.* overwrites all of x's T labels, leaves U alone
    x = var(dict_tu, "x", ("T", "A"), ("U", "X"))
    y = var(dict_tu, "y", ("T", "B"))
    state = run_one(dict_tu, ["x.T.* := y.T.*"], [x, y])
    assert state["x"] == ["T.B", "U.X"]


def test_full_wildcard_replaces_everything(dict_tu):
    x = var(dict_tu, "x", ("T", "A"), ("U", "X"))
    y = var(dict_tu, "y", ("T", "B"))
    state = run_one(dict_tu, ["x.*.* := y.*.*"], [x, y])
    assert state["x"] == ["T.B"]


def test_wildcard_clears_when_source_missing(dict_tu):
    x = var(dict_tu, "x", ("T", "A"))
    state = run_one(dict_tu, ["x.*.* := y.*.*"], [x])
    assert state["x"] == []


def test_negation_and_references(dict_tu):
    y = var(dict_tu, "y", ("T", "A"))
    state = run_one(dict_tu, ["x.T.B := y.T.A & !y.T.B"], [y])
    assert state["x"] == ["T.B"]
    state = run_one(dict_tu, ["x.T.B := y.T.B | FALSE"], [y])
    assert state["x"] == []


def test_foreign_dictionary_rejected(dict_tu):
    other = DataDictionary((LabelType("T", ("A",)),))
    stranger = DataFlowVariable("x", other.empty_set())
    with pytest.raises(DictionaryError,
                       match="variable 'x' belongs to a different data dictionary"):
        evaluate_assignments(dict_tu, [], [stranger])


# -- propagated sequence object -------------------------------------------

def test_propagated_sequence_protocol(model_data):
    model = model_from_data(model_data)
    seq = find_all_sequences(model)[0]
    propagated = propagate(model, seq)
    assert len(propagated) == len(seq.elements)
    assert propagated[0].element is seq.elements[0]
    assert [r.element.element_id for r in propagated] == [
        el.element_id for el in seq.elements]
    assert propagated.dictionary == model.dictionary


def test_propagated_sequence_equality(model_data):
    model = model_from_data(model_data)
    seq = find_all_sequences(model)[0]
    a = propagate(model, seq)
    b = propagate(model, seq)
    assert a == b
    assert a != PropagatedSequence(seq, a.node_masks[:-1], a.frames[:-1],
                                   model.dictionary)


def test_from_results_round_trip(model_data):
    model = model_from_data(model_data)
    seq = find_all_sequences(model)[0]
    direct = propagate(model, seq)
    rebuilt = PropagatedSequence.from_results(seq, direct.results)
    assert rebuilt == direct
    assert rebuilt.results == direct.results


def test_run_counter_counts_propagations(model_data):
    model = model_from_data(model_data)
    sequences = find_all_sequences(model)
    before = propagation_runs()
    evaluate_all(model, sequences)
    assert propagation_runs() == before + len(sequences)


# -- kernel error paths ----------------------------------------------------

def test_kernel_push_snapshots_empty_frame():
    assert kernel.run_sequence(((kernel.PUSH,),)) == [{}]


def test_kernel_rejects_apply_without_frame():
    apply = (1, ())
    with pytest.raises(PropagationError, match="no active frame"):
        kernel.run_sequence((apply,))


def test_kernel_rejects_unbalanced_pops():
    ops = ((0,), (3, None, None))  # one PUSH cannot satisfy a POP_BIND
    with pytest.raises(PropagationError, match="pops more frames than it pushed"):
        kernel.run_sequence(ops)


def test_kernel_rejects_unknown_op():
    with pytest.raises(PropagationError, match="unknown element op 99"):
        kernel.run_sequence(((99,),))


def test_kernel_rejects_missing_call_binding():
    # CALL op binding parameter p to a variable that was never defined
    ops = ((0,), (2, (("p", "ghost"),)))
    with pytest.raises(PropagationError,
                       match="call binds parameter 'p' to missing variable 'ghost'"):
        kernel.run_sequence(ops)
