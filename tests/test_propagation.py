"""Label propagation along sequences, frozen against hand-checked traces."""

from typing import NamedTuple

import pytest

from flowcheck import cli, kernel, propagation
from flowcheck.errors import DictionaryError, PropagationError
from flowcheck.extraction import (
    ActionSequence,
    CallingUserNode,
    ReturningUserNode,
    SeffVariableNode,
    UserStart,
    UserVariableNode,
    find_all_sequences,
)
from flowcheck.labels import DataDictionary, LabelType
from flowcheck.loader import load_model, model_from_data, model_to_json
from flowcheck.model import assignment_from_text
from flowcheck.oracle import _apply_assignments, oracle_propagate
from flowcheck.propagation import (
    DataFlowVariable,
    PropagatedSequence,
    evaluate_all,
    evaluate_assignments,
    propagate,
    propagation_runs,
)

from generators import random_small_model, repeat_run_model


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
    propagated = propagate(model, seq)
    assert propagated == oracle_propagate(model, seq)
    assert (propagated == seq) is False and (propagated[0] == seq[0]) is False


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
    mask = 0
    for t, v in labels:
        mask |= 1 << dictionary.bit(t, v)
    return DataFlowVariable(name, dictionary.set_from_mask(mask))


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


# One case per way an assignment lowers.  The target x starts with labels
# of its own type T and of the other type U; T.B and T.C have no
# counterpart in U, so y.U.* gives 0 for them (and !y.U.* sets them), and
# W shares no value with T, so y.W.* folds to 0.
SHAPES_DICTIONARY = DataDictionary((
    LabelType("T", ("A", "B", "C")),
    LabelType("U", ("A", "X")),
    LabelType("W", ("Z",)),
))
ASSIGNMENT_SHAPES = {
    "constant-true": ["x.T.C := TRUE"],
    "constant-false": ["x.T.B := FALSE"],
    "type-wildcard-constant": ["x.T.* := TRUE"],
    "full-wildcard-constant": ["x.*.* := FALSE"],
    "concrete-tested": ["x.T.A := y.U.A & !x.T.B"],
    "full-wildcard": ["x.*.* := y.*.*"],
    "aligned-type-wildcard": ["x.T.* := y.T.* | x.T.*"],
    "non-aligned-type-wildcard": ["x.T.* := y.U.*"],
    "negated-non-aligned-type-wildcard": ["x.T.* := !y.U.*"],
    "type-wildcard-sharing-no-value": ["x.T.* := y.W.*"],
    "negated-type-wildcard-sharing-no-value": ["x.T.* := !y.W.* & y.T.*"],
    "two-assignments-one-target": ["x.T.* := y.T.*", "x.T.A := !x.T.A"],
}


@pytest.mark.parametrize("texts", ASSIGNMENT_SHAPES.values(), ids=ASSIGNMENT_SHAPES.keys())
def test_assignment_shape_matches_oracle(texts):
    dictionary = SHAPES_DICTIONARY
    start = {"x": {("T", "B"), ("U", "X")}, "y": {("T", "C"), ("U", "A")}}
    assignments = [assignment_from_text(text) for text in texts]
    expected = {name: set(pairs) for name, pairs in start.items()}
    _apply_assignments(assignments, expected, dictionary)
    variables = [var(dictionary, name, *pairs) for name, pairs in start.items()]
    out = evaluate_assignments(dictionary, assignments, variables)
    assert {v.name: {(l.type, l.value) for l in v.labels} for v in out} == expected


# The loader refuses an assignment whose references' wildcard arity
# differs from its target's; lowering refuses it in the same words.
@pytest.mark.parametrize("text, arity, target_arity", [
    ("x.T.* := a.T.A", 0, 1),
    ("x.*.* := a.T.A", 0, 2),
    ("x.T.A := a.T.*", 1, 0),
    ("x.*.* := !a.T.* | a.*.*", 1, 2),
    ("x.T.* := TRUE & a.*.*", 2, 1),
])
def test_mixed_arity_assignment_rejected(text, arity, target_arity):
    a = var(SHAPES_DICTIONARY, "a", ("T", "A"))
    with pytest.raises(DictionaryError) as info:
        evaluate_assignments(SHAPES_DICTIONARY, [assignment_from_text(text)], [a])
    assert str(info.value) == (
        f"reference 'a' has wildcard arity {arity}, target has {target_arity}")


@pytest.mark.parametrize("text", ["x.T.A := !y.Bogus.A", "x.T.* := !y.Bogus.*"],
                         ids=["concrete", "type-wildcard"])
def test_reference_to_unknown_label_type_rejected(text):
    # lowering refuses both forms in the same words, though the type
    # wildcard alone would fold to a constant
    with pytest.raises(DictionaryError) as info:
        evaluate_assignments(SHAPES_DICTIONARY, [assignment_from_text(text)], [])
    assert str(info.value) == "unknown label type 'Bogus'"


def test_foreign_dictionary_rejected(dict_tu):
    other = DataDictionary((LabelType("T", ("A",)),))
    stranger = DataFlowVariable("x", other.set_from_mask(0))
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
    assert a != PropagatedSequence(seq, [(a.node_masks[:-1], a.deltas[:-1])],
                                   model.dictionary)


def test_run_counter_counts_propagations(model_data):
    model = model_from_data(model_data)
    sequences = find_all_sequences(model)
    before = propagation_runs()
    evaluate_all(model, sequences)
    assert propagation_runs() == before + len(sequences)


# -- change-only deltas ----------------------------------------------------

def _apply_deltas(*op_lists):
    """The deltas of one frame's assignment elements, each element's
    "assignments" being its ops already."""
    elements = [UserStart("s", "s")] + [
        UserVariableNode(f"a{n}", "s", tuple(ops)) for n, ops in enumerate(op_lists)]
    return kernel.run_sequence([tuple(elements)], lambda ops: ops)[0][1:]


def test_unchanged_single_write_shares_the_empty_delta():
    same = lambda pre: pre["x"]  # noqa: E731
    deltas = _apply_deltas([("x", 0, 5)], [("x", 0, 5)], [("x", 0, same)], [("x", ~1, 1)])
    assert deltas[0] == (("x", 5),)
    assert all(delta is kernel.NO_CHANGE for delta in deltas[1:])
    assert kernel.NO_CHANGE == ()


@pytest.mark.parametrize("ops", [
    [("x", 0, 0)],
    [("x", ~1, 0)],
    [("x", 0, lambda pre: pre.get("y", 0))],
    [("y", 0, 2), ("x", 0, 0)],
], ids=["constant", "kept-bits", "closure", "multi-op"])
def test_write_that_creates_a_variable_at_mask_0_is_recorded(ops):
    assert ("x", 0) in _apply_deltas(ops)[0]


def test_multi_op_writes_that_cancel_out_record_nothing():
    deltas = _apply_deltas([("x", 0, 1), ("y", 0, 2)],
                           [("x", 0, 4), ("y", ~2, 0), ("x", 0, 1), ("y", 0, 2)])
    assert deltas[1] is kernel.NO_CHANGE


def test_multi_op_records_each_changed_target_once_with_its_final_mask():
    deltas = _apply_deltas([("x", 0, 1), ("y", 0, 2)],
                           [("x", 0, 4), ("y", 0, 2), ("z", 0, 0), ("x", ~8, 8), ("y", 0, 3)])
    assert deltas[1] == (("x", 12), ("y", 3), ("z", 0))


def test_shared_body_is_lowered_once_per_memo():
    lowered = []

    def lower(ops):
        lowered.append(ops)
        return ops

    body = (SeffVariableNode("b", "i", (("p", ~1, 1),)),)
    parts = []
    for value in (2, 4):  # two bound frames, so the body is walked twice
        parts += [(UserStart("s", "s"), UserVariableNode("u", "s", (("x", 0, value),)),
                   CallingUserNode("c", "s", "i", "sig", (("p", "x"),))), body]
    memo = {}
    deltas = [kernel.run_sequence(parts[:2] + [()], lower, memo),
              kernel.run_sequence(parts[2:] + [()], lower, memo)]
    assert [d[1] for d in deltas] == [[(("p", 3),)], [(("p", 5),)]]
    assert lowered.count(body[0].assignments) == 1


@pytest.mark.parametrize("seed", range(40))
def test_assignment_deltas_hold_exactly_what_changed(seed):
    """Against the oracle's frames: an assignment element's delta names
    each variable whose mask differs from the frame before it, or that
    it creates, once."""
    model = random_small_model(seed)
    for sequence in find_all_sequences(model):
        frames = oracle_propagate(model, sequence).frames
        deltas = propagate(model, sequence).deltas
        for n, (element, delta) in enumerate(zip(sequence, deltas)):
            if element.effect != kernel.APPLY:
                continue
            before = frames[n - 1]
            assert len(dict(delta)) == len(delta)
            assert dict(delta) == {var: mask for var, mask in frames[n].items()
                                   if before.get(var) != mask}


def test_kernel_records_each_frame_change_then_the_part_length():
    # the call binds nothing, so the frame it pushes is the empty tuple,
    # NO_CHANGE itself, and still a change
    elements = (UserStart("s", "s"), UserVariableNode("a", "s", (("x", 0, 5),)),
                UserVariableNode("b", "s", (("x", 0, 5),)),
                UserVariableNode("c", "s", (("x", 0, 5), ("y", 0, 0))),
                CallingUserNode("c", "s", "i", "sig", ()))
    changes = []
    deltas = kernel.run_sequence([elements], lambda ops: ops, None, changes)
    assert deltas[0][4] is kernel.NO_CHANGE
    assert changes == [[0, 1, 3, 4, 5]]


# -- runs of repeated actions ----------------------------------------------

def test_repeated_runs_match_the_oracle_and_the_walk_of_every_element(tmp_path, capsys, monkeypatch):
    """The kernel walks each run of a repeated idempotent action as one
    step.  On models of such runs, cut by calls and reused under several
    call contexts, propagation equals the oracle's, and the deltas, the
    change positions and the CLI's output equal those of a walk that
    runs every element."""
    model_path, constraints_path = tmp_path / "model.json", tmp_path / "model.constraints"
    argv = ["analyze", str(model_path), "--constraints", str(constraints_path), "--dump-propagation"]
    verdicts = []
    idempotent = propagation._idempotent

    def spy(assignments):
        verdicts.append(idempotent(assignments))
        return verdicts[-1]

    for seed in range(200):
        model, texts = repeat_run_model(seed)
        model_path.write_text(model_to_json(model))
        constraints_path.write_text("\n".join(texts) + "\n")
        sequences = find_all_sequences(model)
        outputs, propagated = [], []
        for verdict in (spy, lambda assignments: False):
            monkeypatch.setattr(propagation, "_idempotent", verdict)
            propagated.append(evaluate_all(model, sequences))
            outputs.append((cli.main(argv), capsys.readouterr()))
        assert outputs[0] == outputs[1], seed
        for sequence, runs, each in zip(sequences, *propagated):
            assert runs == oracle_propagate(model, sequence), seed
            assert (runs.parts, runs.changes) == (each.parts, each.changes), seed
    assert True in verdicts and False in verdicts


def test_kernel_walks_a_run_once_and_records_no_change_in_it():
    elements = (UserStart("s", "s"),) + tuple(
        UserVariableNode(name, "s", ops) for name, ops in [
            ("a", (("x", 0, 5),)), ("b", (("x", 0, 5),)), ("c", (("x", 0, 5),)),
            ("d", (("x", 0, 6),)), ("e", (("x", 0, 6),))])
    lowered, changes = [], []
    deltas = kernel.run_sequence([elements], lambda ops: lowered.append(ops) or ops, None,
                                 changes, lambda ops: True)
    assert deltas == [[(), (("x", 5),), (), (), (("x", 6),), ()]]
    assert changes == [[0, 1, 4, 6]]
    assert lowered == [elements[1].assignments, elements[4].assignments]


# -- kernel error paths ----------------------------------------------------

def _no_ops(assignments):
    return ()


def test_kernel_push_snapshots_empty_frame():
    assert kernel.run_sequence([(UserStart("s", "s"),)], _no_ops) == [[()]]


def test_kernel_rejects_apply_without_frame():
    apply = UserVariableNode("a", "s", ())
    call = CallingUserNode("c", "s", "i", "sig", ())  # reads its bindings from the top frame
    for element in (apply, call):
        with pytest.raises(PropagationError, match="no active frame"):
            kernel.run_sequence([(element,)], _no_ops)


def test_kernel_rejects_unbalanced_pops():
    # one UserStart cannot satisfy a return
    elements = (UserStart("s", "s"), ReturningUserNode("r", "s", None, ()))
    with pytest.raises(PropagationError, match="pops more frames than it pushed"):
        kernel.run_sequence([elements], _no_ops)


class _Stray(NamedTuple):
    element_id: str

    kind = "Stray"


def test_kernel_rejects_unknown_op():
    with pytest.raises(PropagationError, match="unknown sequence element kind _Stray"):
        kernel.run_sequence([(UserStart("s", "s"), _Stray("x"))], _no_ops)


def test_propagate_rejects_unknown_element_kind(model_data):
    # the stray element has no instance id, so this also checks that the
    # kernel sees it before anything reads the element's node
    model = model_from_data(model_data)
    scenario_id = model.scenarios[0].id
    sequence = ActionSequence(scenario_id, [(UserStart(scenario_id, scenario_id), _Stray("x"))])
    with pytest.raises(PropagationError, match="unknown sequence element kind _Stray"):
        propagate(model, sequence)


def test_kernel_rejects_missing_call_binding():
    # a call binding parameter p to a variable that was never defined
    elements = (UserStart("s", "s"), CallingUserNode("c", "s", "i", "sig", (("p", "ghost"),)))
    with pytest.raises(PropagationError,
                       match="call binds parameter 'p' to missing variable 'ghost'"):
        kernel.run_sequence([elements], _no_ops)


def test_kernel_rejects_a_body_after_no_call():
    parts = [(UserStart("s", "s"),), (SeffVariableNode("a", "i", ()),), ()]
    with pytest.raises(PropagationError, match="a shared body must follow a calling bracket"):
        kernel.run_sequence(parts, _no_ops)
