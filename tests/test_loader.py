"""JSON loading, file references, serialization, and round trips."""

import copy
import json
from codecs import BOM_UTF8
import pickle
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import call_chain_model_data, minimal_model_data
from flowcheck import cli, loader, terms
from flowcheck.errors import ModelLoadError, TermSyntaxError
from flowcheck.extraction import find_all_sequences
from flowcheck.labels import DataDictionary, Label, LabelType
from flowcheck.loader import (
    load_model,
    load_model_text,
    model_from_data,
    model_to_json,
    read_text,
    save_model,
    serialize_model,
)
from flowcheck.model import (
    RETURN_VARIABLE,
    ArchitectureModel,
    Assignment,
    Component,
    Seff,
    Signature,
    assignment_from_text,
    clear_parse_cache,
)
from flowcheck.propagation import DataFlowVariable, evaluate_all


def defects_of(data):
    with pytest.raises(ModelLoadError) as info:
        model_from_data(data)
    return list(info.value.defects)


def test_load_online_shop(shop_path):
    model = load_model(shop_path)
    assert {c.id for c in model.components} == {"shop", "db"}
    assert model.dictionary.has_label("ServerLocation", "nonEU")
    assert [s.id for s in model.scenarios] == ["purchase"]


def test_dictionary_file_reference_resolves(shop_path, models_dir, tmp_path):
    # the shop model names dictionary.json by reference
    raw = json.loads(shop_path.read_text())
    assert raw["dictionary"] == "dictionary.json"
    model = load_model(shop_path)
    standalone = json.loads((models_dir / "dictionary.json").read_text())
    names = [t["name"] for t in standalone["labelTypes"]]
    assert [t.name for t in model.dictionary.label_types] == names


def test_file_reference_without_base_dir(shop_path):
    text = shop_path.read_text()
    with pytest.raises(ModelLoadError) as info:
        load_model_text(text)  # no base_dir, so "dictionary.json" cannot resolve
    assert any("needs a base directory" in d for d in info.value.defects)


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelLoadError) as info:
        load_model(path)
    assert any("malformed JSON" in d for d in info.value.defects)


DEEP = "[" * 100_000  # past the recursion limit of json's decoder


def test_deeply_nested_document_is_malformed_json():
    with pytest.raises(ModelLoadError) as info:
        load_model_text(DEEP, source="deep.json")
    assert len(info.value.defects) == 1
    assert info.value.defects[0].startswith("deep.json: malformed JSON: ")


def test_deeply_nested_member_file_is_malformed_json(tmp_path):
    (tmp_path / "dictionary.json").write_text(DEEP)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dictionary": "dictionary.json"}))
    with pytest.raises(ModelLoadError) as info:
        load_model(path)
    assert len(info.value.defects) == 1
    assert info.value.defects[0].startswith(
        f"member 'dictionary': malformed JSON in '{tmp_path / 'dictionary.json'}': "
    )


def test_oversized_integer_literal_is_malformed_json():
    # int() refuses more than 4 300 digits with a plain ValueError
    with pytest.raises(ModelLoadError) as info:
        load_model_text('{"components": ' + "1" * 5000 + "}")
    assert info.value.defects[0].startswith("<text>: malformed JSON: ")


def test_undecodable_model_file_cannot_be_read(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ModelLoadError) as info:
        load_model(path)
    assert info.value.defects[0].startswith(f"cannot read model file '{path}': ")


def test_missing_file():
    with pytest.raises(ModelLoadError) as info:
        load_model("/no/such/model.json")
    assert any(d.startswith("cannot read model file '/no/such/model.json'")
               for d in info.value.defects)


def test_missing_key_reported_with_context(model_data):
    del model_data["components"][0]["id"]
    assert any("missing 'id'" in d for d in defects_of(model_data))


def test_empty_string_field(model_data):
    model_data["components"][0]["id"] = ""
    assert any("'id' must be a non-empty string" in d for d in defects_of(model_data))


def test_bad_label_entry(model_data):
    model_data["components"][0]["labels"] = ["ColorRed"]
    assert any("label 'ColorRed' must be a 'Type.Value' string" in d
               for d in defects_of(model_data))


def test_label_not_in_dictionary(model_data):
    model_data["components"][0]["labels"] = ["Shape.Round"]
    assert any("label 'Shape.Round' is not in the dictionary" in d
               for d in defects_of(model_data))


def test_return_only_in_seffs(model_data):
    model_data["usageScenarios"][0]["actions"].append(
        {"type": "return", "id": "u9", "assignments": []})
    assert any("'return' actions are only allowed inside seffs" in d
               for d in defects_of(model_data))


def test_unsupported_action_type(model_data):
    model_data["components"][0]["seffs"]["svc"].insert(
        0, {"type": "loop", "id": "s9"})
    assert any("unsupported action type 'loop'" in d for d in defects_of(model_data))


@pytest.mark.parametrize("path, defects", [
    (("components", 0, "labels"),
     ["component 'comp.a': 'labels' must be a list of 'Type.Value' strings"]),
    (("deployment", "containers", 0, "labels"),
     ["container 'host': 'labels' must be a list of 'Type.Value' strings"]),
    (("usageScenarios", 0, "userLabels"),
     ["scenario 'scn': 'userLabels' must be a list of 'Type.Value' strings"]),
    (("dictionary", "labelTypes", 1, "values"),
     ["dictionary label type: missing 'name'",
      "dictionary label type: 'values' must be a list of strings"]),
], ids=["component", "container", "scenario", "nameless-type"])
def test_non_list_labels_name_their_owner_and_key(model_data, path, defects):
    if path[0] == "dictionary":
        model_data["dictionary"]["labelTypes"].append({})  # a type with no name
    node = model_data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = 5
    assert defects_of(model_data) == defects


def test_unchecked_action_lists_report_no_action_defect(model_data):
    # the seff of a signature that the component does not provide, and a
    # second scenario of one id, are one defect each; their actions would
    # break Return placement, unique ids, scope and the reserved RETURN
    model_data["components"][0]["seffs"]["other"] = [
        {"type": "return", "id": "r", "assignments": []},
        {"type": "variable", "id": "r", "assignments": ["RETURN.Color.Red := TRUE"]}]
    calls = [{"type": "call", "id": "c", "instance": "inst.a", "signature": "svc",
              "bindings": {"p": "nowhere"}, "result": "RETURN"},
             {"type": "call", "id": "c", "instance": "inst.a", "signature": "svc",
              "bindings": {"p": "v"}}]
    model_data["usageScenarios"].append({**model_data["usageScenarios"][0], "actions": calls})
    assert defects_of(model_data) == [
        "component 'comp.a', seff 'other': component does not provide this signature",
        "duplicate usage scenario id 'scn'",
    ]


def test_defects_are_collected_not_first_only(model_data):
    # two independent faults in the same phase both get reported
    model_data["components"][0]["labels"] = ["Shape.Round"]
    model_data["deployment"]["containers"][0]["labels"] = ["Size.Big"]
    msgs = defects_of(model_data)
    assert any("Shape.Round" in d for d in msgs)
    assert any("Size.Big" in d for d in msgs)


def test_assignment_defect_lines_are_bounded(model_data):
    # each distinct fault once per assignment, and a long text quoted by
    # its first 200 characters
    chain = "out.Color.Blue := " + " | ".join(["p.Shape.X"] * 2_000)
    where = "component 'comp.a', seff 'svc', action 's0': assignment"
    model_data["components"][0]["seffs"]["svc"][0]["assignments"] = [chain]
    assert defects_of(model_data) == [f"{where} '{chain[:200]}...': unknown label type 'Shape'"]
    model_data["components"][0]["seffs"]["svc"][0]["assignments"] = [chain + " &"]
    assert defects_of(model_data) == [
        f"{where} '{chain[:200]}...': column {len(chain) + 3}: expected a term"]


@pytest.mark.parametrize("value", [5, None, "svc"])
@pytest.mark.parametrize("path, defect", [
    (("components", 0, "signatures"), "component 'comp.a': 'signatures' must be a list"),
    (("assembly", "instances"), "assembly: 'instances' must be a list"),
    (("assembly", "connectors"), "assembly: 'connectors' must be a list"),
    (("deployment", "containers"), "deployment: 'containers' must be a list"),
    (("components", 0, "seffs", "svc"), "component 'comp.a': seff 'svc' must be a list of actions"),
], ids=["signatures", "instances", "connectors", "containers", "seff"])
def test_non_list_member_is_one_defect(model_data, path, defect, value):
    node = model_data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    assert defects_of(model_data) == [defect]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(_paths(minimal_model_data()))), _json_values),
                min_size=1, max_size=3))
def test_mutated_document_loads_or_raises_model_load_error(edits):
    try:
        model_from_data(_mutated(edits))
    except ModelLoadError:
        pass


def _mutated(edits):
    data = {"doc": minimal_model_data()}
    for path, value in edits:
        path = ("doc",) + path
        node = data
        try:
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit replaced this part of the document
    return data["doc"]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(_paths(minimal_model_data()))), _json_values),
                min_size=1, max_size=3))
def test_mutated_document_that_loads_can_be_analysed(edits):
    """Whatever the loader accepts, extraction and propagation process."""
    try:
        model = model_from_data(_mutated(edits))
    except ModelLoadError:
        return
    evaluate_all(model, find_all_sequences(model))


def test_model_load_error_str(model_data):
    model_data["deployment"]["allocations"]["inst.a"] = "nowhere"
    with pytest.raises(ModelLoadError) as info:
        model_from_data(model_data)
    text = str(info.value)
    assert text.startswith("1 defect(s):")
    assert "unknown container 'nowhere'" in text


def test_round_trip_text_stable(model_data):
    model = model_from_data(model_data)
    text = model_to_json(model, indent=2)
    again = model_to_json(load_model_text(text), indent=2)
    assert text == again


def test_round_trip_online_shop(shop_path):
    model = load_model(shop_path)
    text = model_to_json(model)
    again = model_to_json(load_model_text(text))
    assert text == again


def test_serialize_model_is_plain_data(model_data):
    model = model_from_data(model_data)
    data = serialize_model(model)
    # must survive a JSON round trip unchanged
    assert json.loads(json.dumps(data)) == data
    assert model_from_data(data).dictionary == model.dictionary


def test_save_model_writes_trailing_newline(model_data, tmp_path):
    model = model_from_data(model_data)
    path = tmp_path / "out.json"
    save_model(model, path)
    text = path.read_text()
    assert text.endswith("\n")
    reloaded = load_model(path)
    assert [c.id for c in reloaded.components] == ["comp.a"]


# Assignments are parsed once per shape.  Loading with shapes, or with
# every text read by the full parser, gives the same defect lines in the
# same order, or the same assignments field by field.
def _loaded(data):
    assignment_from_text.cache_clear()  # parse every text afresh
    try:
        model = model_from_data(data)
    except ModelLoadError as exc:
        return exc.defects
    actions = [a for c in model.components for seff in c.seffs for a in seff.actions]
    actions += [a for scenario in model.scenarios for a in scenario.actions]
    return [
        (a.target_var, a.target_type, a.target_value, a.rhs, a.text, a.refs)
        for action in actions
        for a in getattr(action, "assignments", ()) + getattr(action, "result_assignments", ())
    ]


def _loaded_without_shapes(data):
    parse = terms.parse_shape.__wrapped__  # the recursive-descent parser, uncached

    def read_whole_text(text, names=None):
        target, rhs = parse(text)
        return target, rhs, tuple(terms.iter_refs(rhs))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(terms, "read_assignment", read_whole_text)
        return _loaded(data)


SHAPE_REFS = ["p.Color.Red", "out.Color.Blue", "p.Color.*", "p.*.*", "p.Shape.X",
              "p.Color.Green", "RETURN.Color.Red", "RETURN.*.*", "q.TRUE.Red", "q.*.Red"]
SHAPES = ["{} := {}", "{} := !{} & TRUE", "{} := ({} | FALSE) & {}", "{} := {} |", "{}:={}.W"]


def shared_shape_model_data(refs, shapes, scenario_texts=True):
    """Every shape over every pair of ``refs``: a few shapes, many texts."""
    texts = [shape.format(target, *[source] * shape.count("{}"))
             for shape in shapes for target in refs for source in refs]
    data = minimal_model_data()
    seff = data["components"][0]["seffs"]["svc"]
    seff[:1] = [{"type": "variable", "id": f"s{k}", "assignments": texts[k:k + 2]}
                for k in range(0, len(texts), 2)]
    seff[-1]["assignments"] += [text for text in texts if text.startswith("RETURN")]
    if scenario_texts:
        data["usageScenarios"][0]["actions"][0]["assignments"] += texts[::3]
    return data


def with_other_callee(data, called):
    """``data`` with a clean second component; the scenario calls it if
    ``called``, and then nothing reaches the first one."""
    data["components"].append({
        "id": "comp.z", "name": "Zeta", "labels": [],
        "signatures": [{"id": "svc.z", "name": "serve", "parameters": ["p"]}],
        "seffs": {"svc.z": [{"type": "return", "id": "z0",
                             "assignments": ["RETURN.Color.Blue := p.Color.Red"]}]}})
    data["assembly"]["instances"].append({"id": "inst.z", "component": "comp.z"})
    data["deployment"]["allocations"]["inst.z"] = "host"
    if called:
        data["usageScenarios"][0]["actions"][1].update(instance="inst.z", signature="svc.z")
    return data


@pytest.mark.parametrize("refs, shapes, reached", [
    (["p.Color.Red", "out.Color.Blue", "v.Color.Red", "w.Color.Blue"], SHAPES[:3], True),  # loads
    (SHAPE_REFS[:8], SHAPES[:3], True),  # unknown labels, arities, RETURN misused
    (SHAPE_REFS, SHAPES, True),  # reserved words, wildcard types, syntax errors
    (["p.Color.Red", "out.Color.Blue", "v.Color.Red", "w.Color.Blue"], SHAPES[:3], False),
    (SHAPE_REFS[:8], SHAPES[:3], False),
    (SHAPE_REFS, SHAPES, False),
], ids=["clean", "semantic", "structural",
        "clean-unreached", "semantic-unreached", "structural-unreached"])
def test_shared_shapes_load_as_without_shapes(refs, shapes, reached):
    data = shared_shape_model_data(refs, shapes, scenario_texts=reached)
    if not reached:  # the shapes sit in a seff that no scenario reaches
        data = with_other_callee(data, called=True)
    loaded = _loaded(data)
    assert terms.parse_shape.cache_info().currsize > 0
    assert loaded == _loaded_without_shapes(data)
    assert len(loaded) >= 40
    if not reached:  # the same lines, or records, as where a scenario reaches them
        called = with_other_callee(shared_shape_model_data(refs, shapes, False), called=False)
        assert loaded == _loaded(called)


def test_clear_parse_cache_clears_the_shapes(model_data):
    model_from_data(model_data)
    assert terms.parse_shape.cache_info().currsize > 0
    clear_parse_cache()
    assert terms.parse_shape.cache_info().currsize == 0


# A load keeps one str object per distinct name, and the model text is
# not alive while the builder runs.
def test_assignments_that_name_the_same_names_share_one_str_each(model_data):
    clear_parse_cache()
    seff = model_from_data(model_data).components[0].seffs[0]
    (a1,), (a2,) = (action.assignments for action in seff.actions)
    assert a1.text == "out.Color.Blue := p.Color.Red"
    assert a2.text == "RETURN.Color.Blue := out.Color.Blue"
    _, var, type_name, value = a2.refs[0]
    assert var is a1.target_var
    assert type_name is a1.target_type is a2.target_type is a1.refs[0][2]
    assert value is a1.target_value is a2.target_value


def test_a_load_empties_the_name_table_and_interns_nothing(model_data, monkeypatch):
    canonical = sys.intern("".join(["Col", "or"]))  # what sys.intern would return
    stored = []
    build = loader._Builder.build

    def spy(self, data):
        model = build(self, data)
        stored.append((dict(self.names), weakref.ref(self)))
        return model

    monkeypatch.setattr(loader._Builder, "build", spy)
    clear_parse_cache()
    model = model_from_data(model_data)
    names, builder = stored[0]
    assert "Color" in names and builder() is None  # the table goes with its builder
    assert model.scenarios[0].actions[0].assignments[0].target_type is not canonical
    model_data["usageScenarios"][0]["actions"][0]["assignments"] = ["w.Color.Red := TRUE",
                                                                     "w.Color.Blue := "]
    with pytest.raises(ModelLoadError):
        model_from_data(model_data)
    assert "w" in stored[1][0] and "w" not in names  # each load has its own table


def test_model_text_is_released_before_the_build(tmp_path, monkeypatch):
    path = tmp_path / "padded.json"
    path.write_text(json.dumps(minimal_model_data()) + " " * (4 << 20), encoding="utf-8")
    alive = []
    build = loader._Builder.build

    def measured(self, data):
        alive.append(tracemalloc.get_traced_memory()[0] - before)
        return build(self, data)

    monkeypatch.setattr(loader._Builder, "build", measured)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        load_model(path)
    finally:
        tracemalloc.stop()
    assert alive[0] < 1 << 20  # the 4 MiB text is gone


_assignment_paths = [path + (0,) for path in _paths(minimal_model_data())
                     if path and path[-1] == "assignments"]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(_paths(minimal_model_data()))), _json_values)
                | st.tuples(st.sampled_from(_assignment_paths),
                            st.builds("{} := {}".format, *[st.sampled_from(SHAPE_REFS)] * 2)),
                min_size=1, max_size=3))
def test_mutated_document_loads_as_without_shapes(edits):
    data = _mutated(edits)
    assert _loaded(data) == _loaded_without_shapes(data)


# Assignments that no usage scenario reaches are not parsed while loading:
# a batch check tests them, and any text it cannot pass sends the load to
# the eager walk, which words each defect.
DICTIONARY = DataDictionary([LabelType("T", ["V", "W"]), LabelType("U", ["A"])])
_VARS = ["x", "RETURN", "_a", "r", "q1", "a", "TRUEx", "FALSE_"]
_PAIRS = [["T.V", "T.W", "U.A"], ["T.*", "U.*"], ["*.*"]]  # by wildcard arity
_SPACES = ["", " ", "\u00a0", "\u2003", "\t", "\n", "\x85"]
_NOISE = ["(", ")", "!", "&", "|", ":=", "\x00", "\x1b", "TRUE", "FALSE", ".", "*", "1", "é",
          "U.W", "*.V", "TRUE.V", "T.FALSE", "Q.V", "\u3000", ".T", "x.T.V", "1r.T.V"]


@st.composite
def assignment_texts(draw):
    """Texts near the valid ones: one arity, then perhaps a few edits."""
    arity = draw(st.integers(0, 2))

    def ref():
        spaces = [draw(st.sampled_from(_SPACES)) for _ in range(4)]
        type_name, value = draw(st.sampled_from(_PAIRS[arity])).split(".")
        return (f"{draw(st.sampled_from(_VARS))}{spaces[0]}.{spaces[1]}{type_name}"
                f"{spaces[2]}.{spaces[3]}{value}")

    term = ref()
    for _ in range(draw(st.integers(0, 3))):
        other = draw(st.sampled_from([ref(), "TRUE", "FALSE"]))
        shape = draw(st.sampled_from(["{} & {}", "{} | {}", "!({} | {})", "({}) & !{}", "!!{}|{}"]))
        term = shape.format(term, other)
    text = draw(st.sampled_from(_SPACES)) + ref() + draw(st.sampled_from([" := ", ":="])) + term
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(_NOISE)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 3)):]
    return text


def passes(texts, return_target):
    """The loader's test of texts it does not parse."""
    return terms.check_assignments(texts, DICTIONARY.known_pairs(), RETURN_VARIABLE, return_target)


def eager_defects(text, return_target):
    clear_parse_cache()
    try:
        record = assignment_from_text(text).parse()
    except TermSyntaxError as exc:
        return [str(exc)]
    return list(loader._assignment_defects(record, DICTIONARY.known_pairs(), return_target))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(assignment_texts(), min_size=1, max_size=4, unique=True), st.booleans())
def test_batch_check_passes_only_texts_without_defects(texts, return_target):
    if passes(texts, return_target):
        assert [eager_defects(text, return_target) for text in texts] == [[]] * len(texts)


def test_batch_check_passes_clean_texts_and_fails_each_defect():
    clean = ["x.T.V := TRUE", " x \u00a0.\u2003T . W:=!(y.T.V | (z.T.W & FALSE))",
             "a.U.* := RETURN.U.*", "b.*.* := ((((c.*.*))))", "r.T.V := r.T.V & !_r1.U.A"]
    assert passes(clean, False)
    assert passes(["RETURN.T.* := x.T.*", " RETURN . *.* := TRUE"], True)
    bad = ["x.T.V := TRUE.T.V", "x.T.X := TRUE", "x.T.* := y.T.V", "RETURN.T.V := TRUE",
           "x.*.V := TRUE", "x.TRUE.V := TRUE", "1r.T.V := TRUE", "x.T.V := y.T.V\x00",
           "x.T.V := \x1by.T.V", "x.T.V := ((y.T.V)", "x.Q.V := TRUE", "x.T.V := é.T.V"]
    for text in bad:
        assert eager_defects(text, False)
        assert not passes(clean + [text], False), text
    assert not passes(["x.T.V := TRUE"], True)


def fleet_model_data(components=8, entry=5):
    """A chain of seffs whose assignments name their component; the
    scenario enters at ``entry``, so nothing reaches the ones before it."""
    data = call_chain_model_data(components, entries=(entry,))
    for k, component in enumerate(data["components"]):
        work = component["seffs"][f"c{k}.run"][0]["assignments"]
        work += [f"w{k}.T.V := x.T.V & !p.T.V", f"w{k}.T.* := p.T.*"]
    return data


def texts_of(data, component_ids):
    seffs = [actions for c in data["components"] if c["id"] in component_ids
             for actions in c["seffs"].values()]
    seffs += [s["actions"] for s in data["usageScenarios"]]
    return {text for actions in seffs for action in actions
            for text in action.get("assignments", []) + action.get("resultAssignments", [])}


def parsed_by_analyze(path, monkeypatch):
    """The texts that ``analyze`` of the model at ``path`` parses."""
    parsed = []
    read = terms.read_assignment
    monkeypatch.setattr(terms, "read_assignment",
                        lambda text, names=None: parsed.append(text) or read(text, names))
    clear_parse_cache()
    assert cli.main(["analyze", str(path)]) == 0
    return sorted(parsed)


def test_analyze_parses_exactly_the_reached_assignments(tmp_path, monkeypatch, capsys):
    data = fleet_model_data()
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    reached = texts_of(data, {"c5", "c6", "c7"})
    assert parsed_by_analyze(path, monkeypatch) == sorted(reached)
    assert len(texts_of(data, {c["id"] for c in data["components"]}) - reached) == 10


def test_a_document_split_into_member_files_parses_the_same_texts(tmp_path, monkeypatch, capsys):
    data = fleet_model_data()
    reached = texts_of(data, {"c5", "c6", "c7"})
    for name in ("components", "assembly", "usageScenarios"):
        (tmp_path / f"{name}.json").write_text(json.dumps(data[name]), encoding="utf-8")
        data[name] = f"{name}.json"
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert parsed_by_analyze(path, monkeypatch) == sorted(reached)


def test_member_defects_keep_their_place_among_the_build_defects(model_data, tmp_path):
    model_data["dictionary"]["labelTypes"].append(7)
    model_data["components"] = "missing.json"
    model_data["assembly"]["instances"].append(7)
    (tmp_path / "broken.json").write_text("{", encoding="utf-8")
    model_data["deployment"] = "broken.json"
    (tmp_path / "scenarios.json").write_text("{}", encoding="utf-8")
    model_data["usageScenarios"] = "scenarios.json"
    with pytest.raises(ModelLoadError) as info:
        model_from_data(model_data, base_dir=tmp_path)
    starts = ["dictionary: each label type must be an object",
              "member 'components': cannot read",
              "assembly: each instance must be an object",
              "member 'deployment': malformed JSON in",
              "member 'usageScenarios' must be a list"]
    defects = info.value.defects
    assert len(defects) == len(starts) and all(map(str.startswith, defects, starts)), defects


# A seff that no usage scenario reaches is checked from its raw entries
# and builds its actions on first read; the cross-reference checks read
# only its calls and whether it ends in a Return.
def record_fields(actions):
    """Each action's type and fields, an assignment as its own fields:
    assignment records compare by identity."""
    def fields(value):
        if isinstance(value, tuple) and value and isinstance(value[0], Assignment):
            return tuple((a.text, a.target_var, a.target_type, a.target_value, a.rhs, a.refs)
                         for a in value)
        return value
    return [(type(action), *map(fields, action)) for action in actions]


def test_an_unreached_seff_builds_on_first_read_as_the_eager_build():
    data = fleet_model_data()
    clear_parse_cache()
    eager = loader._Builder(None, eager=True).build(data)
    clear_parse_cache()
    model = model_from_data(data)
    for component, built in zip(model.components[:5], eager.components):
        (seff,), (expected,) = component.seffs, built.seffs
        assert type(seff) is not Seff  # not built yet
        assert (seff.calls, seff.returns) == (expected.calls, expected.returns)
        assert record_fields(seff.actions) == record_fields(expected.actions)
        assert type(seff) is Seff
        assert type(seff.actions[0].assignments[0]) is Assignment  # parsed as it was built


def test_an_unreached_seff_compares_hashes_and_copies_as_a_built_one():
    data = fleet_model_data()
    built, *unbuilt = [model_from_data(data).components[0].seffs[0] for _ in range(4)]
    assert built.actions and type(built) is Seff
    assert built == unbuilt[0] and unbuilt[1] == built and hash(unbuilt[2]) == hash(built)
    assert [type(seff) for seff in unbuilt] == [Seff] * 3
    duplicate = copy.copy(model_from_data(data).components[0].seffs[0])
    assert type(duplicate) is Seff and duplicate == built
    assert repr(model_from_data(data).components[0].seffs[0]) == repr(built)


# The records' fields, by type: none of them can be assigned or deleted.
RECORD_FIELDS = {
    Signature: ("id", "name", "parameters"),
    Component: ("id", "name", "labels", "signatures", "seffs"),
    Seff: ("signature_id", "actions", "calls", "returns"),
    ArchitectureModel: ("dictionary", "components", "assembly", "deployment", "scenarios"),
    LabelType: ("name", "values"),
    Label: ("type", "value"),
    DataFlowVariable: ("name", "labels"),
}


def fields_of(record):
    return next(names for kind, names in RECORD_FIELDS.items() if isinstance(record, kind))


def loaded_records():
    """A loaded model whose c0 seff no scenario reaches and whose c6 seff
    one does, and one record of each type in ``RECORD_FIELDS``."""
    model = model_from_data(fleet_model_data())
    unreached, reached = model.components[0], model.components[6]
    return model, [model, unreached, reached, unreached.signatures[0], unreached.seffs[0],
                   reached.seffs[0], LabelType("T", ["V", "W"]), Label("T", "V"),
                   DataFlowVariable("x", model.dictionary.set_from_mask(1))]


def test_records_copy_pickle_and_refuse_assignment_and_deletion():
    reference = model_to_json(model_from_data(fleet_model_data()))
    for index in range(9):
        model, records = loaded_records()  # fresh, so that each copy meets an unbuilt seff
        record = records[index]
        assert type(model.components[0].seffs[0]) is not Seff
        assert copy.copy(record) == record
        assert (record == object()) is False
        for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record
            if index == 0:
                assert model_to_json(clone) == reference
    for record in loaded_records()[1]:
        for name in fields_of(record):
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value


def test_a_propagated_model_copies_and_pickles_with_empty_caches(models_dir):
    model = load_model(models_dir / "online_shop_no_encrypt.json")
    propagated = evaluate_all(model, find_all_sequences(model))
    assert model.dictionary.lower_cache  # holds compiled closures
    for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert clone == model
        assert (clone.dictionary.lower_cache, clone.dictionary.keep_cache) == ({}, {})
        assert evaluate_all(clone, find_all_sequences(clone)) == propagated


def test_records_print_their_fields():
    model, records = loaded_records()
    for seff in (seff for component in model.components for seff in component.seffs):
        expected = f"Seff(signature_id={seff.signature_id!r}, actions={seff.actions!r})"
        assert repr(seff) == expected  # built by the line above
    for record in records:
        names = fields_of(record)[:2] if isinstance(record, Seff) else fields_of(record)
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
        assert repr(record) == f"{type(record).__name__}({fields})"
    assert repr(records[6]) == "LabelType(name='T', values=('V', 'W'))"
    assert repr(records[7]) == "Label(type='T', value='V')"


def test_a_changed_unreached_seff_fails_its_first_read():
    data = fleet_model_data()
    model = model_from_data(data)
    data["components"][0]["seffs"]["c0.run"][0]["assignments"].append("w.T.X := TRUE")
    with pytest.raises(ModelLoadError) as info:
        model.components[0].seffs[0].actions
    assert list(info.value.defects) == [
        "component 'c0', seff 'c0.run', action 'c0.work': assignment 'w.T.X := TRUE': "
        "unknown value 'X' for label type 'T'"]


@pytest.mark.parametrize("command", ["analyze", "validate", "sequences"])
def test_no_command_builds_an_unreached_seff(tmp_path, monkeypatch, capsys, command):
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(fleet_model_data()), encoding="utf-8")
    built = []
    actions = loader._Builder._actions

    def build_mode(self, raw, where, *rest, walk=False):  # the walk builds no records
        if not walk:
            built.append(where)
        return actions(self, raw, where, *rest, walk=walk)

    monkeypatch.setattr(loader._Builder, "_actions", build_mode)
    assert cli.main([command, str(path)]) == 0
    assert sorted(built) == ["component 'c5', seff 'c5.run'", "component 'c6', seff 'c6.run'",
                             "component 'c7', seff 'c7.run'", "scenario 'u0'"]


def test_the_builder_is_freed_before_the_cross_reference_checks(monkeypatch):
    builders, alive = [], []
    build, validate = loader._Builder.build, loader.validate_model
    monkeypatch.setattr(loader._Builder, "build",
                        lambda self, data: builders.append(weakref.ref(self)) or build(self, data))
    monkeypatch.setattr(loader, "validate_model",
                        lambda model: alive.append(builders[-1]() is not None) or validate(model))
    model_from_data(fleet_model_data())
    assert len(builders) == 1 and alive == [False]


def _checked(data, eager):
    """``_loaded(data)``, and each seff's calls and Return fact as the
    cross-reference checks read them: a seff not built yet has those its
    walk kept.  Eager, the load builds every seff as it reads it."""
    builder = loader._Builder
    with pytest.MonkeyPatch.context() as patch:
        if eager:
            patch.setattr(loader, "_Builder", lambda base_dir, eager=False: builder(base_dir, True))
        loaded = _loaded(data)
        try:
            model = model_from_data(data)
        except ModelLoadError:
            return loaded
    return loaded, [(record_fields(seff.calls), seff.returns)
                    for component in model.components for seff in component.seffs]


UNREACHED = fleet_model_data(components=4, entry=2)  # nothing reaches c0 and c1
_ENTRY_EDITS = [("id", ""), ("id", 5), ("type", "variable"), ("type", "return"),
                ("type", "call"), ("type", "loop")]
_CALL_EDITS = _ENTRY_EDITS + [
    ("bindings", {}), ("bindings", {"p": "w0"}), ("bindings", {"p": "nope"}),
    ("bindings", {"p": ["x"]}), ("bindings", {"q": "x"}), ("bindings", None), ("result", "r"),
    ("result", ""), ("result", "RETURN"), ("result", 3), ("role", ""), ("role", None),
    ("signature", "c3.run"), ("signature", 5), ("resultAssignments", [1]),
    ("resultAssignments", "x"), ("resultAssignments", ["r.T.V := x.T.V"]),
    ("resultAssignments", ["RETURN.T.V := TRUE"])]
_TEXT_EDITS = _ENTRY_EDITS + [
    ("assignments", None), ("assignments", "x.T.V"), ("assignments", [1]),
    ("assignments", ["RETURN.T.V := TRUE"]), ("assignments", ["x.T.V := y.T.X"]),
    ("assignments", ["w.T.* := x.T.V"]), ("assignments", ["x.T.V :="])]


@st.composite
def unreached_edits(draw):
    """Edits of the action lists of seffs that no scenario reaches."""
    data = copy.deepcopy(UNREACHED)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, 1))
        actions = data["components"][k]["seffs"][f"c{k}.run"]
        if not actions:
            continue
        n = draw(st.sampled_from(range(len(actions))))
        how = draw(st.sampled_from(["set", "set", "set", "delete", "insert", "move", "twin", "drop"]))
        if how == "drop":
            actions.pop(n)
        elif how == "insert":  # a non-object entry, or another Return
            entry = draw(st.sampled_from([1, "x", [], None, {"type": "return", "id": "again"}]))
            actions.insert(n, entry)
        elif how == "move":  # this entry to the end, so that the Return is not
            actions.append(actions.pop(n))
        elif isinstance(actions[n], dict):
            edits = _CALL_EDITS if actions[n].get("type") == "call" else _TEXT_EDITS
            key, value = draw(st.sampled_from(edits))
            if how == "twin":  # the id of another entry
                actions[n]["id"] = getattr(actions[n - 1], "get", {}.get)("id")
            elif how == "delete":
                actions[n].pop(key, None)
            else:
                actions[n][key] = value
    return data


def twin_and_unknown_label():
    """An unreached seff with a duplicate action id, which its walk words,
    and a text with an unknown label value, which fails the batch test, so
    that the eager build words both."""
    data = copy.deepcopy(UNREACHED)
    actions = data["components"][0]["seffs"]["c0.run"]
    actions[1]["id"] = actions[0]["id"]
    actions[0]["assignments"].append("w.T.V := p.T.X")
    return data


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(unreached_edits())
@example(twin_and_unknown_label())
def test_mutated_unreached_seffs_load_as_when_built_eagerly(data):
    assert _checked(data, eager=False) == _checked(data, eager=True)


def test_saving_a_model_with_unreached_records_writes_the_same_bytes(tmp_path):
    data = fleet_model_data()
    clear_parse_cache()
    deferred, eager = tmp_path / "deferred.json", tmp_path / "eager.json"
    save_model(model_from_data(data), deferred)
    clear_parse_cache()
    save_model(loader._Builder(None, eager=True).build(data), eager)
    assert deferred.read_bytes() == eager.read_bytes()


def _text_or_error(read, path):
    try:
        return read(path)
    except UnicodeDecodeError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def read_path(tmp_path_factory):
    return tmp_path_factory.mktemp("read") / "file"


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.booleans(), st.one_of(
    st.lists(st.sampled_from([BOM_UTF8, BOM_UTF8[:1], BOM_UTF8[:2], BOM_UTF8[1:], b"\r", b"\n",
                              b"\r\n", b"a", "é€😀".encode(), b"\xc3", b"\xe2\x82",
                              b"\xf0\x9f\x98", b"\xff", b"\xed\xa0\x80", b"\xc0\xaf"]),
             max_size=8).map(b"".join),
    st.binary(max_size=12),
))
@example(False, b"")
@example(True, b"")
@example(False, BOM_UTF8[:1])
@example(False, BOM_UTF8[:2])
@example(True, b"{}\r\n\r" + BOM_UTF8 + b"x")
@example(True, b"ok \xe2\x82")
@example(False, "a\r\nb\rc".encode())
def test_read_text_reads_as_the_utf_8_sig_codec_does(read_path, bom, data):
    # a file with or without a byte order mark, one past the start, line
    # ends of each kind, and bytes that are not UTF-8 or end inside a
    # character: the same text, or an error where the codec gives one
    raw = BOM_UTF8 * bom + data
    read_path.write_bytes(raw)
    expected = _text_or_error(lambda path: path.read_text(encoding="utf-8-sig"), read_path)
    got = _text_or_error(read_text, read_path)
    if raw and BOM_UTF8.startswith(raw) and raw != BOM_UTF8:
        # only the start of a mark: the codec waits for the rest and reads
        # nothing, where a damaged file is refused
        assert expected == "" and got[0] is UnicodeDecodeError
    elif isinstance(expected, str) or not raw.startswith(BOM_UTF8):
        assert got == expected
    else:
        # the codec counts positions from after the mark
        assert got[0] is UnicodeDecodeError
