"""JSON loading, file references, serialization, and round trips."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import minimal_model_data
from flowcheck.errors import ModelLoadError
from flowcheck.loader import (
    load_model,
    load_model_text,
    model_from_data,
    model_to_json,
    save_model,
    serialize_model,
)


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


def test_defects_are_collected_not_first_only(model_data):
    # two independent faults in the same phase both get reported
    model_data["components"][0]["labels"] = ["Shape.Round"]
    model_data["deployment"]["containers"][0]["labels"] = ["Size.Big"]
    msgs = defects_of(model_data)
    assert any("Shape.Round" in d for d in msgs)
    assert any("Size.Big" in d for d in msgs)


@pytest.mark.parametrize("value", [5, None, "svc"])
@pytest.mark.parametrize("path, where", [
    (("components", 0, "signatures"), "component 'comp.a'"),
    (("assembly", "instances"), "assembly"),
    (("assembly", "connectors"), "assembly"),
    (("deployment", "containers"), "deployment"),
], ids=["signatures", "instances", "connectors", "containers"])
def test_non_list_member_is_one_defect(model_data, path, where, value):
    node = model_data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    assert defects_of(model_data) == [f"{where}: '{path[-1]}' must be a list"]


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
    try:
        model_from_data(data["doc"])
    except ModelLoadError:
        pass


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
