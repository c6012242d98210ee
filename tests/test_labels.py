"""Label types, dictionaries, bit layout, and label sets."""

import re
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

import flowcheck.labels
from flowcheck.errors import DictionaryError
from flowcheck.labels import DataDictionary, Label, LabelType, is_identifier
from flowcheck.loader import load_model, model_from_data


@pytest.fixture
def dict_ab():
    return DataDictionary((
        LabelType("Enc", ("On",)),
        LabelType("Loc", ("EU", "US", "Asia")),
    ))


def test_label_str():
    assert str(Label("Loc", "EU")) == "Loc.EU"


def test_label_type_coerces_values_to_tuple():
    lt = LabelType("Enc", ["On", "Off"])
    assert lt.values == ("On", "Off")


def test_bits_follow_declaration_order(dict_ab):
    # Enc.On gets bit 0, then Loc values in order.
    assert dict_ab.bit("Enc", "On") == 0
    assert dict_ab.bit("Loc", "EU") == 1
    assert dict_ab.bit("Loc", "US") == 2
    assert dict_ab.bit("Loc", "Asia") == 3
    assert dict_ab.size == 4
    assert dict_ab.universe_mask == 0b1111


def test_type_mask_covers_only_that_type(dict_ab):
    assert dict_ab.type_mask("Loc") == 0b1110
    assert dict_ab.type_mask("Enc") == 0b0001


def test_lookup_errors(dict_ab):
    with pytest.raises(DictionaryError, match="unknown label type 'Nope'"):
        dict_ab.bit("Nope", "X")
    with pytest.raises(DictionaryError, match="unknown value 'Off' for label type 'Enc'"):
        dict_ab.bit("Enc", "Off")
    with pytest.raises(DictionaryError, match="unknown label type 'Nope'"):
        dict_ab.type_mask("Nope")


def test_known_types_and_labels(dict_ab):
    assert dict_ab.values_of("Loc") == ("EU", "US", "Asia")
    with pytest.raises(DictionaryError, match="unknown label type 'Size'"):
        dict_ab.values_of("Size")
    assert dict_ab.has_label("Loc", "US")
    assert not dict_ab.has_label("Loc", "Mars")
    assert not dict_ab.has_label("Size", "US")


def test_declared_labels_take_bits_in_order(dict_ab):
    labels = [(lt.name, value) for lt in dict_ab.label_types for value in lt.values]
    assert labels == [("Enc", "On"), ("Loc", "EU"), ("Loc", "US"), ("Loc", "Asia")]
    assert [dict_ab.bit(*label) for label in labels] == list(range(dict_ab.size))


def test_label_set_basics(dict_ab):
    s = dict_ab.set_from_mask(1 << dict_ab.bit("Loc", "EU") | 1 << dict_ab.bit("Enc", "On"))
    assert len(s) == 2
    assert list(s) == [Label("Enc", "On"), Label("Loc", "EU")]
    assert s.has("Loc", "EU")
    assert Label("Enc", "On") in s
    assert not s.has("Loc", "US")
    assert s.names() == ["Enc.On", "Loc.EU"]


def test_set_from_mask_round_trip(dict_ab):
    mask = dict_ab.type_mask("Loc")
    s = dict_ab.set_from_mask(mask)
    assert s.names() == ["Loc.Asia", "Loc.EU", "Loc.US"]


def test_dictionary_equality_is_structural():
    a = DataDictionary((LabelType("Enc", ("On",)),))
    b = DataDictionary((LabelType("Enc", ("On",)),))
    assert a == b
    assert hash(a) == hash(b)
    assert a != DataDictionary((LabelType("Enc", ("On", "Off")),))
    assert (a == a.label_types) is False  # not an error against another type
    assert (a.set_from_mask(1) == 1) is False
    # label sets are equal when their masks and their dictionaries are
    assert a.set_from_mask(1) == b.set_from_mask(1)
    assert hash(a.set_from_mask(1)) == hash(b.set_from_mask(1))
    assert a.set_from_mask(1) != b.set_from_mask(0)
    assert a.set_from_mask(1) != DataDictionary((LabelType("Enc", ("On", "Off")),)).set_from_mask(1)


def test_is_identifier():
    assert is_identifier("abc_1")
    assert not is_identifier("1abc")
    assert not is_identifier("a b")
    assert not is_identifier("")


@settings(derandomize=True, database=None)
@given(st.one_of(st.text(), st.text(alphabet="aZ_09 .\né", max_size=4), st.integers()))
def test_is_identifier_is_the_ascii_pattern(name):
    pattern = r"[A-Za-z_][A-Za-z0-9_]*"
    assert is_identifier(name) == (isinstance(name, str) and bool(re.fullmatch(pattern, name)))


def test_validate_dictionary_defects():
    assert DataDictionary(()).defects == ()
    d = DataDictionary((
        LabelType("bad name", ("X",)),
        LabelType("T", ()),
        LabelType("U", ("a", "a")),
        LabelType("U", ("b",)),
    ))
    assert d.defects == (
        "label type name 'bad name' is not a valid identifier",
        "label type 'T' declares no values",
        "label type 'U': duplicate value 'a'",
        "duplicate label type name 'U'",
    )


@pytest.mark.parametrize("types, defects", [
    # an invalid name is reported at each declaration; its values go unchecked
    ((LabelType("bad name", ("1x",)), LabelType("bad name", ("2y",))),
     ("label type name 'bad name' is not a valid identifier",
      "label type name 'bad name' is not a valid identifier")),
    # a repeated invalid value is invalid each time, never a duplicate
    ((LabelType("V", ("1x", "1x", "ok", "ok")),),
     ("label type 'V': value '1x' is not a valid identifier",
      "label type 'V': value '1x' is not a valid identifier",
      "label type 'V': duplicate value 'ok'")),
    # a repeated type's own values are not checked
    ((LabelType("W", ("a",)), LabelType("W", ("1bad", "1bad", "a", "a"))),
     ("duplicate label type name 'W'",)),
    # an invalid name with no values is only an invalid name
    ((LabelType("9t", ()),),
     ("label type name '9t' is not a valid identifier",)),
], ids=["invalid-name-twice", "invalid-value-twice", "valid-name-twice", "invalid-name-empty"])
def test_dictionary_defect_edge_cases(types, defects):
    assert DataDictionary(types).defects == defects


names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)


@given(st.lists(
    st.tuples(names, st.lists(names, min_size=1, max_size=4, unique=True)),
    min_size=1, max_size=4,
    unique_by=lambda t: t[0],
))
def test_mask_decode_round_trip(layout):
    d = DataDictionary(tuple(LabelType(n, tuple(vs)) for n, vs in layout))
    # every single-bit mask decodes to exactly the label that owns the bit
    labels = [Label(lt.name, value) for lt in d.label_types for value in lt.values]
    for label in labels:
        bit = d.bit(label.type, label.value)
        s = d.set_from_mask(1 << bit)
        assert s.names() == [str(label)]
    assert d.set_from_mask(d.universe_mask).names() == sorted(str(l) for l in labels)


def _or_bits(bits):
    return reduce(or_, (1 << bit for bit in bits), 0)


@settings(derandomize=True, database=None)
@given(st.lists(
    st.tuples(st.sampled_from(["A", "B", "C", "9x"]),
              st.lists(st.sampled_from([f"v{i}" for i in range(24)] + ["1v"]), max_size=30)),
    max_size=6,
))
@example([("A", [f"v{i}" for i in range(24)] * 2), ("9x", ["1v", "v0", "1v"]),
          ("B", [f"v{i}" for i in range(40)]), ("A", ["v0"]),
          ("C", [f"v{i}" for i in range(24)] + ["1v"])])  # C holds bits 66-90
def test_masks_equal_or_of_bits(layout):
    # repeated type names and repeated values included
    d = DataDictionary(tuple(LabelType(n, vs) for n, vs in layout))
    names = {n for n, _ in layout}
    for name in names:
        assert d.type_mask(name) == _or_bits(d.bit(name, v) for v in d.values_of(name))
    assert d.universe_mask == _or_bits(d.bit(n, v) for n in names for v in d.values_of(n))


_WIDE = {"labelTypes": [{"name": f"T{i}", "values": [f"v{j}" for j in range(30)]}
                        for i in range(5)]}  # 150 bits
_WIDE_LABELS = [f"T{i}.v{j}" for i in range(5) for j in range(30)]


@settings(derandomize=True, database=None)
@given(st.lists(st.sampled_from(_WIDE_LABELS), max_size=40))
@example(["T0.v0", "T0.v9", "T0.v9", "T2.v5", "T4.v29", "T2.v5"])  # bits 0, 9, 65, 149
def test_loader_mask_equals_or_of_bits(labels):
    model = model_from_data({
        "dictionary": _WIDE,
        "components": [{"id": "c", "labels": labels}],
    })
    d = model.dictionary
    bits = [d.bit(*label.split(".")) for label in labels]
    assert model.components[0].labels.mask == _or_bits(bits)


def test_loading_makes_no_label(shop_path, monkeypatch):
    made = []

    def counting_label(*args):
        made.append(args)
        return Label(*args)

    monkeypatch.setattr(flowcheck.labels, "Label", counting_label)
    model = load_model(shop_path)
    assert made == []
    labels = model.deployment.containers[0].labels
    assert labels
    # iterating a set makes them on demand
    assert sorted(str(label) for label in labels) == labels.names()
    assert len(made) == len(labels)
