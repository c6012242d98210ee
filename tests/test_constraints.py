"""Constraint parsing, evaluation, reporting, and the reuse query path."""

import pytest

from flowcheck.constraints import (
    Constraint,
    Violation,
    format_report,
    load_constraints,
    parse_constraint,
    parse_constraints_text,
    query,
    query_many,
)
from flowcheck.errors import ConstraintError
from flowcheck.extraction import find_all_sequences
from flowcheck.loader import load_model, model_from_data
from flowcheck.propagation import evaluate_all

from generators import long_run_model, random_constraints, random_small_model

GEO = ("VIOLATION geo WHERE node.ServerLocation.nonEU "
       "AND DATA data.DataSensitivity.Personal & !data.Encryption.Encrypted")


@pytest.fixture(scope="module")
def shop(shop_path):
    model = load_model(shop_path)
    return model, evaluate_all(model, find_all_sequences(model))


@pytest.fixture(scope="module")
def shop_plain(shop_no_encrypt_path):
    model = load_model(shop_no_encrypt_path)
    return model, evaluate_all(model, find_all_sequences(model))


def test_parse_constraint_shape(shop):
    model, _ = shop
    c = parse_constraint(GEO, model.dictionary)
    assert isinstance(c, Constraint)
    assert c.name == "geo"
    assert c.text == GEO


def test_encrypted_shop_is_clean(shop):
    model, propagated = shop
    c = parse_constraint(GEO, model.dictionary)
    assert query_many(propagated, [c]) == {"geo": []}


def test_unencrypted_shop_violates_twice(shop_plain):
    model, propagated = shop_plain
    violations = query_many(propagated, [parse_constraint(GEO, model.dictionary)])["geo"]
    assert [(v.element_index, v.element_id) for v in violations] == [
        (4, "act.db.log"),
        (5, "act.db.ret"),
    ]
    v = violations[0]
    assert isinstance(v, Violation)
    assert isinstance(v, tuple)
    assert v.constraint_name == "geo"
    assert v.sequence_index == 0
    assert v.variable_names == ("payload", "stored")


def test_format_report_frozen(shop_plain):
    model, propagated = shop_plain
    buckets = query_many(propagated, [parse_constraint(GEO, model.dictionary)])
    assert format_report(buckets).splitlines() == [
        "CONSTRAINT geo SEQ 0 ELEM 4 NODE act.db.log VARS payload,stored",
        "CONSTRAINT geo SEQ 0 ELEM 5 NODE act.db.ret VARS payload,stored",
        "TOTAL 2 violations",
    ]


def test_format_report_empty(shop):
    model, propagated = shop
    buckets = query_many(propagated, [parse_constraint(GEO, model.dictionary)])
    assert format_report(buckets).splitlines() == ["TOTAL 0 violations"]


def test_format_report_order_parameter(shop_plain):
    model, propagated = shop_plain
    c1 = parse_constraint("VIOLATION all WHERE TRUE AND DATA TRUE", model.dictionary)
    c2 = parse_constraint(GEO, model.dictionary)
    buckets = query_many(propagated, [c1, c2])
    lines = format_report(buckets, order=["geo", "all"]).splitlines()
    assert lines[0].startswith("CONSTRAINT geo")
    assert lines[2].startswith("CONSTRAINT all")


def test_query_single_sequence(shop_plain):
    model, propagated = shop_plain
    violations = query(propagated[0], parse_constraint(GEO, model.dictionary))
    assert len(violations) == 2
    assert all(v.sequence_index == 0 for v in violations)
    tagged = query(propagated[0], parse_constraint(GEO, model.dictionary),
                   sequence_index=7)
    assert all(v.sequence_index == 7 for v in tagged)


def test_data_true_matches_every_element(shop):
    model, propagated = shop
    c = parse_constraint("VIOLATION all WHERE TRUE AND DATA TRUE", model.dictionary)
    violations = query_many(propagated, [c])["all"]
    assert len(violations) == sum(len(p) for p in propagated)
    # the start element has no variables in scope, yet still matches
    assert violations[0].variable_names == ()


def test_data_term_with_refs_stays_existential_when_it_folds(shop):
    # "data.X.Y | TRUE" folds to a constant, but it references data, so it
    # still asks for a variable: it reports every variable in scope and
    # skips elements without any, where "DATA TRUE" matches with VARS -
    model, propagated = shop
    folded = parse_constraint(
        "VIOLATION any WHERE TRUE AND DATA data.DataSensitivity.Personal | TRUE",
        model.dictionary)
    plain = parse_constraint("VIOLATION all WHERE TRUE AND DATA TRUE", model.dictionary)
    out = query_many(propagated, [folded, plain])
    elements = [(seq, index, tuple(result.variable_names()))
                for seq, p in enumerate(propagated)
                for index, result in enumerate(p.results)]
    assert any(not names for _, _, names in elements)
    assert [(v.sequence_index, v.element_index, v.variable_names) for v in out["any"]] == [
        element for element in elements if element[2]]
    assert [(v.sequence_index, v.element_index, v.variable_names) for v in out["all"]] == [
        (seq, index, ()) for seq, index, _ in elements]
    assert out == per_element(propagated, [folded, plain])
    for p in propagated:
        for result in p.results:
            hit, _ = matches(folded, result)
            assert hit == bool(result.variable_names())


def test_violations_ordered_by_sequence_then_element(shop_plain):
    model, propagated = shop_plain
    c = parse_constraint("VIOLATION all WHERE TRUE AND DATA TRUE", model.dictionary)
    out = query_many(propagated, [c])["all"]
    keys = [(v.sequence_index, v.element_index) for v in out]
    assert keys == sorted(keys)


@pytest.mark.parametrize("text,message", [
    ("VIOLATION c WHERE x.T.V AND DATA TRUE",
     "constraint 'c': the node term must reference 'node', found 'x'"),
    ("VIOLATION c WHERE TRUE AND DATA node.ServerLocation.EU",
     "constraint 'c': the data term must reference 'data', found 'node'"),
    ("VIOLATION c WHERE TRUE AND DATA data.*.*",
     "constraint 'c': wildcards are not allowed in constraints"),
    ("VIOLATION c WHERE node.Mood.Happy AND DATA TRUE",
     "constraint 'c': unknown label type 'Mood'"),
    # constant folding removes these references, yet each is still checked
    ("VIOLATION c WHERE FALSE & node.Bogus.X AND DATA TRUE",
     "constraint 'c': unknown label type 'Bogus'"),
    ("VIOLATION c WHERE TRUE AND DATA TRUE | data.*.*",
     "constraint 'c': wildcards are not allowed in constraints"),
    ("VIOLATION c WHERE TRUE AND DATA FALSE & node.A.B",
     "constraint 'c': the data term must reference 'data', found 'node'"),
])
def test_parse_constraint_rejections(shop, text, message):
    model, _ = shop
    with pytest.raises(ConstraintError) as info:
        parse_constraint(text, model.dictionary)
    assert message in str(info.value)


def test_duplicate_constraint_names_rejected(shop):
    model, propagated = shop
    pair = [parse_constraint("VIOLATION a WHERE TRUE AND DATA TRUE", model.dictionary),
            parse_constraint("VIOLATION a WHERE FALSE AND DATA TRUE", model.dictionary)]
    with pytest.raises(ConstraintError, match="duplicate constraint names"):
        query_many(propagated, pair)


def test_parse_constraints_text(shop):
    model, _ = shop
    text = "\n".join([
        "# leading comment",
        "",
        "VIOLATION one WHERE TRUE AND DATA TRUE",
        "# interleaved comment",
        "VIOLATION two WHERE FALSE AND DATA TRUE",
    ])
    names = [c.name for c in parse_constraints_text(text, model.dictionary)]
    assert names == ["one", "two"]


def test_parse_constraints_text_line_numbers(shop):
    model, _ = shop
    with pytest.raises(ConstraintError, match="<text>, line 2:"):
        parse_constraints_text(
            "VIOLATION ok WHERE TRUE AND DATA TRUE\nVIOLATION broken",
            model.dictionary)


def test_parse_constraints_text_duplicate_names(shop):
    model, _ = shop
    text = ("VIOLATION a WHERE TRUE AND DATA TRUE\n"
            "VIOLATION a WHERE TRUE AND DATA TRUE\n")
    with pytest.raises(ConstraintError, match="duplicate constraint name 'a'"):
        parse_constraints_text(text, model.dictionary)


def test_load_constraints_file(shop, geo_constraints_path):
    model, propagated = shop
    constraints = load_constraints(geo_constraints_path, model.dictionary)
    assert [c.name for c in constraints] == ["geo"]
    assert query_many(propagated, constraints)["geo"] == []


def test_load_constraints_missing_file(shop):
    model, _ = shop
    with pytest.raises(ConstraintError, match="cannot read constraints file"):
        load_constraints("/no/such/file.constraints", model.dictionary)


def test_load_constraints_undecodable_file(shop, tmp_path):
    model, _ = shop
    path = tmp_path / "binary.constraints"
    path.write_bytes(b"\xff")
    with pytest.raises(ConstraintError, match="cannot read constraints file"):
        load_constraints(path, model.dictionary)


def test_matches_single_result(shop_plain):
    model, propagated = shop_plain
    c = parse_constraint(GEO, model.dictionary)
    outcomes = [matches(c, r) for r in propagated[0].results]
    assert [hit for hit, _ in outcomes] == [
        False, False, False, False, True, True, False, False]
    assert outcomes[4] == (True, ("payload", "stored"))
    assert outcomes[0] == (False, ())


# ---------------------------------------------------------------------------
# the incremental scan: query_many re-tests only the variables each element
# changes, and must agree with a reference that matches each element's
# whole frame

RED = "VIOLATION red WHERE TRUE AND DATA data.Color.Red"


def matches(constraint, result):
    """(matched, names of the satisfying variables) at one element result;
    the names stay empty for a data term without references."""
    if not constraint.node_test(result.node_labels.mask):
        return False, ()
    if not constraint.data_has_refs:
        return constraint.data_test(0), ()
    names = tuple(v.name for v in result.variables if constraint.data_test(v.labels.mask))
    return bool(names), names


def per_element(propagated_sequences, constraints):
    return {
        c.name: [
            Violation(c.name, seq, index, result.element.element_id, names)
            for seq, propagated in enumerate(propagated_sequences)
            for index, result in enumerate(propagated.results)
            for hit, names in [matches(c, result)]
            if hit
        ]
        for c in constraints
    }


def scan(data, text=RED):
    """(element index, variable names) of each violation, checked against
    the per-element matcher."""
    model = model_from_data(data)
    propagated = evaluate_all(model, find_all_sequences(model))
    constraint = parse_constraint(text, model.dictionary)
    got = query_many(propagated, [constraint])
    assert got == per_element(propagated, [constraint])
    return [(v.element_index, v.variable_names) for v in got[constraint.name]]


def set_seff(data, body, ret):
    """Replace the assignments of the callee's one variable action and its Return."""
    seff = data["components"][0]["seffs"]["svc"]
    seff[0]["assignments"] = body
    seff[1]["assignments"] = ret


def test_scan_caller_variable_survives_callee_overwrite(model_data):
    # elements: 0 start, 1 u0, 2 call, 3 s0, 4 s1 (return), 5 back in the caller
    set_seff(model_data, ["p.Color.Red := FALSE"], ["RETURN.Color.Red := p.Color.Red"])
    assert scan(model_data) == [(1, ("v",)), (2, ("p",)), (5, ("v",))]


def test_scan_result_variable_and_result_assignments_flip_on_return(model_data):
    set_seff(model_data, ["p.Color.Blue := TRUE"], ["RETURN.Color.Red := p.Color.Red"])
    call = model_data["usageScenarios"][0]["actions"][1]
    assert scan(model_data) == [
        (1, ("v",)), (2, ("p",)), (3, ("p",)), (4, ("RETURN", "p")), (5, ("got", "v"))]
    # a result assignment turns the caller's variable off in the same element
    call["resultAssignments"] = ["v.Color.Red := FALSE"]
    assert scan(model_data)[-1] == (5, ("got",))
    # the result variable satisfied the term before the call and no longer does
    model_data["usageScenarios"][0]["actions"][0]["assignments"].append(
        "got.Color.Red := TRUE")
    set_seff(model_data, ["p.Color.Blue := TRUE"], ["RETURN.Color.Red := FALSE"])
    call["resultAssignments"] = ["w.Color.Red := got.Color.Blue"]
    assert scan(model_data) == [
        (1, ("got", "v")), (2, ("p",)), (3, ("p",)), (4, ("p",)), (5, ("v",))]
    # ... while a result assignment turns a new variable on
    call["resultAssignments"] = ["w.Color.Red := !got.Color.Red"]
    assert scan(model_data)[-1] == (5, ("v", "w"))


def test_scan_type_wildcard_target(model_data):
    actions = model_data["usageScenarios"][0]["actions"]
    del actions[1]  # no call: elements are 0 start, then one per action
    actions += [
        {"type": "variable", "id": "u1", "assignments": ["w.Color.* := v.Color.*"]},
        {"type": "variable", "id": "u2", "assignments": ["v.Color.* := FALSE"]},
        {"type": "variable", "id": "u3", "assignments": ["v.Color.* := TRUE"]},
    ]
    assert scan(model_data) == [
        (1, ("v",)), (2, ("v", "w")), (3, ("w",)), (4, ("v", "w"))]
    blue = "VIOLATION blue WHERE TRUE AND DATA data.Color.Blue"
    assert scan(model_data, blue) == [(4, ("v",))]


def test_scan_two_assignments_to_one_target(model_data):
    actions = model_data["usageScenarios"][0]["actions"]
    actions[:] = [
        {"type": "variable", "id": "u0",
         "assignments": ["v.Color.Red := TRUE", "v.Color.Red := FALSE"]},
        {"type": "variable", "id": "u1",
         "assignments": ["w.Color.Red := FALSE", "w.Color.Red := TRUE"]},
        {"type": "variable", "id": "u2",
         "assignments": ["w.Color.Red := FALSE", "v.Color.Red := TRUE",
                         "w.Color.Red := v.Color.Blue | TRUE"]},
        {"type": "variable", "id": "u3",
         "assignments": ["w.Color.Red := TRUE", "w.Color.Red := FALSE"]},
    ]
    assert scan(model_data) == [(2, ("w",)), (3, ("v", "w")), (4, ("v",))]


def test_scan_equals_per_element_matches_on_random_models():
    for seed in range(200):
        model = random_small_model(seed)
        propagated = evaluate_all(model, find_all_sequences(model))
        constraints = [
            parse_constraint(text, model.dictionary)
            for text in random_constraints(model, seed)
        ]
        assert query_many(propagated, constraints) == per_element(propagated, constraints), seed


def test_scan_equals_per_element_matches_on_long_runs():
    """The walk visits only the change positions; on models whose runs of
    unchanged elements hold a node change, an empty pushed frame and a
    body context reused at several offsets, it matches every element."""
    for seed in range(120):
        model, texts = long_run_model(seed)
        propagated = evaluate_all(model, find_all_sequences(model))
        constraints = [parse_constraint(text, model.dictionary) for text in texts]
        assert query_many(propagated, constraints) == per_element(propagated, constraints), seed


def test_scan_tests_each_distinct_mask_once(model_data):
    params = [f"p{i}" for i in range(300)]
    component = model_data["components"][0]
    component["signatures"][0]["parameters"] = params
    component["seffs"]["svc"] = [
        {"type": "variable", "id": f"s{k}",
         "assignments": [f"p{k}.Color.Red := p{k + 1}.Color.Blue"]}
        for k in range(20)
    ] + [{"type": "return", "id": "ret", "assignments": ["RETURN.Color.Red := TRUE"]}]
    user = []
    for i in range(300):
        user.append(f"v{i}.Color.Red := {'TRUE' if i % 3 == 0 else 'FALSE'}")
        user.append(f"v{i}.Color.Blue := {'TRUE' if i % 2 == 0 else 'FALSE'}")
    actions = model_data["usageScenarios"][0]["actions"]
    actions[0]["assignments"] = user
    actions[1]["bindings"] = {p: f"v{i}" for i, p in enumerate(params)}

    model = model_from_data(model_data)
    propagated = evaluate_all(model, find_all_sequences(model))
    text = ("VIOLATION mixed WHERE node.Color.Red | node.Color.Blue "
            "AND DATA data.Color.Red & !data.Color.Blue")
    expected = per_element(propagated, [parse_constraint(text, model.dictionary)])

    parsed = parse_constraint(text, model.dictionary)
    tested = {"node": [], "data": []}
    constraint = parsed._replace(
        node_test=lambda mask: tested["node"].append(mask) or parsed.node_test(mask),
        data_test=lambda mask: tested["data"].append(mask) or parsed.data_test(mask))
    assert query_many(propagated, [constraint]) == expected
    assert len(expected["mixed"]) == len(propagated[0]) - 1  # all but the start

    frames = propagated[0].frames
    assert max(len(frame) for frame in frames) >= 300
    distinct = {mask for frame in frames for mask in frame.values()}
    assert sorted(tested["data"]) == sorted(distinct)
    assert sorted(tested["node"]) == sorted(set(propagated[0].node_masks))
