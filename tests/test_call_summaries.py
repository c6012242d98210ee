"""Call summaries: shared bodies, memoised call contexts and their spans.

Extraction builds each callee body once and splices it into every
sequence that calls it; propagation walks each distinct (body, bound
frame) context once per analysis, and the query matches each context
once per constraint.  Every public view must stay what a fresh walk of
the whole sequence gives, which the oracle decides.
"""

import random

import pytest

from flowcheck.constraints import parse_constraint, query_many
from flowcheck.errors import CallDepthError
from flowcheck.extraction import ActionSequence, CallingUserNode, find_all_sequences
from flowcheck.loader import load_model, model_from_data
from flowcheck.oracle import oracle_propagate, oracle_query, random_constraints
from flowcheck.propagation import evaluate_all, propagate


# ---------------------------------------------------------------------------
# models whose scenarios share call contexts


def _term(rng, scope, arity, types, pairs, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        if rng.random() < 0.15:
            return rng.choice(("TRUE", "FALSE"))
        var = rng.choice(scope + ["ghost"])  # absent variables read as FALSE
        if arity == 2:
            return f"{var}.*.*"
        if arity == 1:
            return f"{var}.{rng.choice(types)}.*"
        return "{}.{}.{}".format(var, *rng.choice(pairs))
    if roll < 0.65:
        return f"!({_term(rng, scope, arity, types, pairs, depth + 1)})"
    left = _term(rng, scope, arity, types, pairs, depth + 1)
    right = _term(rng, scope, arity, types, pairs, depth + 1)
    return f"({left}) {rng.choice('&|')} ({right})"


def _assignment(rng, target, scope, types, pairs):
    arity = rng.choice((0, 0, 0, 1, 2))
    if arity == 0:
        head = "{}.{}.{}".format(target, *rng.choice(pairs))
    elif arity == 1:
        head = f"{target}.{rng.choice(types)}.*"
    else:
        head = f"{target}.*.*"
    return f"{head} := {_term(rng, scope, arity, types, pairs)}"


def reused_context_model_data(seed: int) -> dict:
    """Several scenarios call into one nested chain ``c0 -> c1 [-> c2]``,
    most of them at ``c0``.

    User data comes from two label profiles, so bound labels repeat
    across scenarios and differ between them; scenario 1 repeats
    scenario 0's actions, so every model reuses at least one context.
    Calls carry results and ``resultAssignments`` at random, and a
    callee may call the next level twice.
    """
    rng = random.Random(seed)
    types = [f"T{i}" for i in range(rng.randint(1, 3))]
    pairs = [(t, f"V{i}") for t in types for i in range(rng.randint(1, 2))]
    values = {}
    for t, v in pairs:
        values.setdefault(t, []).append(v)
    levels = rng.randint(2, 3)
    arity = [rng.randint(1, 2) for _ in range(levels)]

    def call(rng, action_id, level, scope, extra):
        bound = {f"p{i}": rng.choice(scope) for i in range(arity[level])}
        action = {"type": "call", "id": action_id, "signature": f"c{level}.run",
                  "bindings": bound, **extra}
        if rng.random() < 0.7:
            action["result"] = f"r{level}"
            if f"r{level}" not in scope:
                scope.append(f"r{level}")
        if rng.random() < 0.5:
            target = rng.choice(scope)
            action["resultAssignments"] = [_assignment(rng, target, scope, types, pairs)]
        return action

    components, connectors = [], []
    for level in range(levels):
        scope = [f"p{i}" for i in range(arity[level])]
        actions = []
        for n in range(rng.randint(0, 2)):
            target = rng.choice(scope + [f"l{level}"])
            actions.append({"type": "variable", "id": f"c{level}.a{n}",
                            "assignments": [_assignment(rng, target, scope, types, pairs)]})
            if target not in scope:
                scope.append(target)
        if level + 1 < levels:
            for n in range(1 if rng.random() < 0.6 else 2):
                actions.append(call(rng, f"c{level}.call{n}", level + 1, scope, {"role": "next"}))
            connectors.append({"instance": f"i{level}", "role": "next", "target": f"i{level + 1}"})
        actions.append({"type": "return", "id": f"c{level}.ret", "assignments": [
            _assignment(rng, "RETURN", scope, types, pairs) for _ in range(rng.randint(0, 2))
        ]})
        components.append({
            "id": f"c{level}", "name": f"C{level}",
            "labels": sorted({"{}.{}".format(*rng.choice(pairs)) for _ in range(rng.randint(0, 2))}),
            "signatures": [{"id": f"c{level}.run", "parameters": [f"p{i}" for i in range(arity[level])]}],
            "seffs": {f"c{level}.run": actions},
        })

    profiles = [
        [f"{t}.{v} := {rng.choice(('TRUE', 'FALSE'))}" for t, v in pairs if rng.random() < 0.6]
        or ["{}.{} := TRUE".format(*pairs[0])]
        for _ in range(2)
    ]
    scenarios = []
    for n in range(rng.randint(3, 5)):
        draw = random.Random(f"{seed}:{0 if n == 1 else n}")
        names = ["d0", "d1"][: draw.randint(1, 2)]
        scope = list(names)
        assignments = [f"{name}.{text}" for name in names for text in draw.choice(profiles)]
        level = 0 if n < 2 or draw.random() < 0.6 else draw.randrange(levels)
        entry = call(draw, f"u{n}.call", level, scope, {"instance": f"i{level}"})
        scenarios.append({
            "id": f"u{n}", "name": f"u{n}",
            "userLabels": sorted({"{}.{}".format(*rng.choice(pairs))}),
            "actions": [{"type": "variable", "id": f"u{n}.data", "assignments": assignments},
                        entry],
        })
    return {
        "dictionary": {"labelTypes": [{"name": t, "values": vs} for t, vs in values.items()]},
        "components": components,
        "assembly": {"instances": [{"id": f"i{k}", "component": f"c{k}"} for k in range(levels)],
                     "connectors": connectors},
        "deployment": {"containers": [{"id": "h0", "name": "h0", "labels": ["{}.{}".format(*pairs[-1])]},
                                      {"id": "h1", "name": "h1", "labels": []}],
                       "allocations": {f"i{k}": f"h{k % 2}" for k in range(levels)}},
        "usageScenarios": scenarios,
    }


def _reused_spans(propagated) -> int:
    spans = [span for p in propagated for span in p.spans]
    return len(spans) - len({id(segment) for _, _, segment in spans})


def _assert_matches_oracle(model, texts):
    sequences = find_all_sequences(model)
    engine = evaluate_all(model, sequences)
    for sequence, propagated in zip(sequences, engine):
        assert propagated == oracle_propagate(model, sequence)  # frames and node masks
    constraints = [parse_constraint(text, model.dictionary) for text in texts]
    got = query_many(engine, constraints)
    for constraint, text in zip(constraints, texts):
        want = [
            (index, element_index, names)
            for index, sequence in enumerate(sequences)
            for element_index, names in oracle_query(model, sequence, text)
        ]
        assert [(v.sequence_index, v.element_index, v.variable_names)
                for v in got[constraint.name]] == want, text
    return engine


@pytest.mark.parametrize("seed", range(100))
def test_reused_contexts_agree_with_oracle(seed):
    model = model_from_data(reused_context_model_data(seed))
    engine = _assert_matches_oracle(model, random_constraints(model, seed))
    assert _reused_spans(engine) > 0  # the memoised path really ran


def test_shared_service_agrees_with_oracle(models_dir, geo_constraints_path):
    model = load_model(models_dir / "shared_service.json")
    texts = [line for line in geo_constraints_path.read_text().splitlines()
             if line.startswith("VIOLATION")]
    engine = _assert_matches_oracle(model, texts + random_constraints(model, 1))
    assert _reused_spans(engine) == 1  # refund repeats checkout's context


def test_only_user_calls_are_recorded(models_dir):
    """Calls nested in a body are walked inside its context, so ``calls``
    and the spans hold the user-side calls only."""
    models = [model_from_data(reused_context_model_data(seed)) for seed in range(100)]
    models.append(load_model(models_dir / "shared_service.json"))
    for model in models:
        sequences = find_all_sequences(model)
        for sequence, propagated in zip(sequences, evaluate_all(model, sequences)):
            user_calls = [index for index, element in enumerate(sequence)
                          if type(element) is CallingUserNode]
            assert sorted(sequence.calls) == user_calls, sequence.scenario_id
            assert [(lo, stop) for lo, stop, _ in propagated.spans] == [
                (index + 1, index + 1 + len(sequence.calls[index])) for index in user_calls
            ], sequence.scenario_id


# ---------------------------------------------------------------------------
# shared elements and the fallback without call records


def test_sequences_share_callee_elements(models_dir):
    checkout, browse, refund = find_all_sequences(load_model(models_dir / "shared_service.json"))
    assert checkout.calls.keys() == {2}
    body = checkout.calls[2]
    assert checkout.elements[3:3 + len(body)] == body
    for other in (browse, refund):
        assert other.calls[2] is body
        assert all(a is b for a, b in zip(checkout.elements[3:9], other.elements[3:9]))
    assert checkout.elements[2] is not refund.elements[2]  # user side stays per scenario


def test_call_records_take_no_part_in_equality(models_dir):
    sequence = find_all_sequences(load_model(models_dir / "shared_service.json"))[0]
    bare = ActionSequence(sequence.scenario_id, sequence.elements)
    assert bare.calls == {} and sequence.calls
    assert bare == sequence
    assert hash(bare) == hash(sequence)
    assert repr(bare) == repr(sequence)


def test_sequence_without_call_records_propagates_alike(models_dir, geo_constraints_path):
    model = load_model(models_dir / "shared_service.json")
    sequences = find_all_sequences(model)
    bare = [ActionSequence(s.scenario_id, s.elements) for s in sequences]
    walked = [propagate(model, s) for s in bare]
    summarised = evaluate_all(model, sequences)
    assert all(p.spans == () for p in walked)
    assert all(p.spans for p in summarised)
    for a, b in zip(walked, summarised):
        assert a == b
        assert a.deltas == b.deltas
    constraints = [parse_constraint(line, model.dictionary)
                   for line in geo_constraints_path.read_text().splitlines()
                   if line.startswith("VIOLATION")]
    assert query_many(walked, constraints) == query_many(summarised, constraints)


# ---------------------------------------------------------------------------
# the depth limit names the same chain as a fresh expansion

LEVELS = 8
ENTRIES = (5, 3, 0, 6, 1)  # the level at which each scenario enters


def chain_model_data() -> dict:
    """``c0 -> c1 -> ... -> c7``, entered by five scenarios at ``ENTRIES``."""
    components, instances, connectors = [], [], []
    for k in range(LEVELS):
        actions = [{"type": "variable", "id": f"c{k}.work", "assignments": ["x.T.V := p.T.V"]}]
        if k + 1 < LEVELS:
            actions.append({"type": "call", "id": f"c{k}.call", "role": "next",
                            "signature": f"c{k + 1}.run", "bindings": {"p": "x"}})
            connectors.append({"instance": f"i{k}", "role": "next", "target": f"i{k + 1}"})
        actions.append({"type": "return", "id": f"c{k}.ret",
                        "assignments": ["RETURN.T.V := x.T.V"]})
        components.append({"id": f"c{k}", "name": f"C{k}", "labels": ["T.V"] if k % 2 else [],
                           "signatures": [{"id": f"c{k}.run", "parameters": ["p"]}],
                           "seffs": {f"c{k}.run": actions}})
        instances.append({"id": f"i{k}", "component": f"c{k}"})
    scenarios = [
        {"id": f"u{n}", "name": f"u{n}", "userLabels": [],
         "actions": [{"type": "variable", "id": f"u{n}.data", "assignments": ["d.T.V := TRUE"]},
                     {"type": "call", "id": f"u{n}.call", "instance": f"i{level}",
                      "signature": f"c{level}.run", "bindings": {"p": "d"}}]}
        for n, level in enumerate(ENTRIES)
    ]
    return {"dictionary": {"labelTypes": [{"name": "T", "values": ["V"]}]},
            "components": components,
            "assembly": {"instances": instances, "connectors": connectors},
            "deployment": {"containers": [{"id": "h", "name": "h", "labels": []}],
                           "allocations": {f"i{k}": "h" for k in range(LEVELS)}},
            "usageScenarios": scenarios}


_CHAINS = {
    1: "u0.call -> c5.call",
    2: "u0.call -> c5.call -> c6.call",
    3: "u1.call -> c3.call -> c4.call -> c5.call",
    4: "u1.call -> c3.call -> c4.call -> c5.call -> c6.call",
    5: "u2.call -> c0.call -> c1.call -> c2.call -> c3.call -> c4.call",
    6: "u2.call -> c0.call -> c1.call -> c2.call -> c3.call -> c4.call -> c5.call",
    7: "u2.call -> c0.call -> c1.call -> c2.call -> c3.call -> c4.call -> c5.call -> c6.call",
}


@pytest.mark.parametrize("depth", sorted(_CHAINS))
def test_depth_error_names_the_fresh_chain(depth):
    model = model_from_data(chain_model_data())
    with pytest.raises(CallDepthError) as info:
        find_all_sequences(model, max_call_depth=depth)
    chain = _CHAINS[depth]
    assert str(info.value) == f"call depth exceeded ({depth} nested calls): {chain}"
    assert info.value.call_chain == tuple(chain.split(" -> "))


@pytest.mark.parametrize("depth", (8, 9))
def test_chain_fits_from_depth_eight(depth):
    model = model_from_data(chain_model_data())
    sequences = find_all_sequences(model, max_call_depth=depth)
    assert [len(s) for s in sequences] == [14, 22, 34, 10, 30]
    for sequence, propagated in zip(sequences, evaluate_all(model, sequences)):
        assert propagated == oracle_propagate(model, sequence)
