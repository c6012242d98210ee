"""Call summaries: sequences made of parts, with shared bodies and contexts.

Extraction builds each callee body once and every sequence that calls it
holds that body as one of its parts; propagation walks each distinct
(body, bound frame) context once per analysis, and the query matches
each context once per constraint.  Every public view must stay what a
fresh walk of the whole sequence gives, which the oracle decides.
"""

import random

import pytest

from flowcheck import constraints
from flowcheck.analysis import run_pipeline
from flowcheck.constraints import load_constraints, parse_constraint, query_many
from flowcheck.errors import CallDepthError, ModelLoadError
from flowcheck.extraction import (
    DEFAULT_MAX_CALL_DEPTH,
    ActionSequence,
    CallingUserNode,
    ReturningUserNode,
    UserStart,
    UserVariableNode,
    find_all_sequences,
)
from flowcheck.loader import load_model, model_from_data
from flowcheck.oracle import oracle_propagate, oracle_query
from flowcheck.propagation import evaluate_all, propagate

from conftest import call_chain_model_data, unchecked_model
from generators import random_constraints


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


def _reused_bodies(propagated) -> int:
    """Calls whose body deltas another call of the analysis holds too."""
    bodies = [deltas for p in propagated for _, deltas in p.parts[1::2]]
    return len(bodies) - len({id(deltas) for deltas in bodies})


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
    assert _reused_bodies(engine) > 0  # the memoised path really ran


def test_shared_service_agrees_with_oracle(models_dir, geo_constraints_path):
    model = load_model(models_dir / "shared_service.json")
    texts = [line for line in geo_constraints_path.read_text().splitlines()
             if line.startswith("VIOLATION")]
    engine = _assert_matches_oracle(model, texts + random_constraints(model, 1))
    assert _reused_bodies(engine) == 1  # refund repeats checkout's context


_USER_KINDS = (UserStart, UserVariableNode, CallingUserNode, ReturningUserNode)


def _reused_context_models(models_dir):
    models = [model_from_data(reused_context_model_data(seed)) for seed in range(100)]
    models.append(load_model(models_dir / "shared_service.json"))
    return models


def test_only_user_calls_are_recorded(models_dir):
    """Calls nested in a body are walked inside its context, so the parts
    alternate between the user side and the body of each user call."""
    for model in _reused_context_models(models_dir):
        sequences = find_all_sequences(model)
        for sequence, propagated in zip(sequences, evaluate_all(model, sequences)):
            runs, bodies = sequence.parts[::2], sequence.parts[1::2]
            assert len(runs) == len(bodies) + 1, sequence.scenario_id
            assert all(type(element) in _USER_KINDS for run in runs for element in run)
            assert not any(type(element) in _USER_KINDS for body in bodies for element in body)
            assert [type(run[-1]) for run in runs[:-1]] == [CallingUserNode] * len(bodies)
            assert [type(run[0]) for run in runs[1:]] == [ReturningUserNode] * len(bodies)
            assert [(len(masks), len(deltas)) for masks, deltas in propagated.parts] == [
                (len(part), len(part)) for part in sequence.parts
            ], sequence.scenario_id


def test_equal_calls_share_one_body_and_equal_contexts_one_summary(models_dir):
    """Sequences that make the same user call hold the one body object;
    calls into it that bind equal frames hold one body deltas object, and
    calls that bind different frames do not."""
    for model in _reused_context_models(models_dir):
        sequences = find_all_sequences(model)
        bodies, contexts, masks_of = {}, {}, {}
        for sequence, propagated in zip(sequences, evaluate_all(model, sequences)):
            for n in range(1, len(sequence.parts), 2):
                calling = sequence.parts[n - 1][-1]
                body = bodies.setdefault((calling.instance_id, calling.signature_id),
                                         sequence.parts[n])
                assert sequence.parts[n] is body
                masks, deltas = propagated.parts[n]
                assert masks_of.setdefault(id(body), masks) is masks
                bound = propagated.parts[n - 1][1][-1]  # the calling bracket's frame
                assert contexts.setdefault((id(body), bound), deltas) is deltas
        by_body = {}
        for (body_id, _), deltas in contexts.items():
            by_body.setdefault(body_id, []).append(id(deltas))
        assert all(len(ids) == len(set(ids)) for ids in by_body.values())


def test_query_matches_each_context_once(models_dir, monkeypatch):
    """Per constraint, the query walks every user part, and each body's
    deltas once however many sequences hold them."""
    walked = []
    walk = constraints._walk

    def counting(elements, masks, deltas, *args):
        walked.append(id(deltas))
        return walk(elements, masks, deltas, *args)

    monkeypatch.setattr(constraints, "_walk", counting)
    checked = 0
    for model in _reused_context_models(models_dir):
        sequences = find_all_sequences(model)
        propagated = evaluate_all(model, sequences)
        texts = [t for t in random_constraints(model, 0) if "data." in t.split("DATA")[1]]
        walked.clear()
        query_many(propagated, [parse_constraint(text, model.dictionary) for text in texts])
        runs = [id(deltas) for p in propagated for _, deltas in p.parts[::2]]
        bodies = {id(deltas) for p in propagated for _, deltas in p.parts[1::2]}
        assert sorted(walked) == sorted(runs * len(texts) + list(bodies) * len(texts))
        checked += len(texts) * len(bodies)
    assert checked > 0


def test_views_are_built_only_on_access(models_dir, geo_constraints_path):
    """Counting elements and analysing without a dump read the parts only."""
    _, sequences, propagated, *_ = run_pipeline(
        lambda timings: load_model(models_dir / "shared_service.json", timings),
        lambda model: load_constraints(geo_constraints_path, model.dictionary),
    )
    assert sum(len(s) for s in sequences) == sum(len(p) for p in propagated) > 0
    views = ("_node_masks", "_deltas", "_frames", "_results")
    assert all(s._elements is None for s in sequences)
    assert all(getattr(p, view) is None for p in propagated for view in views)
    assert sequences[0].elements == tuple(sequences[0])


# ---------------------------------------------------------------------------
# shared elements and the fallback without call records


def test_sequences_share_callee_elements(models_dir):
    checkout, browse, refund = find_all_sequences(load_model(models_dir / "shared_service.json"))
    assert len(checkout.parts) == 3  # one user call, at element 2
    assert type(checkout.elements[2]) is CallingUserNode
    body = checkout.parts[1]
    assert checkout.elements[3:3 + len(body)] == body
    for other in (browse, refund):
        assert other.parts[1] is body
        assert all(a is b for a, b in zip(checkout.elements[3:9], other.elements[3:9]))
    assert checkout.elements[2] is not refund.elements[2]  # user side stays per scenario


def test_call_records_take_no_part_in_equality(models_dir):
    sequence = find_all_sequences(load_model(models_dir / "shared_service.json"))[0]
    bare = ActionSequence(sequence.scenario_id, (sequence.elements,))
    assert len(bare.parts) == 1 and len(sequence.parts) > 1
    assert bare == sequence
    assert hash(bare) == hash(sequence)
    assert repr(bare) == repr(sequence)


def test_sequence_without_call_records_propagates_alike(models_dir, geo_constraints_path):
    model = load_model(models_dir / "shared_service.json")
    sequences = find_all_sequences(model)
    bare = [ActionSequence(s.scenario_id, (s.elements,)) for s in sequences]
    walked = [propagate(model, s) for s in bare]
    summarised = evaluate_all(model, sequences)
    assert all(len(p.parts) == 1 for p in walked)
    assert all(len(p.parts) > 1 for p in summarised)
    for a, b in zip(walked, summarised):
        assert a == b
        assert a.deltas == b.deltas
    constraints = [parse_constraint(line, model.dictionary)
                   for line in geo_constraints_path.read_text().splitlines()
                   if line.startswith("VIOLATION")]
    assert query_many(walked, constraints) == query_many(summarised, constraints)


# ---------------------------------------------------------------------------
# the depth limit names the same chain as a fresh expansion, and the
# loader refuses the model with that chain

LEVELS = 8
ENTRIES = (5, 3, 0, 6, 1)  # the level at which each scenario enters


def chain_model_data(levels: int) -> dict:
    return call_chain_model_data(levels, ENTRIES)


# ``depth`` places the limit ``depth`` calls into an ``LEVELS``-deep chain:
# the model is ``DEFAULT_MAX_CALL_DEPTH - depth`` levels deeper than that,
# so the scenarios that fail are those that nest more than ``depth`` calls
# of the short chain.  The first of them, by document order:
_FIRST_FAILING = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2}


@pytest.mark.parametrize("depth", sorted(_FIRST_FAILING))
def test_depth_error_names_the_fresh_chain(depth):
    data = chain_model_data(DEFAULT_MAX_CALL_DEPTH + LEVELS - depth)
    n = _FIRST_FAILING[depth]
    chain = (f"u{n}.call",) + tuple(
        f"c{k}.call" for k in range(ENTRIES[n], ENTRIES[n] + DEFAULT_MAX_CALL_DEPTH)
    )
    message = f"call depth exceeded (64 nested calls): {' -> '.join(chain)}"
    with pytest.raises(CallDepthError) as info:
        find_all_sequences(unchecked_model(data))
    assert str(info.value) == message
    assert info.value.call_chain == chain
    with pytest.raises(ModelLoadError) as refused:
        model_from_data(data)
    failing = [f"u{m}" for m, level in enumerate(ENTRIES) if LEVELS - level > depth]
    assert [d.split("'")[1] for d in refused.value.defects] == failing
    assert refused.value.defects[0] == f"scenario 'u{n}', action 'u{n}.call': {message}"


@pytest.mark.parametrize("depth", (8, 9))
def test_chain_fits_from_depth_eight(depth):
    levels = DEFAULT_MAX_CALL_DEPTH + LEVELS - depth
    model = model_from_data(chain_model_data(levels))
    sequences = find_all_sequences(model)
    # per nested level: its work, call brackets and return
    assert [len(s) for s in sequences] == [6 + 4 * (levels - 1 - e) for e in ENTRIES]
    for sequence, propagated in zip(sequences, evaluate_all(model, sequences)):
        assert propagated == oracle_propagate(model, sequence)
