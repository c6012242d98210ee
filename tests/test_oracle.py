"""The naive reference interpreter and the random model generator."""

import pytest

from flowcheck import loader
from flowcheck.constraints import parse_constraint, query, query_many
from flowcheck.extraction import find_all_sequences
from flowcheck.loader import model_to_json
from flowcheck.oracle import (
    oracle_propagate,
    oracle_query,
    random_constraints,
    random_small_model,
)
from flowcheck.propagation import propagate


def test_generator_is_deterministic():
    a = model_to_json(random_small_model(7))
    b = model_to_json(random_small_model(7))
    assert a == b


def test_generator_varies_across_seeds():
    texts = {model_to_json(random_small_model(s)) for s in range(10)}
    assert len(texts) >= 8  # near-total variety, collisions would be suspicious


def test_generated_models_stay_small():
    for seed in range(10):
        model = random_small_model(seed)
        for seq in find_all_sequences(model):
            assert len(seq.elements) <= 10


def test_random_constraints_are_parseable_and_deterministic():
    model = random_small_model(3)
    texts_a = random_constraints(model, 3)
    texts_b = random_constraints(model, 3)
    assert texts_a == texts_b
    assert len(texts_a) == 3
    names = {parse_constraint(t, model.dictionary).name for t in texts_a}
    assert len(names) == 3  # distinct names, so they can share a query


def test_oracle_trace_matches_engine_on_shop(shop_path):
    from flowcheck.loader import load_model
    model = load_model(shop_path)
    seq = find_all_sequences(model)[0]
    assert oracle_propagate(model, seq) == propagate(model, seq)


@pytest.mark.parametrize("seed", range(40))
def test_differential_agreement(seed):
    """Engine and naive interpreter agree on random models and constraints."""
    model = random_small_model(seed)
    sequences = find_all_sequences(model)
    for seq in sequences:
        engine = propagate(model, seq)
        naive = oracle_propagate(model, seq)
        assert engine == naive
        for text in random_constraints(model, seed):
            constraint = parse_constraint(text, model.dictionary)
            got = [(v.element_index, v.variable_names)
                   for v in query(engine, constraint)]
            want = oracle_query(model, seq, text)
            assert got == want, f"seed {seed}: {text}"



@pytest.mark.parametrize("seed", range(100))
def test_whole_frame_deltas_query_alike(seed):
    """The oracle's whole frames, read as deltas, query as the engine's do,
    and no engine delta holds more than its element's frame."""
    model = random_small_model(seed)
    sequences = find_all_sequences(model)
    engine = [propagate(model, seq) for seq in sequences]
    naive = [oracle_propagate(model, seq) for seq in sequences]
    constraints = [parse_constraint(text, model.dictionary)
                   for text in random_constraints(model, seed)]
    assert query_many(naive, constraints) == query_many(engine, constraints)
    for propagated in engine:
        for delta, frame in zip(propagated.deltas, propagated.frames):
            assert len(delta) <= len(frame)

# Deep terms: long chains, nesting up to the bound and long runs of "!"
# are loaded, propagated and queried with the default recursion limit,
# and agree with the oracle.  Each shape wraps a term ``r`` of a random
# model in copies of a reference ``x`` of the same wildcard arity.
DEEP_SHAPES = {
    "or-chain": lambda x, r: " | ".join([x] * 9_999 + [r]),
    "and-chain": lambda x, r: " & ".join([x] * 9_999 + [r]),
    # r nests at most three levels, beside and not inside the 256
    "nested-parentheses": lambda x, r: f"{r} | " + f"({x} & " * 255 + f"({x})" + ")" * 255,
    "nested-not-and": lambda x, r: f"!({x} & " * 256 + x + ")" * 256 + f" & {r}",
    "not-run": lambda x, r: "!" * 5_001 + r,
}
DEEP_SEEDS = range(3)  # between them every target wildcard arity


def _deepen(document, shape) -> int:
    """Rewrite each assignment ``x := r`` of a model document in place.

    The target ``x`` is the shape's reference; returns how many were
    rewritten.
    """
    count = 0
    if isinstance(document, list):
        for item in document:
            count += _deepen(item, shape)
    elif isinstance(document, dict):
        for key, value in document.items():
            if key in ("assignments", "resultAssignments"):
                heads = [text.split(" := ", 1) for text in value]
                document[key] = [f"{x} := {shape(x, f'({r})')}" for x, r in heads]
                count += len(value)
            else:
                count += _deepen(value, shape)
    return count


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deep_assignments_agree_with_oracle(shape, monkeypatch):
    model_from_data = loader.model_from_data
    rewritten = []

    def deepened(data, *args, **kwargs):
        rewritten.append(_deepen(data, DEEP_SHAPES[shape]))
        return model_from_data(data, *args, **kwargs)

    # random_small_model builds its document and loads it through here
    monkeypatch.setattr(loader, "model_from_data", deepened)
    for seed in DEEP_SEEDS:
        model = random_small_model(seed)
        assert rewritten.pop() > 0
        for seq in find_all_sequences(model):
            assert propagate(model, seq) == oracle_propagate(model, seq), f"seed {seed}"


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deep_constraints_agree_with_oracle(shape):
    deepen = DEEP_SHAPES[shape]
    for seed in DEEP_SEEDS:
        model = random_small_model(seed)
        label_type = model.dictionary.label_types[0]
        pair = f"{label_type.name}.{label_type.values[0]}"
        [text] = random_constraints(model, seed, count=1)
        head, data_term = text.split(" AND DATA ")
        head, node_term = head.split(" WHERE ")
        text = (f"{head} WHERE {deepen(f'node.{pair}', f'({node_term})')} "
                f"AND DATA {deepen(f'data.{pair}', f'({data_term})')}")
        constraint = parse_constraint(text, model.dictionary)
        for seq in find_all_sequences(model):
            got = [(v.element_index, v.variable_names)
                   for v in query(propagate(model, seq), constraint)]
            assert got == oracle_query(model, seq, text), f"seed {seed}"
