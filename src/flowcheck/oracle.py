"""Brute-force reference semantics for differential testing.

``oracle_propagate`` recomputes the result of every element from scratch
by replaying the whole sequence prefix, keeps labels as plain sets of
(type, value) pairs, expands wildcard assignments eagerly pair by pair
and evaluates terms by direct substitution.  Nothing is shared with the
optimized path: no bit masks, no lowering, no incremental frame reuse.
Deliberately quadratic and slow; it exists to cross-check the engine on
small models.

``random_small_model`` generates valid little models (at most ten
sequence elements) deterministically from a seed, emitting a manifest
document and pushing it through the regular loader, so the generator can
never hand out a model the loader would reject.
"""

from __future__ import annotations

import random

from . import terms
from .errors import PropagationError
from .extraction import ActionSequence
from .labels import DataDictionary
from .model import ArchitectureModel, RETURN_VARIABLE
from .propagation import ElementResult, PropagatedSequence

__all__ = [
    "oracle_propagate",
    "oracle_query",
    "random_small_model",
    "random_constraints",
]

_USER_KINDS = frozenset(
    {"UserStart", "UserVariableNode", "CallingUserNode", "ReturningUserNode"}
)


# ---------------------------------------------------------------------------
# naive set-based interpretation


def _all_pairs(dictionary: DataDictionary) -> list[tuple[str, str]]:
    return [(lt.name, value) for lt in dictionary.label_types for value in lt.values]


def _substitute(node, type_name, value):
    """Replace wildcard segments of every reference with concrete names."""
    tag = node[0]
    if tag == "ref":
        _, var, ref_type, ref_value = node
        if ref_type is None:
            return ("ref", var, type_name, value)
        if ref_value is None:
            return ("ref", var, ref_type, value)
        return node
    if tag == "const":
        return node
    out = [tag]
    for operand in node[1:]:
        out.append(_substitute(operand, type_name, value))
    return tuple(out)


def _truth(node, holds) -> bool:
    """Evaluate a term; ``holds(var, type, value)`` decides each reference."""
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "ref":
        return holds(node[1], node[2], node[3])
    if tag == "not":
        return not _truth(node[1], holds)
    # the first operand that is false decides "and", the first true one "or"
    decisive = tag == "or"
    for operand in node[1:]:
        if _truth(operand, holds) == decisive:
            return decisive
    return not decisive


def _render(node) -> str:
    tag = node[0]
    if tag == "const":
        return "TRUE" if node[1] else "FALSE"
    if tag == "ref":
        _, var, type_name, value = node
        return f"{var}.{type_name or '*'}.{value or '*'}"
    if tag == "not":
        return "!" + _render(node[1])
    op = " & " if tag == "and" else " | "
    return "(" + op.join(_render(operand) for operand in node[1:]) + ")"


def _apply_assignments(assignments, frame: dict, dictionary: DataDictionary) -> None:
    # every term reads the state from before this action
    pre = {name: set(pairs) for name, pairs in frame.items()}

    def holds(var, type_name, value):
        return (type_name, value) in pre.get(var, ())

    for assignment in assignments:
        arity = assignment.wildcard_arity()
        if arity == 0:
            expansion = [((assignment.target_type, assignment.target_value), assignment.rhs)]
        elif arity == 1:
            expansion = [
                (
                    (assignment.target_type, value),
                    _substitute(assignment.rhs, None, value),
                )
                for value in dictionary.values_of(assignment.target_type)
            ]
        else:
            expansion = [
                ((type_name, value), _substitute(assignment.rhs, type_name, value))
                for type_name, value in _all_pairs(dictionary)
            ]
        bucket = frame.setdefault(assignment.target_var, set())
        for target_pair, rhs in expansion:
            if _truth(rhs, holds):
                bucket.add(target_pair)
            else:
                bucket.discard(target_pair)


def _component_pairs(model: ArchitectureModel, component_id: str) -> set:
    for component in model.components:
        if component.id == component_id:
            return {(label.type, label.value) for label in component.labels}
    return set()


def _node_pairs(model: ArchitectureModel, instance_id: str) -> set:
    component_id = None
    for instance in model.assembly.instances:
        if instance.id == instance_id:
            component_id = instance.component_id
    pairs = _component_pairs(model, component_id) if component_id else set()
    for allocated_id, container_id in model.deployment.allocations:
        if allocated_id == instance_id:
            for container in model.deployment.containers:
                if container.id == container_id:
                    pairs |= {(label.type, label.value) for label in container.labels}
    return pairs


def _user_pairs(model: ArchitectureModel, scenario_id: str) -> set:
    for scenario in model.scenarios:
        if scenario.id == scenario_id:
            return {(label.type, label.value) for label in scenario.user_labels}
    return set()


def _step(model: ArchitectureModel, element, stack: list) -> None:
    kind = element.kind
    if kind == "UserStart":
        stack.append({})
    elif kind in ("UserVariableNode", "SeffVariableNode", "SeffReturnNode"):
        _apply_assignments(element.assignments, stack[-1], model.dictionary)
    elif kind in ("CallingUserNode", "CallingSeffNode"):
        caller = stack[-1]
        frame = {}
        for param, var in element.bindings:
            if var not in caller:
                raise PropagationError(
                    f"call binds parameter '{param}' to missing variable '{var}'"
                )
            frame[param] = set(caller[var])
        stack.append(frame)
    elif kind in ("ReturningUserNode", "ReturningSeffNode"):
        popped = stack.pop()
        frame = stack[-1]
        if element.result_variable is not None:
            frame[element.result_variable] = set(popped.get(RETURN_VARIABLE, set()))
        if element.result_assignments:
            _apply_assignments(element.result_assignments, frame, model.dictionary)
    else:
        raise PropagationError(f"unknown sequence element kind {kind}")


def _state_at(model: ArchitectureModel, sequence: ActionSequence, index: int):
    """Replay elements 0..index from scratch; returns (node pairs, frame)."""
    stack: list[dict] = []
    for element in sequence.elements[: index + 1]:
        _step(model, element, stack)
    element = sequence.elements[index]
    if element.kind in _USER_KINDS:
        node = _user_pairs(model, element.scenario_id)
    else:
        node = _node_pairs(model, element.instance_id)
    return node, stack[-1]


def _pairs_to_mask(dictionary: DataDictionary, pairs) -> int:
    mask = 0
    for type_name, value in pairs:
        mask |= 1 << dictionary.bit(type_name, value)
    return mask


def oracle_propagate(model: ArchitectureModel, sequence: ActionSequence) -> PropagatedSequence:
    """Reference propagation; one full prefix replay per element."""
    dictionary = model.dictionary
    results = []
    for index in range(len(sequence.elements)):
        node_pairs, frame = _state_at(model, sequence, index)
        results.append(
            ElementResult(
                sequence.elements[index],
                _pairs_to_mask(dictionary, node_pairs),
                {name: _pairs_to_mask(dictionary, pairs) for name, pairs in frame.items()},
                dictionary,
            )
        )
    return PropagatedSequence.from_results(sequence, results)


def oracle_query(
    model: ArchitectureModel, sequence: ActionSequence, constraint_text: str
) -> list[tuple[int, tuple[str, ...]]]:
    """Reference constraint evaluation by direct truth-table substitution.

    Returns (element index, names of satisfying variables) for every
    matching element, replaying states with the naive interpreter.
    """
    parser = terms.TermParser(constraint_text)
    parser.expect_word("VIOLATION")
    parser.expect("ident", "a constraint name")
    parser.expect_word("WHERE")
    node_ast = parser.parse_term()
    parser.expect_word("AND")
    parser.expect_word("DATA")
    data_ast = parser.parse_term()
    parser.expect_end()

    data_refs = any(True for _ in terms.iter_refs(data_ast))
    matches = []
    for index in range(len(sequence.elements)):
        node_pairs, frame = _state_at(model, sequence, index)
        if not _truth(node_ast, lambda var, t, v: (t, v) in node_pairs):
            continue
        if not data_refs:
            if _truth(data_ast, lambda var, t, v: False):
                matches.append((index, ()))
            continue
        names = sorted(
            name
            for name, pairs in frame.items()
            if _truth(data_ast, lambda var, t, v: (t, v) in pairs)
        )
        if names:
            matches.append((index, tuple(names)))
    return matches


# ---------------------------------------------------------------------------
# deterministic random models


def random_small_model(seed: int) -> ArchitectureModel:
    """A valid pseudo-random model; same seed, same model.

    Shape: up to three label types with up to three values, one or two
    components (with an optional cross-component call), one scenario.
    Every extracted sequence stays within ten elements.  Scopes are kept
    as ordered lists so the draw sequence never depends on hash order.
    """
    from .loader import model_from_data

    rng = random.Random(seed)
    type_names = [f"T{i}" for i in range(rng.randint(1, 3))]
    label_types = [
        {"name": name, "values": [f"V{i}" for i in range(rng.randint(1, 3))]}
        for name in type_names
    ]
    pairs = [(lt["name"], value) for lt in label_types for value in lt["values"]]

    def some_labels(limit=2):
        count = rng.randint(0, min(limit, len(pairs)))
        return sorted(f"{t}.{v}" for t, v in rng.sample(pairs, count))

    def random_term(scope: list, arity, depth=0):
        roll = rng.random()
        if depth >= 2 or roll < 0.4:
            if rng.random() < 0.2:
                return ("const", rng.random() < 0.5)
            var = rng.choice(scope + ["ghost"])  # absent variables read as FALSE
            if arity == 2:
                return ("ref", var, None, None)
            if arity == 1:
                return ("ref", var, rng.choice(type_names), None)
            type_name, value = rng.choice(pairs)
            return ("ref", var, type_name, value)
        if roll < 0.55:
            return ("not", random_term(scope, arity, depth + 1))
        tag = "and" if rng.random() < 0.5 else "or"
        return (tag, random_term(scope, arity, depth + 1), random_term(scope, arity, depth + 1))

    def random_assignment(target, scope: list) -> str:
        arity = rng.choice((0, 0, 0, 1, 2))
        if arity == 0:
            type_name, value = rng.choice(pairs)
            head = f"{target}.{type_name}.{value}"
        elif arity == 1:
            head = f"{target}.{rng.choice(type_names)}.*"
        else:
            head = f"{target}.*.*"
        return f"{head} := {_render(random_term(scope, arity))}"

    def bring_into_scope(scope: list, name: str) -> None:
        if name not in scope:
            scope.append(name)

    def variable_action(action_id, scope: list, prefix) -> dict:
        texts = []
        for _ in range(rng.randint(1, 2)):
            fresh = f"{prefix}{len(scope)}"
            target = rng.choice(scope + [fresh]) if scope else fresh
            texts.append(random_assignment(target, scope))
            bring_into_scope(scope, target)
        return {"type": "variable", "id": action_id, "assignments": texts}

    def return_action(action_id, scope: list) -> dict:
        texts = [
            random_assignment(RETURN_VARIABLE, scope) for _ in range(rng.randint(0, 2))
        ]
        return {"type": "return", "id": action_id, "assignments": texts}

    # callee component (optional)
    use_callee = rng.random() < 0.7
    components = []
    callee_params = []
    callee_returns = False
    if use_callee:
        callee_params = [f"p{i}" for i in range(rng.randint(0, 2))]
        callee_returns = rng.random() < 0.6
        scope = list(callee_params)
        actions = []
        if rng.random() < 0.7 or not callee_returns:
            actions.append(variable_action("b.act0", scope, "b"))
        if callee_returns:
            actions.append(return_action("b.ret", scope))
        components.append(
            {
                "id": "comp.b",
                "name": "Callee",
                "labels": some_labels(),
                "signatures": [
                    {"id": "svc.b", "name": "serve", "parameters": callee_params}
                ],
                "seffs": {"svc.b": actions},
            }
        )

    # entry component
    entry_params = [f"q{i}" for i in range(rng.randint(0, 2))]
    entry_returns = rng.random() < 0.5
    scope = list(entry_params)
    actions = []
    call_used = False
    if not scope and (callee_params or rng.random() < 0.5):
        actions.append(variable_action("a.act0", scope, "a"))
    if use_callee and rng.random() < 0.8:
        bindings = {param: rng.choice(scope) for param in callee_params}
        call = {
            "type": "call",
            "id": "a.call",
            "role": "partner",
            "signature": "svc.b",
            "bindings": bindings,
        }
        if callee_returns and rng.random() < 0.7:
            call["result"] = "reply"
            bring_into_scope(scope, "reply")
            if rng.random() < 0.5:
                call["resultAssignments"] = [
                    random_assignment(rng.choice(scope), scope)
                ]
        actions.append(call)
        call_used = True
    if len(actions) < 2 and rng.random() < 0.6:
        actions.append(variable_action("a.act1", scope, "a"))
    if entry_returns:
        actions.append(return_action("a.ret", scope))
    if not actions:
        actions.append(variable_action("a.act0", scope, "a"))
    components.append(
        {
            "id": "comp.a",
            "name": "Entry",
            "labels": some_labels(),
            "signatures": [{"id": "svc.a", "name": "enter", "parameters": entry_params}],
            "seffs": {"svc.a": actions},
        }
    )

    instances = [{"id": "inst.a", "component": "comp.a"}]
    connectors = []
    if use_callee:
        instances.append({"id": "inst.b", "component": "comp.b"})
        if call_used:
            connectors.append({"instance": "inst.a", "role": "partner", "target": "inst.b"})

    containers = [{"id": f"node{i}", "name": f"node{i}", "labels": some_labels()} for i in range(rng.randint(1, 2))]
    allocations = {
        instance["id"]: rng.choice(containers)["id"] for instance in instances
    }

    # usage: define user variables (one action at most keeps sequences
    # within the ten-element budget), then call the entry signature
    user_scope: list[str] = []
    user_actions = []
    if entry_params or rng.random() < 0.7:
        user_actions.append(variable_action("u.act0", user_scope, "u"))
    call = {
        "type": "call",
        "id": "u.call",
        "instance": "inst.a",
        "signature": "svc.a",
        "bindings": {param: rng.choice(user_scope) for param in entry_params},
    }
    if entry_returns and rng.random() < 0.7:
        call["result"] = "outcome"
    user_actions.append(call)

    data = {
        "dictionary": {"labelTypes": label_types},
        "components": components,
        "assembly": {"instances": instances, "connectors": connectors},
        "deployment": {"containers": containers, "allocations": allocations},
        "usageScenarios": [
            {
                "id": "scn",
                "name": "generated",
                "userLabels": some_labels(),
                "actions": user_actions,
            }
        ],
    }
    return model_from_data(data)


def random_constraints(model: ArchitectureModel, seed: int, count: int = 3) -> list[str]:
    """Constraint texts drawn from the model's dictionary, seed-stable."""
    rng = random.Random(seed ^ 0x5EED)
    pairs = _all_pairs(model.dictionary)
    texts = []
    for index in range(count):
        def leaf(prefix):
            if not pairs or rng.random() < 0.15:
                return ("const", True)
            type_name, value = rng.choice(pairs)
            return ("ref", prefix, type_name, value)

        def term(prefix, depth=0):
            roll = rng.random()
            if depth >= 2 or roll < 0.45:
                return leaf(prefix)
            if roll < 0.6:
                return ("not", term(prefix, depth + 1))
            tag = "and" if rng.random() < 0.5 else "or"
            return (tag, term(prefix, depth + 1), term(prefix, depth + 1))

        node_term = term("node")
        data_term = term("data") if rng.random() < 0.8 else ("const", True)
        texts.append(
            f"VIOLATION c{index} WHERE {_render(node_term)} AND DATA {_render(data_term)}"
        )
    return texts
