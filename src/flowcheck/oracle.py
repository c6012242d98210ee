"""Brute-force reference semantics for differential testing.

``oracle_propagate`` recomputes the result of every element from scratch
by replaying the whole sequence prefix, keeps labels as plain sets of
(type, value) pairs, expands wildcard assignments eagerly pair by pair
and evaluates terms by direct substitution.  Nothing is shared with the
optimized path: no bit masks, no lowering, no incremental frame reuse.
Deliberately quadratic and slow; it exists to cross-check the engine on
small models.
"""

from __future__ import annotations

from . import terms
from .errors import PropagationError
from .extraction import ActionSequence
from .labels import DataDictionary
from .model import ArchitectureModel, RETURN_VARIABLE
from .propagation import PropagatedSequence

__all__ = [
    "oracle_propagate",
    "oracle_query",
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
    """Reference propagation; one full prefix replay per element.

    Each element's whole frame serves as its delta, which replay and the
    query read alike, since an assignment never removes a variable.
    """
    dictionary = model.dictionary
    states = [_state_at(model, sequence, index) for index in range(len(sequence.elements))]
    parts = []
    start = 0
    for part in sequence.parts:
        chunk = states[start:start + len(part)]
        start += len(part)
        parts.append((
            [_pairs_to_mask(dictionary, node_pairs) for node_pairs, _ in chunk],
            [tuple((name, _pairs_to_mask(dictionary, pairs)) for name, pairs in frame.items())
             for _, frame in chunk],
        ))
    return PropagatedSequence(sequence, parts, dictionary)


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
