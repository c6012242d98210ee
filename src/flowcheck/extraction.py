"""Expand usage scenarios into flat, immutable action sequences.

Every possible data flow through the architecture is represented as one
ordered list of sequence elements.  A call is flattened into a calling
bracket node, the callee's own elements, and a returning bracket node,
so calling and returning nodes always pair up like balanced parentheses.
Each scenario contributes one sequence.  The callee elements of a user
call to one (instance, signature) pair, nested calls expanded in place,
are built once per extraction, as a tuple called its body, and spliced
into every sequence that makes that call, so sequences share those
element objects; ``calls`` records which body follows each user call.

Sequence elements are tuple-backed records: they are constructed in
bulk, one per expanded action, so construction cost matters on large
models, and being tuples makes them genuinely immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .errors import CallDepthError, ExtractionError, UnknownElementError
from .model import (
    ArchitectureModel,
    ExternalCall,
    ReturnAction,
    SystemCall,
    VariableAction,
    index_of,
)

__all__ = [
    "UserStart",
    "UserVariableNode",
    "CallingUserNode",
    "ReturningUserNode",
    "SeffVariableNode",
    "CallingSeffNode",
    "ReturningSeffNode",
    "SeffReturnNode",
    "ActionSequence",
    "find_all_sequences",
    "DEFAULT_MAX_CALL_DEPTH",
]

DEFAULT_MAX_CALL_DEPTH = 64


class UserStart(NamedTuple):
    """Opening element of every sequence; carries the user's frame."""

    element_id: str
    scenario_id: str

    kind = "UserStart"


class UserVariableNode(NamedTuple):
    element_id: str
    scenario_id: str
    assignments: tuple

    kind = "UserVariableNode"


class CallingUserNode(NamedTuple):
    """User-side bracket opening a system call; binds the parameters."""

    element_id: str
    scenario_id: str
    instance_id: str
    signature_id: str
    bindings: tuple

    kind = "CallingUserNode"


class ReturningUserNode(NamedTuple):
    """User-side bracket closing a system call; receives the result."""

    element_id: str
    scenario_id: str
    result_variable: str | None
    result_assignments: tuple

    kind = "ReturningUserNode"


class SeffVariableNode(NamedTuple):
    element_id: str
    instance_id: str
    assignments: tuple

    kind = "SeffVariableNode"


class CallingSeffNode(NamedTuple):
    """Caller-side bracket opening an external call to another instance."""

    element_id: str
    instance_id: str
    callee_instance_id: str
    signature_id: str
    bindings: tuple

    kind = "CallingSeffNode"


class ReturningSeffNode(NamedTuple):
    element_id: str
    instance_id: str
    result_variable: str | None
    result_assignments: tuple

    kind = "ReturningSeffNode"


class SeffReturnNode(NamedTuple):
    """A Return action; its assignments fill the RETURN variable."""

    element_id: str
    instance_id: str
    assignments: tuple

    kind = "SeffReturnNode"


@dataclass(frozen=True, slots=True)
class ActionSequence:
    """One complete data flow: an ordered, immutable list of elements.

    ``calls`` maps the index of each user-side calling bracket to the
    shared body that follows it, up to its returning bracket; nested
    calls are not recorded.  It takes no part in equality, hashing or
    ``repr``, and a hand-built sequence may leave it empty.
    """

    scenario_id: str
    elements: tuple
    calls: dict = field(default_factory=dict, compare=False, repr=False)

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, index):
        return self.elements[index]


def find_all_sequences(
    model: ArchitectureModel, *, max_call_depth: int = DEFAULT_MAX_CALL_DEPTH
) -> list[ActionSequence]:
    """Extract one action sequence per usage scenario, in document order.

    Cyclic call structures are cut off after ``max_call_depth`` nested
    calls with a :class:`CallDepthError`.
    """
    index = index_of(model)
    bodies: dict = {}  # (instance, signature) -> body
    sequences = []
    for scenario in model.scenarios:
        elements: list = [UserStart(scenario.id, scenario.id)]
        calls: dict = {}
        try:
            for action in scenario.actions:
                if isinstance(action, SystemCall):
                    elements.append(
                        CallingUserNode(
                            action.id,
                            scenario.id,
                            action.instance_id,
                            action.signature_id,
                            action.bindings,
                        )
                    )
                    key = (action.instance_id, action.signature_id)
                    body = bodies.get(key)
                    if body is None:
                        # built at call depth one, as every user call is,
                        # so a body that fits once fits at every call
                        expanded: list = []
                        _expand_call(
                            index,
                            action.instance_id,
                            action.signature_id,
                            expanded,
                            (action.id,),
                            max_call_depth,
                        )
                        body = bodies[key] = tuple(expanded)
                    calls[len(elements) - 1] = body
                    elements.extend(body)
                    elements.append(
                        ReturningUserNode(
                            action.id,
                            scenario.id,
                            action.result_variable,
                            action.result_assignments,
                        )
                    )
                else:
                    elements.append(
                        UserVariableNode(action.id, scenario.id, action.assignments)
                    )
        except UnknownElementError as exc:
            raise ExtractionError(f"scenario '{scenario.id}': {exc}") from None
        sequences.append(ActionSequence(scenario.id, tuple(elements), calls))
    return sequences


def _expand_call(index, instance_id, signature_id, elements, chain, max_call_depth):
    if len(chain) > max_call_depth:
        raise CallDepthError(
            f"call depth exceeded ({max_call_depth} nested calls): "
            + " -> ".join(chain),
            chain,
        )
    seff = index.seff_for(instance_id, signature_id)
    append = elements.append
    for action in seff.actions:
        if isinstance(action, VariableAction):  # the common case at scale
            append(SeffVariableNode(action.id, instance_id, action.assignments))
        elif isinstance(action, ExternalCall):
            callee = index.resolve_call(instance_id, action.role)
            append(
                CallingSeffNode(
                    action.id, instance_id, callee, action.signature_id, action.bindings
                )
            )
            _expand_call(
                index, callee, action.signature_id, elements, chain + (action.id,), max_call_depth
            )
            append(
                ReturningSeffNode(
                    action.id, instance_id, action.result_variable, action.result_assignments
                )
            )
        elif isinstance(action, ReturnAction):
            append(SeffReturnNode(action.id, instance_id, action.assignments))
        else:  # anything else acts on variables
            append(SeffVariableNode(action.id, instance_id, action.assignments))
