"""Expand usage scenarios into immutable action sequences.

Every possible data flow through the architecture is represented as one
ordered list of sequence elements.  A call is flattened into a calling
bracket node, the callee's own elements, and a returning bracket node,
so calling and returning nodes always pair up like balanced parentheses.
Each scenario contributes one sequence, held as parts: runs of the
scenario's own elements, each but the last ending with a user call's
calling bracket, and between them the body of that call, nested calls
expanded in place.  A body is built once per extraction for its
(instance, signature) pair, and every sequence making the call holds it.

Sequence elements are tuple-backed records, built in bulk, one per
expanded action, and immutable.  Each class declares its ``kind``, its
``effect`` on the frame stack (see :mod:`flowcheck.kernel`) and whether
it runs on the user's node (``user_side``) or on its instance's.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .errors import CallDepthError, ExtractionError, UnknownElementError
from .kernel import APPLY, CALL, POP_BIND, PUSH
from .model import (
    DEFAULT_MAX_CALL_DEPTH,
    ArchitectureModel,
    ExternalCall,
    SystemCall,
    VariableAction,
    call_depth_message,
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


class UserStart(NamedTuple):
    """Opening element of every sequence; carries the user's frame."""

    element_id: str
    scenario_id: str

    kind = "UserStart"
    effect = PUSH
    user_side = True


class UserVariableNode(NamedTuple):
    element_id: str
    scenario_id: str
    assignments: tuple

    kind = "UserVariableNode"
    effect = APPLY
    user_side = True


class CallingUserNode(NamedTuple):
    """User-side bracket opening a system call; binds the parameters."""

    element_id: str
    scenario_id: str
    instance_id: str
    signature_id: str
    bindings: tuple

    kind = "CallingUserNode"
    effect = CALL
    user_side = True


class ReturningUserNode(NamedTuple):
    """User-side bracket closing a system call; receives the result."""

    element_id: str
    scenario_id: str
    result_variable: str | None
    result_assignments: tuple

    kind = "ReturningUserNode"
    effect = POP_BIND
    user_side = True


class SeffVariableNode(NamedTuple):
    element_id: str
    instance_id: str
    assignments: tuple

    kind = "SeffVariableNode"
    effect = APPLY
    user_side = False


class CallingSeffNode(NamedTuple):
    """Caller-side bracket opening an external call to another instance."""

    element_id: str
    instance_id: str
    callee_instance_id: str
    signature_id: str
    bindings: tuple

    kind = "CallingSeffNode"
    effect = CALL
    user_side = False


class ReturningSeffNode(NamedTuple):
    element_id: str
    instance_id: str
    result_variable: str | None
    result_assignments: tuple

    kind = "ReturningSeffNode"
    effect = POP_BIND
    user_side = False


class SeffReturnNode(NamedTuple):
    """A Return action; its assignments fill the RETURN variable."""

    element_id: str
    instance_id: str
    assignments: tuple

    kind = "SeffReturnNode"
    effect = APPLY
    user_side = False


class ActionSequence:
    """One complete data flow: an ordered, immutable list of elements.

    ``parts`` holds the elements in order; each odd part is the shared
    body of the user call that ends the part before it.  A hand-built
    sequence may be one part holding every element.  ``elements`` is
    built on first access; equality, hashing and ``repr`` see it.
    """

    __slots__ = ("scenario_id", "parts", "_elements")

    def __init__(self, scenario_id: str, parts):
        self.scenario_id = scenario_id
        self.parts = tuple(parts)
        self._elements = None

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple(itertools.chain.from_iterable(self.parts))
        return self._elements

    def __iter__(self) -> Iterator:
        return itertools.chain.from_iterable(self.parts)

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __getitem__(self, index):
        return self.elements[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, ActionSequence) and (
            self.scenario_id, self.elements) == (other.scenario_id, other.elements)

    def __hash__(self) -> int:
        return hash((self.scenario_id, self.elements))

    def __repr__(self) -> str:
        return f"ActionSequence(scenario_id={self.scenario_id!r}, elements={self.elements!r})"


def find_all_sequences(model: ArchitectureModel) -> list[ActionSequence]:
    """Extract one action sequence per usage scenario, in document order.

    Calls nested deeper than :data:`DEFAULT_MAX_CALL_DEPTH` raise a
    :class:`CallDepthError`, in models the loader has not checked.
    """
    index = index_of(model)
    bodies: dict = {}  # (instance, signature) -> body
    sequences = []
    for scenario in model.scenarios:
        parts: list = []
        run: list = [UserStart(scenario.id, scenario.id)]
        try:
            for action in scenario.actions:
                if not isinstance(action, SystemCall):
                    run.append(UserVariableNode(action.id, scenario.id, action.assignments))
                    continue
                run.append(CallingUserNode(action.id, scenario.id, action.instance_id,
                                           action.signature_id, action.bindings))
                key = (action.instance_id, action.signature_id)
                if key not in bodies:
                    # built at call depth one, as every user call is, so a
                    # body that fits once fits at every call
                    expanded: list = []
                    _expand_call(index, *key, expanded, (action.id,))
                    bodies[key] = tuple(expanded)
                parts += (tuple(run), bodies[key])
                run = [ReturningUserNode(action.id, scenario.id, action.result_variable,
                                         action.result_assignments)]
        except UnknownElementError as exc:
            raise ExtractionError(f"scenario '{scenario.id}': {exc}") from None
        parts.append(tuple(run))
        sequences.append(ActionSequence(scenario.id, parts))
    return sequences


def _expand_call(index, instance_id, signature_id, elements, chain):
    if len(chain) > DEFAULT_MAX_CALL_DEPTH:
        raise CallDepthError(call_depth_message(chain), chain)
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
            _expand_call(index, callee, action.signature_id, elements, chain + (action.id,))
            append(
                ReturningSeffNode(
                    action.id, instance_id, action.result_variable, action.result_assignments
                )
            )
        else:  # a ReturnAction
            append(SeffReturnNode(action.id, instance_id, action.assignments))
