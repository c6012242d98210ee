"""Propagation kernel: walks a sequence's elements over bitmask frames.

Masks are plain ints of arbitrary width, frames are dicts mapping
variable names to masks.  What an element does to the frame stack
follows :data:`FRAME_EFFECTS`; the assignments it runs come from a
``lower`` function that maps an assignment tuple to its ops.

Each assignment is one op ``(target, keep, value)``, applied as::

    frame[target] = (frame.get(target, 0) & keep) | value

``value`` is an int or a closure that maps the pre-state to a mask
inside ``~keep``.  ``keep == 0`` replaces the whole variable, and then
the closure's int is stored as returned, so that a full replacement by
another variable's mask shares that int instead of copying it.

All ops of one element read the frame state from before the element,
while writes land in declaration order, so later assignments win on
conflicting targets.  An assignment element reads the previous
element's snapshot, which already is a copy of that state; result
assignments run after the return changed the frame, so they read a
copy of it.
"""

from __future__ import annotations

from .errors import PropagationError
from .extraction import (
    CallingSeffNode,
    CallingUserNode,
    ReturningSeffNode,
    ReturningUserNode,
    SeffReturnNode,
    SeffVariableNode,
    UserStart,
    UserVariableNode,
)
from .model import RETURN_VARIABLE

PUSH = 0
APPLY = 1
CALL = 2
POP_BIND = 3

# What each element kind does to the frame stack.  The kernel walks by
# this table, and the constraint query follows it to re-test only the
# variables an element writes, so the two cannot drift apart.  PUSH and
# CALL open a new top frame (CALL holds only the ``bindings``), APPLY
# writes the targets of ``assignments`` in it, and POP_BIND returns to
# the caller's frame and writes ``result_variable`` and the targets of
# ``result_assignments``.
FRAME_EFFECTS = {
    UserStart: PUSH,
    UserVariableNode: APPLY,
    SeffVariableNode: APPLY,
    SeffReturnNode: APPLY,
    CallingUserNode: CALL,
    CallingSeffNode: CALL,
    ReturningUserNode: POP_BIND,
    ReturningSeffNode: POP_BIND,
}


def apply_assignments(frame: dict, pre: dict, ops) -> None:
    """Run assignment ops in ``frame``, in place, reading from ``pre``."""
    for target, keep, value in ops:
        if type(value) is not int:
            value = value(pre)
        if keep:
            frame[target] = (frame.get(target, 0) & keep) | value
        else:
            frame[target] = value


def run_program(frame: dict, ops) -> None:
    """Run assignment ops in ``frame``, in place, reading a copy of it."""
    apply_assignments(frame, frame.copy(), ops)


def run_sequence(elements, lower) -> list[dict]:
    """Walk the elements and return one frame snapshot per element.

    ``lower(assignments)`` returns the ops of an assignment tuple.
    """
    stack: list[dict] = []
    snapshots: list[dict] = []
    for element in elements:
        effect = FRAME_EFFECTS.get(type(element))
        if effect == APPLY:
            if not stack:
                raise PropagationError("no active frame")
            # the previous snapshot is a copy of the top frame as it stands,
            # so it serves as the pre-state without another copy
            apply_assignments(stack[-1], snapshots[-1], lower(element.assignments))
        elif effect == PUSH:
            stack.append({})
        elif effect == CALL:
            if not stack:
                raise PropagationError("no active frame")
            caller = stack[-1]
            frame = {}
            for param, var in element.bindings:
                try:
                    frame[param] = caller[var]
                except KeyError:
                    raise PropagationError(
                        f"call binds parameter '{param}' to missing variable '{var}'"
                    ) from None
            stack.append(frame)
        elif effect == POP_BIND:
            if len(stack) < 2:
                raise PropagationError("sequence pops more frames than it pushed")
            returned = stack.pop()
            frame = stack[-1]
            if element.result_variable is not None:
                frame[element.result_variable] = returned.get(RETURN_VARIABLE, 0)
            if element.result_assignments:
                run_program(frame, lower(element.result_assignments))
        else:
            raise PropagationError(
                f"unknown sequence element kind {type(element).__name__}"
            )
        snapshots.append(stack[-1].copy())
    return snapshots
