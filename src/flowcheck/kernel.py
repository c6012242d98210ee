"""Propagation kernel: walks a sequence's elements over bitmask frames.

Masks are plain ints of arbitrary width, frames are dicts mapping
variable names to masks.  What an element does to the frame stack
follows its ``effect``; the assignments it runs come from a
``lower`` function that maps an assignment tuple to its ops, called
for each element of a part but the repeats in a run (below) before the
part is walked, and once per memo for a shared body.

Each assignment is one op ``(target, keep, value)``, applied as::

    frame[target] = (frame.get(target, 0) & keep) | value

``value`` is an int or a closure that maps the pre-state to a mask
inside ``~keep``.  ``keep == 0`` replaces the whole variable, and then
the closure's int is stored as returned, so that a full replacement by
another variable's mask shares that int instead of copying it.

All ops of one element read the frame state from before the element,
while writes land in declaration order, so later assignments win on
conflicting targets.  :func:`run_sequence` returns one delta per
element.  An APPLY delta is a tuple of the ``(variable, mask)`` pairs
the element changes: each target, once, whose final mask differs from
the frame before the element, or that the element creates, even at
mask 0.  An element that changes nothing gets the shared empty tuple
:data:`NO_CHANGE`.  So, as in semi-naive evaluation (Bancilhon &
Ramakrishnan 1986), whoever reads the deltas re-tests only what
changed; most writes in a forwarding body store the mask the variable
already holds.  Any other delta is the whole new top frame as a tuple
of pairs.  So a POP_BIND delta holds the whole caller frame; its own
writes are its result variable and its result-assignment targets.
The kernel also records where the top frame changes: every element but
an APPLY element that changes nothing.  Only it can, for the empty frame
a call that binds nothing pushes is :data:`NO_CHANGE` itself.

A run is an APPLY element and the APPLY elements right after it in its
part that repeat its assignments, when ``idempotent`` says that running
those twice gives what once does, as for gen/kill and identity transfer
functions (Kam & Ullman 1977).  The first is walked, the rest are one
step: :data:`NO_CHANGE` each, and no change position.

A callee frame holds only the bound parameters, so the deltas of a
call's body and the frame it returns depend only on the body and the
bound frame (Sharir & Pnueli 1981).  :func:`run_sequence` walks each
such context once per memo, and later calls get its deltas list itself.
"""

from __future__ import annotations

from itertools import repeat

from .errors import PropagationError
from .model import RETURN_VARIABLE

# An element's ``effect``, declared by its class: PUSH and CALL open a new
# top frame (CALL holds only the ``bindings``), APPLY writes the targets of
# ``assignments`` in it, and POP_BIND returns to the caller's frame and
# writes ``result_variable`` and the targets of ``result_assignments``.
PUSH = 0
APPLY = 1
CALL = 2
POP_BIND = 3
REPEAT = 4  # a step, not an element kind: a run of repeated idempotent APPLY elements

NO_CHANGE = ()  # the delta of every APPLY element that changes nothing


def assign(frame: dict, ops) -> tuple:
    """Run assignment ops in ``frame``, in place; return each distinct
    target whose mask they changed or created, with its new mask."""
    pre = frame.copy()
    for target, keep, value in ops:
        if type(value) is not int:
            value = value(pre)
        if keep:
            value |= frame.get(target, 0) & keep
        frame[target] = value
    changed = tuple(
        (target, mask)
        for target, mask in {op[0]: frame[op[0]] for op in ops}.items()
        if pre.get(target) != mask
    )
    return changed or NO_CHANGE


def run_sequence(parts, lower, memo=None, changes=None, idempotent=None) -> list[list]:
    """Walk a sequence's parts (see :class:`flowcheck.extraction.ActionSequence`)
    and return their deltas, one list per part.

    ``lower(assignments)`` returns the ops of an assignment tuple, and
    ``idempotent(assignments)``, if given, whether its runs are one step.
    A body's summary in ``memo`` is keyed by the body and its bound frame,
    the calling bracket's delta; its ops are lowered once per memo.
    ``changes``, a list if given, gets each part's change positions and length.
    """
    memo = {} if memo is None else memo
    lowered = memo.setdefault("lowered", {})
    changes = [] if changes is None else changes
    stack: list[dict] = []
    out: list[list] = []
    for n, part in enumerate(parts):
        if n % 2 == 0:
            summary = _walk(_steps(part, lower, idempotent), stack)
        else:
            previous = parts[n - 1]
            if not previous or getattr(previous[-1], "effect", None) != CALL:
                raise PropagationError("a shared body must follow a calling bracket")
            key = (id(part), out[-1][-1])
            summary = memo.get(key)
            if summary is None:
                steps = lowered.get(id(part))
                if steps is None:
                    steps = lowered[id(part)] = _steps(part, lower, idempotent)
                summary = memo[key] = (*_walk(steps, stack), stack[-1])
            else:
                stack[-1] = summary[2]
        out.append(summary[0])
        changes.append(summary[1])
    return out


def _steps(elements, lower, idempotent) -> list:
    """Each step: ``(effect, ops or None, element)``, or ``(REPEAT, count, None)``."""
    steps = []
    kind = assignments = run = None  # the type and assignments of the APPLY element before; its run
    for element in elements:
        if (type(element) is kind and element.assignments == assignments
                and idempotent and (run or idempotent(assignments))):
            if run is None:
                steps.append(run := [REPEAT, 0, None])
            run[1] += 1
            continue
        run = None
        effect = getattr(element, "effect", None)
        if effect == APPLY:
            kind, assignments = type(element), element.assignments
            steps.append((effect, lower(assignments), element))
            continue
        kind = None
        if effect == POP_BIND and element.result_assignments:
            steps.append((effect, lower(element.result_assignments), element))
        else:
            steps.append((effect, None, element))
    return steps


def _walk(steps, stack) -> tuple[list, list]:
    deltas: list = []
    changes: list = []
    append, change = deltas.append, changes.append
    for effect, ops, element in steps:
        if effect == APPLY:
            if not stack:
                raise PropagationError("no active frame")
            frame = stack[-1]
            if len(ops) != 1:
                if delta := assign(frame, ops):
                    change(len(deltas))
                append(delta)
                continue
            # one op, inline: it reads the frame before writing it
            ((target, keep, value),) = ops
            old = frame.get(target)
            if type(value) is not int:
                value = value(frame)
            if keep and old:
                value |= old & keep
            if value == old:
                append(NO_CHANGE)
            else:
                frame[target] = value
                change(len(deltas))
                append(((target, value),))
            continue
        if effect == REPEAT:  # the element before left nothing for these to change
            deltas.extend(repeat(NO_CHANGE, ops))
            continue
        if effect == PUSH:
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
            if ops:
                assign(frame, ops)
        else:
            raise PropagationError(
                f"unknown sequence element kind {type(element).__name__}"
            )
        change(len(deltas))  # also for an empty frame
        append(tuple(stack[-1].items()))
    change(len(deltas))
    return deltas, changes


def replay(elements, deltas) -> list[dict]:
    """Rebuild the top frame at each element from the deltas."""
    frames: list[dict] = []
    frame: dict = {}
    for element, delta in zip(elements, deltas):
        frame = frame.copy() if element.effect == APPLY else {}
        frame.update(delta)
        frames.append(frame)
    return frames
