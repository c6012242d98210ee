"""Propagation kernel: the op encoding and its interpreter.

A sequence is lowered to a flat list of element ops; each op is a plain
tuple with an int opcode first, so the kernel dispatches without
touching model objects.  Masks are plain ints of arbitrary width,
frames are dicts mapping variable names to masks.

Element ops:

    (PUSH,)                                   push an empty frame
    (APPLY, assign_ops)                       run assignments in the top frame
    (CALL, bindings)                          push a frame holding only the
                                              bound parameters; ``bindings``
                                              is ((param, caller_var), ...)
    (POP_BIND, result_var, ops_or_None)       pop the callee frame, bind its
                                              RETURN mask to ``result_var`` in
                                              the caller, then run the result
                                              assignment ops there

Assignment ops (``target`` is a variable name):

    (A_ADD, target, mask)                     or the mask in
    (A_CLEAR, target, mask)                   remove the mask
    (A_MASK_FULL, target, fn)                 replace the whole variable
    (A_MASK_REGION, target, fn, region)       replace only the region bits
    (A_EVAL, target, ((bit, test), ...))      set each bit where test holds

``fn`` maps the pre-state to a mask and ``test`` maps it to a truth
value; both are closures compiled by :mod:`flowcheck.propagation`.

All assignment ops of one element read the frame state from before the
element, while writes land in declaration order, so later assignments
win on conflicting targets.  APPLY reads the previous element's
snapshot, which already is a copy of that state; result assignment ops
run after the return changed the frame, so they read a copy of it.
"""

from __future__ import annotations

from .errors import PropagationError
from .model import RETURN_VARIABLE

PUSH = 0
APPLY = 1
CALL = 2
POP_BIND = 3

A_ADD = 0
A_CLEAR = 1
A_MASK_FULL = 2
A_MASK_REGION = 3
A_EVAL = 4


def apply_assignments(frame: dict, pre: dict, assign_ops) -> None:
    """Run assignment ops in ``frame``, in place, reading from ``pre``.

    ``pre`` holds the frame state from before the ops started; writes
    land in order, so the last assignment wins per target label.
    """
    for op in assign_ops:
        code = op[0]
        if code == A_ADD:
            target = op[1]
            frame[target] = frame.get(target, 0) | op[2]
        elif code == A_MASK_FULL:
            frame[op[1]] = op[2](pre)
        elif code == A_MASK_REGION:
            target = op[1]
            region = op[3]
            frame[target] = (frame.get(target, 0) & ~region) | (op[2](pre) & region)
        elif code == A_CLEAR:
            target = op[1]
            frame[target] = frame.get(target, 0) & ~op[2]
        else:  # A_EVAL
            add = 0
            clear = 0
            for bit, test in op[2]:
                if test(pre):
                    add |= bit
                else:
                    clear |= bit
            target = op[1]
            frame[target] = (frame.get(target, 0) & ~clear) | add


def run_program(frame: dict, assign_ops) -> None:
    """Run assignment ops in ``frame``, in place, reading a copy of it."""
    apply_assignments(frame, frame.copy(), assign_ops)


def run_sequence(ops) -> list[dict]:
    """Execute element ops and return one frame snapshot per element."""
    stack: list[dict] = []
    snapshots: list[dict] = []
    for op in ops:
        code = op[0]
        if code == APPLY:
            if not stack:
                raise PropagationError("no active frame")
            # the previous snapshot is a copy of the top frame as it stands,
            # so it serves as the pre-state without another copy
            apply_assignments(stack[-1], snapshots[-1], op[1])
        elif code == PUSH:
            stack.append({})
        elif code == CALL:
            if not stack:
                raise PropagationError("no active frame")
            caller = stack[-1]
            frame = {}
            for param, var in op[1]:
                try:
                    frame[param] = caller[var]
                except KeyError:
                    raise PropagationError(
                        f"call binds parameter '{param}' to missing variable '{var}'"
                    ) from None
            stack.append(frame)
        elif code == POP_BIND:
            if len(stack) < 2:
                raise PropagationError("sequence pops more frames than it pushed")
            returned = stack.pop()
            frame = stack[-1]
            result_var = op[1]
            if result_var is not None:
                frame[result_var] = returned.get(RETURN_VARIABLE, 0)
            if op[2] is not None:
                run_program(frame, op[2])
        else:
            raise PropagationError(f"unknown element op {code}")
        snapshots.append(stack[-1].copy())
    return snapshots
