"""Propagation kernel: the op encoding and its interpreter.

A sequence is lowered to a flat list of element ops; each op is a plain
tuple with an int opcode first, so the kernel dispatches without
touching the model layer.  Masks are plain ints of arbitrary width,
frames are dicts mapping variable names to masks.

Element ops:

    (PUSH,)                                   push an empty frame
    (APPLY, assign_ops)                       run assignments in the top frame
    (CALL, bindings)                          push a frame holding only the
                                              bound parameters; ``bindings``
                                              is ((param, caller_var), ...)
    (POP_BIND, result_var, program_or_None)   pop the callee frame, bind its
                                              RETURN mask to ``result_var`` in
                                              the caller, then run the result
                                              program there

Assignment ops (``target`` is a variable name):

    (A_ADD, target, mask)                     or the mask in
    (A_CLEAR, target, mask)                   remove the mask
    (A_MASK_FULL, target, expr)               replace the whole variable
    (A_MASK_REGION, target, expr, region)     replace only the region bits
    (A_EVAL, target, ((bit, term), ...))      per-label truth evaluation

Mask expressions (evaluate to an int mask against the pre-state):

    (M_CONST, mask) | (M_REF, var) | (M_NOT, sub, universe)
    | (M_AND, a, b) | (M_OR, a, b)

Boolean terms (evaluate to a truth value against the pre-state):

    (B_CONST, bool) | (B_REF, var, mask) | (B_NOT, sub)
    | (B_AND, a, b) | (B_OR, a, b)

A program is a pair ``(needs_pre, assign_ops)``; ``needs_pre`` marks
programs whose ops read variables at all.

All assignment ops of one element read the frame state from before the
element, while writes land in declaration order, so later assignments
win on conflicting targets.  APPLY reads the previous element's
snapshot, which already is a copy of that state; a program run after
the frame changed within the element copies the frame first when it
reads.
"""

from __future__ import annotations

from .errors import PropagationError

PUSH = 0
APPLY = 1
CALL = 2
POP_BIND = 3

A_ADD = 0
A_CLEAR = 1
A_MASK_FULL = 2
A_MASK_REGION = 3
A_EVAL = 4

M_CONST = 0
M_REF = 1
M_NOT = 2
M_AND = 3
M_OR = 4

B_CONST = 0
B_REF = 1
B_NOT = 2
B_AND = 3
B_OR = 4

RETURN_VAR = "RETURN"


def _mask(expr, env) -> int:
    tag = expr[0]
    if tag == M_REF:
        return env.get(expr[1], 0)
    if tag == M_CONST:
        return expr[1]
    if tag == M_AND:
        return _mask(expr[1], env) & _mask(expr[2], env)
    if tag == M_OR:
        return _mask(expr[1], env) | _mask(expr[2], env)
    # M_NOT carries the dictionary universe so complement stays bounded
    return expr[2] & ~_mask(expr[1], env)


def _truth(term, env) -> bool:
    tag = term[0]
    if tag == B_REF:
        return env.get(term[1], 0) & term[2] != 0
    if tag == B_CONST:
        return term[1]
    if tag == B_NOT:
        return not _truth(term[1], env)
    if tag == B_AND:
        return _truth(term[1], env) and _truth(term[2], env)
    return _truth(term[1], env) or _truth(term[2], env)


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
            frame[op[1]] = _mask(op[2], pre)
        elif code == A_MASK_REGION:
            target = op[1]
            region = op[3]
            frame[target] = (frame.get(target, 0) & ~region) | (_mask(op[2], pre) & region)
        elif code == A_CLEAR:
            target = op[1]
            frame[target] = frame.get(target, 0) & ~op[2]
        else:  # A_EVAL
            add = 0
            clear = 0
            for bit, term in op[2]:
                if _truth(term, pre):
                    add |= bit
                else:
                    clear |= bit
            target = op[1]
            frame[target] = (frame.get(target, 0) & ~clear) | add


def run_program(frame: dict, program) -> None:
    """Run a ``(needs_pre, assign_ops)`` program in ``frame``, in place."""
    needs_pre, assign_ops = program
    apply_assignments(frame, frame.copy() if needs_pre else frame, assign_ops)


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
                frame[result_var] = returned.get(RETURN_VAR, 0)
            if op[2] is not None:
                run_program(frame, op[2])
        else:
            raise PropagationError(f"unknown element op {code}")
        snapshots.append(stack[-1].copy())
    return snapshots
