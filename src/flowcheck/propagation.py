"""Propagate characteristic labels along extracted action sequences.

The walk keeps a stack of variable frames: the user frame opens the
sequence, every call pushes a fresh frame holding only the explicitly
bound parameters, and every return pops it, handing data back solely
through the reserved ``RETURN`` variable.  A variable therefore never
leaks into a callee unless the call binds it.

All assignments of one element are evaluated simultaneously against the
frame state before the element, then applied in declaration order, so
the last assignment wins per target label.  Wildcard assignments expand
over the data dictionary: a ``v.*.*`` target replaces the variable's
whole label set, a ``v.Type.*`` target replaces exactly that type's
labels and leaves the rest untouched.  A reference to a variable that is
not in scope simply evaluates to false.

Sequences are lowered to small opcode programs (see
:mod:`flowcheck.kernel`) and executed by the kernel; per-element results
snapshot the visible frame, so later queries never re-run the
propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel, terms
from .errors import DictionaryError, PropagationError
from .extraction import (
    ActionSequence,
    CallingSeffNode,
    CallingUserNode,
    ReturningSeffNode,
    ReturningUserNode,
    SeffReturnNode,
    SeffVariableNode,
    UserStart,
    UserVariableNode,
)
from .kernel import APPLY, CALL, POP_BIND, PUSH
from .labels import DataDictionary, LabelSet
from .model import ArchitectureModel, index_of

__all__ = [
    "DataFlowVariable",
    "ElementResult",
    "PropagatedSequence",
    "propagate",
    "evaluate_all",
    "evaluate_assignments",
    "propagation_runs",
]

_run_count = 0


def propagation_runs() -> int:
    """Number of sequence propagations performed so far in this process."""
    return _run_count


# ---------------------------------------------------------------------------
# lowering: assignments -> kernel programs


def _mask_expr(node, dictionary):
    tag = node[0]
    if tag == "ref":
        return (kernel.M_REF, node[1])
    if tag == "const":
        return (kernel.M_CONST, dictionary.universe_mask if node[1] else 0)
    if tag == "not":
        return (kernel.M_NOT, _mask_expr(node[1], dictionary), dictionary.universe_mask)
    if tag == "and":
        return (kernel.M_AND, _mask_expr(node[1], dictionary), _mask_expr(node[2], dictionary))
    return (kernel.M_OR, _mask_expr(node[1], dictionary), _mask_expr(node[2], dictionary))


def _bool_term(node, dictionary, value):
    # value substitutes wildcard value segments when expanding a v.Type.*
    # target per dictionary value; concrete refs ignore it
    tag = node[0]
    if tag == "ref":
        _, var, type_name, ref_value = node
        if ref_value is None:
            ref_value = value
            if not dictionary.has_label(type_name, ref_value):
                return (kernel.B_CONST, False)
        return (kernel.B_REF, var, 1 << dictionary.bit(type_name, ref_value))
    if tag == "const":
        return (kernel.B_CONST, node[1])
    if tag == "not":
        return (kernel.B_NOT, _bool_term(node[1], dictionary, value))
    if tag == "and":
        return (
            kernel.B_AND,
            _bool_term(node[1], dictionary, value),
            _bool_term(node[2], dictionary, value),
        )
    return (
        kernel.B_OR,
        _bool_term(node[1], dictionary, value),
        _bool_term(node[2], dictionary, value),
    )


def _fold(term):
    tag = term[0]
    if tag == kernel.B_NOT:
        sub = _fold(term[1])
        if sub[0] == kernel.B_CONST:
            return (kernel.B_CONST, not sub[1])
        return (kernel.B_NOT, sub)
    if tag == kernel.B_AND or tag == kernel.B_OR:
        left = _fold(term[1])
        right = _fold(term[2])
        conjunction = tag == kernel.B_AND
        if left[0] == kernel.B_CONST:
            if left[1] == conjunction:
                return right
            return (kernel.B_CONST, not conjunction)
        if right[0] == kernel.B_CONST:
            if right[1] == conjunction:
                return left
            return (kernel.B_CONST, not conjunction)
        return (tag, left, right)
    return term


def _expr_reads(expr) -> bool:
    tag = expr[0]
    if tag == kernel.M_REF:
        return True
    if tag == kernel.M_NOT:
        return _expr_reads(expr[1])
    if tag == kernel.M_AND or tag == kernel.M_OR:
        return _expr_reads(expr[1]) or _expr_reads(expr[2])
    return False


def _op_reads(op) -> bool:
    code = op[0]
    if code == kernel.A_MASK_FULL or code == kernel.A_MASK_REGION:
        return _expr_reads(op[2])
    # A_EVAL pairs only survive folding when they reference variables
    return code == kernel.A_EVAL


def _build_program(dictionary, assignments):
    ops = []
    for a in assignments:
        arity = a.wildcard_arity()
        target = a.target_var
        if arity == 2:
            # v.*.* covers every dictionary label: full replacement
            ops.append((kernel.A_MASK_FULL, target, _mask_expr(a.rhs, dictionary)))
        elif arity == 1:
            region = dictionary.type_mask(a.target_type)
            aligned = all(ref[2] == a.target_type for ref in terms.iter_refs(a.rhs))
            if aligned:
                # same type on both sides: value positions line up bitwise
                ops.append(
                    (kernel.A_MASK_REGION, target, _mask_expr(a.rhs, dictionary), region)
                )
            else:
                pairs = []
                add = 0
                clear = 0
                for value in dictionary.values_of(a.target_type):
                    bit = 1 << dictionary.bit(a.target_type, value)
                    term = _fold(_bool_term(a.rhs, dictionary, value))
                    if term[0] == kernel.B_CONST:
                        if term[1]:
                            add |= bit
                        else:
                            clear |= bit
                    else:
                        pairs.append((bit, term))
                # the three pieces touch disjoint bits of one target
                if pairs:
                    ops.append((kernel.A_EVAL, target, tuple(pairs)))
                if add:
                    ops.append((kernel.A_ADD, target, add))
                if clear or not (pairs or add):
                    # also materialises the variable when nothing else does
                    ops.append((kernel.A_CLEAR, target, clear))
        else:
            bit = 1 << dictionary.bit(a.target_type, a.target_value)
            term = _fold(_bool_term(a.rhs, dictionary, None))
            if term[0] == kernel.B_CONST:
                ops.append((kernel.A_ADD, target, bit) if term[1] else (kernel.A_CLEAR, target, bit))
            else:
                ops.append((kernel.A_EVAL, target, ((bit, term),)))
    needs_pre = any(_op_reads(op) for op in ops)
    return (needs_pre, tuple(ops))


def _lower_program(dictionary: DataDictionary, assignments: tuple):
    cache = dictionary.lower_cache
    program = cache.get(assignments)
    if program is None:
        program = _build_program(dictionary, assignments)
        cache[assignments] = program
    return program


# What each element kind does to the frame stack.  _lower_sequence lowers
# by this table, and the constraint query follows it to re-test only the
# variables an element writes, so the kernel and the query cannot drift
# apart.  PUSH and CALL open a new top frame, APPLY writes the targets of
# ``assignments`` in it, and POP_BIND returns to the caller's frame and
# writes ``result_variable`` and the targets of ``result_assignments``.
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

_USER_SIDE = frozenset({UserStart, UserVariableNode, CallingUserNode, ReturningUserNode})


def _lower_sequence(model: ArchitectureModel, sequence: ActionSequence):
    dictionary = model.dictionary
    index = index_of(model)
    user_mask = index.scenario(sequence.scenario_id).user_labels.mask
    ops = []
    masks = []
    for element in sequence.elements:
        kind = type(element)
        try:
            code = FRAME_EFFECTS[kind]
        except KeyError:
            raise PropagationError(f"unknown sequence element kind {kind.__name__}") from None
        if code == APPLY:
            ops.append((APPLY, _lower_program(dictionary, element.assignments)[1]))
        elif code == CALL:
            ops.append((CALL, element.bindings))
        elif code == POP_BIND:
            program = (
                _lower_program(dictionary, element.result_assignments)
                if element.result_assignments
                else None
            )
            ops.append((POP_BIND, element.result_variable, program))
        else:
            ops.append((PUSH,))
        # a seff's calling bracket still runs on the caller's node
        masks.append(user_mask if kind in _USER_SIDE else index.node_mask(element.instance_id))
    return ops, masks


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True, slots=True)
class DataFlowVariable:
    """One variable visible at a sequence element, with its labels."""

    name: str
    labels: LabelSet

    def has_data_characteristic(self, type_name: str, value: str) -> bool:
        return self.labels.has(type_name, value)


class ElementResult:
    """Propagation outcome at one element: node labels plus visible data.

    Holds the raw frame snapshot; :class:`DataFlowVariable` objects are
    materialised lazily because most queries only touch a few elements.
    """

    __slots__ = ("element", "_node_mask", "_frame", "_dictionary", "_variables")

    def __init__(self, element, node_mask: int, frame: dict, dictionary: DataDictionary):
        self.element = element
        self._node_mask = node_mask
        self._frame = frame
        self._dictionary = dictionary
        self._variables = None

    @property
    def dictionary(self) -> DataDictionary:
        return self._dictionary

    @property
    def node_labels(self) -> LabelSet:
        return LabelSet(self._dictionary, self._node_mask)

    def has_node_characteristic(self, type_name: str, value: str) -> bool:
        return bool(self._node_mask >> self._dictionary.bit(type_name, value) & 1)

    @property
    def variables(self) -> tuple[DataFlowVariable, ...]:
        """All in-scope variables, sorted by name."""
        if self._variables is None:
            dictionary = self._dictionary
            self._variables = tuple(
                DataFlowVariable(name, LabelSet(dictionary, mask))
                for name, mask in sorted(self._frame.items())
            )
        return self._variables

    def variable(self, name: str) -> DataFlowVariable | None:
        mask = self._frame.get(name)
        if mask is None:
            return None
        return DataFlowVariable(name, LabelSet(self._dictionary, mask))

    def variable_names(self) -> list[str]:
        return sorted(self._frame)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementResult):
            return NotImplemented
        return (
            self.element == other.element
            and self._node_mask == other._node_mask
            and self._frame == other._frame
            and self._dictionary == other._dictionary
        )

    def __repr__(self) -> str:
        kind = getattr(self.element, "kind", type(self.element).__name__)
        return (
            f"ElementResult({kind} {self.element.element_id!r}, "
            f"{len(self._frame)} variable(s))"
        )


class PropagatedSequence:
    """An action sequence together with one result per element.

    The canonical state is two parallel arrays, ``node_masks`` and
    ``frames``, aligned with ``sequence.elements``; bulk consumers read
    those directly.  The :class:`ElementResult` views in ``results`` are
    built on first access.  Frame dicts must be treated as read-only.
    """

    __slots__ = ("sequence", "node_masks", "frames", "_dictionary", "_results")

    def __init__(self, sequence: ActionSequence, node_masks, frames, dictionary):
        self.sequence = sequence
        self.node_masks = tuple(node_masks)
        self.frames = tuple(frames)
        self._dictionary = dictionary
        self._results = None

    @classmethod
    def from_results(cls, sequence: ActionSequence, results) -> "PropagatedSequence":
        """Build from pre-made :class:`ElementResult` objects."""
        results = tuple(results)
        dictionary = results[0]._dictionary if results else None
        self = cls(
            sequence,
            [r._node_mask for r in results],
            [r._frame for r in results],
            dictionary,
        )
        self._results = results
        return self

    @property
    def dictionary(self) -> DataDictionary:
        return self._dictionary

    @property
    def results(self) -> tuple[ElementResult, ...]:
        if self._results is None:
            elements = self.sequence.elements
            node_masks = self.node_masks
            frames = self.frames
            dictionary = self._dictionary
            self._results = tuple(
                ElementResult(elements[i], node_masks[i], frames[i], dictionary)
                for i in range(len(elements))
            )
        return self._results

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.node_masks)

    def __getitem__(self, index):
        return self.results[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PropagatedSequence):
            return NotImplemented
        return (
            self.sequence == other.sequence
            and self.node_masks == other.node_masks
            and self.frames == other.frames
            and self._dictionary == other._dictionary
        )

    def __repr__(self) -> str:
        return f"PropagatedSequence({self.sequence.scenario_id!r}, {len(self.node_masks)} elements)"


# ---------------------------------------------------------------------------
# public entry points


def propagate(model: ArchitectureModel, sequence: ActionSequence) -> PropagatedSequence:
    """Run label propagation over one sequence.

    Each call counts as one propagation run.
    """
    global _run_count
    ops, masks = _lower_sequence(model, sequence)
    snapshots = kernel.run_sequence(ops)
    _run_count += 1
    return PropagatedSequence(sequence, masks, snapshots, model.dictionary)


def evaluate_all(model: ArchitectureModel, sequences) -> list[PropagatedSequence]:
    """Propagate every sequence; order follows the input."""
    return [propagate(model, sequence) for sequence in sequences]


def evaluate_assignments(
    dictionary: DataDictionary, assignments, variables
) -> tuple[DataFlowVariable, ...]:
    """Apply one action's assignments to a set of in-scope variables.

    Standalone form of the per-element step, useful for testing single
    actions; returns the resulting variables sorted by name.
    """
    frame: dict[str, int] = {}
    for variable in variables:
        owner = variable.labels.dictionary
        if owner is not dictionary and owner != dictionary:
            raise DictionaryError(
                f"variable '{variable.name}' belongs to a different data dictionary"
            )
        frame[variable.name] = variable.labels.mask
    kernel.run_program(frame, _lower_program(dictionary, tuple(assignments)))
    return tuple(
        DataFlowVariable(name, LabelSet(dictionary, mask))
        for name, mask in sorted(frame.items())
    )
