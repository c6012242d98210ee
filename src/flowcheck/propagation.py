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

The kernel (:mod:`flowcheck.kernel`) walks a sequence's parts and
returns what each element changes in the visible frame, so later
queries never re-run the propagation; the sequences of one analysis
share the deltas of each call context and the node masks of each body.
Each assignment lowers here, once per distinct
assignment tuple, to one kernel op that keeps the target's bits outside the
assigned region and ors in the new ones.  Its value is an int when the
term folds to a constant, and otherwise a closure over the frame state
before the element: a right-hand side whose value positions line up
with the target's becomes one mask-valued closure, any other is compiled
per target label by :func:`flowcheck.terms.compile_truth`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from itertools import chain

from . import kernel, terms
from .errors import DictionaryError
from .extraction import (
    ActionSequence,
    CallingUserNode,
    ReturningUserNode,
    UserStart,
    UserVariableNode,
)
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
# lowering: assignments -> kernel ops


def _mask_fn(node, universe):
    """Compile a term into a closure mapping the pre-state to a mask.

    A reference yields the variable's whole mask, so this serves targets
    whose value positions line up bitwise with the references'.  Every
    mask lies within ``universe``, so an ``&`` chain starts from it.
    """
    tag = node[0]
    if tag == "ref":
        var = node[1]
        return lambda pre: pre.get(var, 0)
    if tag == "const":
        mask = universe if node[1] else 0
        return lambda pre: mask
    fns = []
    for operand in node[1:]:
        fns.append(_mask_fn(operand, universe))
    if tag == "not":
        # complement within the dictionary universe so it stays bounded
        return lambda pre: universe & ~fns[0](pre)
    combine, start = (operator.and_, universe) if tag == "and" else (operator.or_, 0)

    def chain(pre):
        mask = start
        for fn in fns:
            mask = combine(mask, fn(pre))
        return mask
    return chain


def _truth_ref(dictionary, value):
    # value substitutes wildcard value segments when expanding a v.Type.*
    # target per dictionary value; concrete refs ignore it
    def ref(node):
        _, var, type_name, ref_value = node
        if ref_value is None:
            ref_value = value
            if not dictionary.has_label(type_name, ref_value):
                return False
        bit = 1 << dictionary.bit(type_name, ref_value)
        return lambda pre: pre.get(var, 0) & bit != 0

    return ref


def _build_program(dictionary, assignments):
    ops = []
    for a in assignments:
        arity = a.wildcard_arity()
        if arity == 2:
            # v.*.* covers every dictionary label: full replacement
            ops.append((a.target_var, 0, _mask_fn(a.rhs, dictionary.universe_mask)))
            continue
        if arity == 1:
            region = dictionary.type_mask(a.target_type)
        else:
            region = 1 << dictionary.bit(a.target_type, a.target_value)
        # one int per region, shared by every op that keeps the rest
        keep = dictionary.keep_cache.setdefault(region, ~region)
        if arity == 0:
            bits = [(region, _truth_ref(dictionary, None))]
        elif all(ref[2] == a.target_type for ref in a.refs):
            # same type on both sides: value positions line up bitwise
            fn = _mask_fn(a.rhs, dictionary.universe_mask)
            ops.append((a.target_var, keep, _region_fn(fn, region)))
            continue
        else:
            bits = [
                (1 << dictionary.bit(a.target_type, value), _truth_ref(dictionary, value))
                for value in dictionary.values_of(a.target_type)
            ]
        # each target bit is set where its test holds: fold the constant
        # tests into ``add`` and keep the others for the pre-state
        add = 0
        pairs = []
        for bit, ref in bits:
            test = terms.compile_truth(a.rhs, ref)
            if test is True:
                add |= bit
            elif test is not False:
                pairs.append((bit, test))
        ops.append((a.target_var, keep, _bits_fn(add, pairs) if pairs else add))
    return tuple(ops)


def _region_fn(fn, region):
    return lambda pre: fn(pre) & region


def _bits_fn(add, pairs):
    def value(pre):
        mask = add
        for bit, test in pairs:
            if test(pre):
                mask |= bit
        return mask

    return value


def _lower_program(dictionary: DataDictionary, assignments: tuple):
    cache = dictionary.lower_cache
    program = cache.get(assignments)
    if program is None:
        program = _build_program(dictionary, assignments)
        cache[assignments] = program
    return program


# a seff's calling bracket still runs on the caller's node
_USER_SIDE = frozenset({UserStart, UserVariableNode, CallingUserNode, ReturningUserNode})


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

    Holds the visible frame; :class:`DataFlowVariable` objects are
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

    The canonical state is ``parts``: the node masks and the deltas (see
    :mod:`flowcheck.kernel`) of each part of ``sequence.parts``.  An
    assignment element's delta holds only the variables it changed, so
    its frame is the frame before it updated with its delta.  The flat
    ``node_masks`` and ``deltas``, the ``frames`` they replay to and the
    :class:`ElementResult` views in ``results`` are built on first
    access, and must be treated as read-only.
    """

    __slots__ = ("sequence", "parts", "_dictionary", "_node_masks", "_deltas", "_frames", "_results")

    def __init__(self, sequence: ActionSequence, parts, dictionary):
        self.sequence = sequence
        self.parts = tuple(parts)
        self._dictionary = dictionary
        self._node_masks = self._deltas = self._frames = self._results = None

    def _each(self, field: int):
        """Iterate the node masks (``field`` 0) or the deltas (1) of every part."""
        return chain.from_iterable(part[field] for part in self.parts)

    @property
    def node_masks(self) -> tuple:
        if self._node_masks is None:
            self._node_masks = tuple(self._each(0))
        return self._node_masks

    @property
    def deltas(self) -> tuple:
        if self._deltas is None:
            self._deltas = tuple(self._each(1))
        return self._deltas

    @property
    def frames(self) -> tuple[dict, ...]:
        if self._frames is None:
            self._frames = tuple(kernel.replay(self.sequence, self._each(1)))
        return self._frames

    @property
    def dictionary(self) -> DataDictionary:
        return self._dictionary

    @property
    def results(self) -> tuple[ElementResult, ...]:
        if self._results is None:
            dictionary = self._dictionary
            self._results = tuple(
                ElementResult(element, node_mask, frame, dictionary)
                for element, node_mask, frame in zip(self.sequence, self._each(0), self.frames)
            )
        return self._results

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return sum(len(masks) for masks, _ in self.parts)

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
        return f"PropagatedSequence({self.sequence.scenario_id!r}, {len(self)} elements)"


# ---------------------------------------------------------------------------
# public entry points


def propagate(model: ArchitectureModel, sequence: ActionSequence, memo=None) -> PropagatedSequence:
    """Run label propagation over one sequence.

    ``memo`` holds the call summaries and lowered bodies of
    :func:`flowcheck.kernel.run_sequence` and each body's node masks;
    the sequences that share one must outlive it.  Each call counts as
    one propagation run.
    """
    global _run_count
    dictionary = model.dictionary
    memo = {} if memo is None else memo
    # the walk comes first, so an element of unknown kind is reported as
    # such before its node is looked up
    deltas = kernel.run_sequence(sequence.parts, partial(_lower_program, dictionary), memo)
    index = index_of(model)
    user_mask = index.scenario(sequence.scenario_id).user_labels.mask

    def masks_of(elements):
        return [
            user_mask if type(element) in _USER_SIDE else index.node_mask(element.instance_id)
            for element in elements
        ]

    parts = []
    for n, (elements, part_deltas) in enumerate(zip(sequence.parts, deltas)):
        if n % 2:  # a body holds no user-side element
            masks = memo.get(id(elements))
            if masks is None:
                masks = memo[id(elements)] = masks_of(elements)
        else:
            masks = masks_of(elements)
        parts.append((masks, part_deltas))
    _run_count += 1
    return PropagatedSequence(sequence, parts, dictionary)


def evaluate_all(model: ArchitectureModel, sequences) -> list[PropagatedSequence]:
    """Propagate every sequence, sharing one memo; order follows the input."""
    memo: dict = {}
    return [propagate(model, sequence, memo) for sequence in sequences]


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
    kernel.assign(frame, _lower_program(dictionary, tuple(assignments)))
    return tuple(
        DataFlowVariable(name, LabelSet(dictionary, mask))
        for name, mask in sorted(frame.items())
    )
