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
returns what each element changes in the visible frame, and where, so later
queries never re-run the propagation; the sequences of one analysis
share the deltas of each call context and the node masks of each body.
Each assignment lowers here, once per distinct assignment tuple, to one
kernel op that keeps the target's bits outside the assigned region and
ors in the new ones.  The region is the target's one bit, its type's
bits or the whole dictionary, and :func:`flowcheck.terms.compile_mask`
compiles the right-hand side over it into an int, when the term folds
to a constant, or a closure over the frame state before the element.
A reference's wildcard arity must equal the target's.  A concrete
reference gives the whole region or nothing; a reference of the
target's type (or ``v.*.*`` under a ``v.*.*`` target) gives the
variable's mask within the region; a reference of another type moves
each value it shares with the target's type onto the target's bit.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

from . import kernel, terms
from .errors import DictionaryError
from .extraction import ActionSequence
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


def _build_program(dictionary, assignments):
    ops = []
    for a in assignments:
        arity = a.wildcard_arity()
        if arity == 2:
            region = dictionary.universe_mask
        elif arity == 1:
            region = dictionary.type_mask(a.target_type)
        else:
            region = 1 << dictionary.bit(a.target_type, a.target_value)
        value = terms.compile_mask(a.rhs, region, partial(_ref_mask, dictionary, a, region))
        # v.*.* replaces the whole variable; any other target keeps what
        # lies outside its region, with one int per region for every op
        keep = 0 if arity == 2 else dictionary.keep_cache.setdefault(region, ~region)
        ops.append((a.target_var, keep, value))
    return tuple(ops)


def _ref_mask(dictionary, a, region, node):
    """Compile one reference of assignment ``a`` into its mask within ``region``."""
    _, var, type_name, value = node
    arity, target_arity = terms.wildcard_arity(type_name, value), a.wildcard_arity()
    if arity != target_arity:
        raise DictionaryError(f"reference '{var}' has wildcard arity {arity}, target has {target_arity}")
    if arity == 0:
        bit = 1 << dictionary.bit(type_name, value)
        return lambda pre: region if pre.get(var, 0) & bit else 0
    if type_name == a.target_type:
        # value positions line up with the target's; a whole copy under
        # v.*.* shares the variable's int
        if region == dictionary.universe_mask:
            return lambda pre: pre.get(var, 0)
        return lambda pre: pre.get(var, 0) & region
    # another type, which must exist: each value it shares with the
    # target's type moves onto the target's bit for that value
    moves = [
        (1 << dictionary.bit(type_name, shared), 1 << dictionary.bit(a.target_type, shared))
        for shared in dictionary.values_of(type_name)
        if dictionary.has_label(a.target_type, shared)
    ]
    if not moves:
        return 0

    def moved(pre):
        mask = pre.get(var, 0)
        return sum(target for source, target in moves if mask & source)
    return moved


def _idempotent(assignments: tuple) -> bool:
    """Whether no op reads a variable the assignments write, unless it copies its own target."""
    written = {a.target_var for a in assignments}
    return all(a.rhs == ("ref", a.target_var, a.target_type, a.target_value)
               or written.isdisjoint(ref[1] for ref in a.refs) for a in assignments)


def _lower_program(dictionary: DataDictionary, assignments: tuple):
    cache = dictionary.lower_cache
    program = cache.get(assignments)
    if program is None:
        program = _build_program(dictionary, assignments)
        cache[assignments] = program
    return program


# ---------------------------------------------------------------------------
# results


class DataFlowVariable(NamedTuple):
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
    its frame is the frame before it updated with its delta.  ``changes``
    holds each part's positions where its top frame or node changes, then
    its length (by default, every position).  The flat
    ``node_masks`` and ``deltas``, the ``frames`` they replay to and the
    :class:`ElementResult` views in ``results`` are built on first
    access, and must be treated as read-only.
    """

    __slots__ = ("sequence", "parts", "changes", "_dictionary", "_node_masks", "_deltas", "_frames",
                 "_results")

    def __init__(self, sequence: ActionSequence, parts, dictionary, changes=None):
        self.sequence = sequence
        self.parts = tuple(parts)
        self.changes = tuple(changes or (range(len(masks) + 1) for masks, _ in self.parts))
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

    ``memo`` holds :func:`flowcheck.kernel.run_sequence`'s call summaries
    and lowered bodies, the idempotence verdicts, the node masks of each
    instance and body and the change positions of each call context;
    sequences that share one must outlive it.  Each call counts as one run.
    """
    global _run_count
    dictionary = model.dictionary
    memo = {} if memo is None else memo
    index = index_of(model)
    if "idempotent" not in memo:
        memo.update(idempotent=cache(_idempotent), node_mask=cache(index.node_mask))
    # the walk comes first, so an element of unknown kind is reported as
    # such before its node is looked up
    deltas = kernel.run_sequence(sequence.parts, partial(_lower_program, dictionary), memo,
                                 changes := [], memo["idempotent"])
    user_mask = index.scenario(sequence.scenario_id).user_labels.mask
    node_mask = memo["node_mask"]

    def node_changes(masks):  # the first position, and each whose node differs from the one before
        if masks and masks.count(masks[0]) == len(masks):  # one node throughout, the common case
            return [0]
        return [n for n in range(len(masks)) if not n or masks[n] != masks[n - 1]]

    parts = []
    for n, (elements, part_deltas, walk) in enumerate(zip(sequence.parts, deltas, changes)):
        if n % 2:  # a body holds no user-side element; its changes follow the call context
            body = memo.get(id(elements))
            if body is None:
                masks = list(map(node_mask, map(attrgetter("instance_id"), elements)))
                body = memo[id(elements)] = (masks, node_changes(masks))
            masks, nodes = body
            changes[n] = memo.get(id(walk)) or memo.setdefault(id(walk), sorted({*nodes, *walk}))
        else:  # mostly all on the user's node, whose first position the kernel records
            masks = [user_mask if element.user_side else node_mask(element.instance_id)
                     for element in elements]
            if walk[0] or masks.count(user_mask) != len(masks):
                changes[n] = sorted({*node_changes(masks), *walk})
        parts.append((masks, part_deltas))
    _run_count += 1
    return PropagatedSequence(sequence, parts, dictionary, changes)


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
