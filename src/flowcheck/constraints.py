"""Define and evaluate confidentiality constraints over propagated flows.

A constraint matches sequence elements.  The textual form, one per
line, reads:

    VIOLATION <name> WHERE <node term> AND DATA <data term>

The node term tests labels of the element's node via ``node.Type.Value``
references; the data term tests labels of the data flowing through it
via ``data.Type.Value`` references.  A data term that references data is
matched existentially: the element violates if at least one in-scope
variable satisfies it, and all satisfying variables are reported.  A
data term without references (``DATA TRUE``) is a plain condition, so it
also matches elements that carry no variables at all.  Wildcards are not
allowed in constraints.

Evaluation works purely on propagated results; checking any number of
constraints never re-runs propagation.  A query walks each sequence once
per textual constraint and re-tests only the variables each element
writes, following :data:`flowcheck.propagation.FRAME_EFFECTS`; within
one query the node and data terms each run once per distinct mask.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from . import terms
from .errors import ConstraintError, DictionaryError, TermSyntaxError
from .kernel import APPLY, POP_BIND
from .labels import DataDictionary
from .propagation import FRAME_EFFECTS

__all__ = [
    "Constraint",
    "Violation",
    "parse_constraint",
    "parse_constraints_text",
    "load_constraints",
    "query",
    "query_many",
    "format_report",
]

NODE_PREFIX = "node"
DATA_PREFIX = "data"


class Violation(NamedTuple):
    """One constraint match: which element of which sequence, and why.

    The worst-case constraint creates one of these per element, so the
    record is tuple-backed to keep bulk construction cheap.
    """

    constraint_name: str
    sequence_index: int
    element_index: int
    element_id: str
    variable_names: tuple[str, ...]

    def __repr__(self):
        return (
            f"Violation({self.constraint_name!r}, seq={self.sequence_index}, "
            f"elem={self.element_index}, node={self.element_id!r}, "
            f"vars={self.variable_names!r})"
        )


class Constraint:
    """A named element predicate, textual or programmatic.

    ``predicate(node_labels, variables)`` is always callable; textual
    constraints additionally carry compiled mask tests used on the fast
    path.
    """

    __slots__ = ("name", "predicate", "text", "_node_fn", "_data_fn", "_data_has_refs")

    def __init__(self, name, predicate, *, text=None, node_fn=None, data_fn=None, data_has_refs=False):
        self.name = name
        self.predicate = predicate
        self.text = text
        self._node_fn = node_fn
        self._data_fn = data_fn
        self._data_has_refs = data_has_refs

    @classmethod
    def from_predicate(cls, name: str, predicate) -> "Constraint":
        """Wrap a callable ``(node_labels, variables) -> bool``."""
        return cls(name, predicate)

    def matches(self, result) -> tuple[bool, tuple[str, ...]]:
        """Evaluate against one element result.

        Returns (matched, names of satisfying variables); the names stay
        empty for programmatic constraints and data terms without
        references.
        """
        node_fn = self._node_fn
        if node_fn is not None:
            if not node_fn(result._node_mask):
                return False, ()
            data_fn = self._data_fn
            if not self._data_has_refs:
                return (True, ()) if data_fn(0) else (False, ())
            names = sorted(
                name for name, mask in result._frame.items() if data_fn(mask)
            )
            if names:
                return True, tuple(names)
            return False, ()
        return (True, ()) if self.predicate(result.node_labels, result.variables) else (False, ())

    def __repr__(self) -> str:
        return f"Constraint({self.name!r})"


def _compile_mask_test(node, dictionary, prefix, name):
    tag = node[0]
    if tag == "ref":
        _, var, type_name, value = node
        if var != prefix:
            raise ConstraintError(
                f"constraint '{name}': the {prefix} term must reference "
                f"'{prefix}', found '{var}'"
            )
        if type_name is None or value is None:
            raise ConstraintError(
                f"constraint '{name}': wildcards are not allowed in constraints"
            )
        try:
            bit_mask = 1 << dictionary.bit(type_name, value)
        except DictionaryError as exc:
            raise ConstraintError(f"constraint '{name}': {exc}") from None
        return lambda mask: mask & bit_mask != 0
    if tag == "const":
        value = node[1]
        return lambda mask: value
    if tag == "not":
        sub = _compile_mask_test(node[1], dictionary, prefix, name)
        return lambda mask: not sub(mask)
    left = _compile_mask_test(node[1], dictionary, prefix, name)
    right = _compile_mask_test(node[2], dictionary, prefix, name)
    if tag == "and":
        return lambda mask: left(mask) and right(mask)
    return lambda mask: left(mask) or right(mask)


def parse_constraint(text: str, dictionary: DataDictionary) -> Constraint:
    """Parse one ``VIOLATION ... WHERE ... AND DATA ...`` line."""
    parser = terms.TermParser(text)
    parser.expect_word("VIOLATION")
    name_token = parser.expect("ident", "a constraint name")
    name = name_token[1]
    if name in terms.RESERVED_WORDS:
        raise parser.error(f"constraint name '{name}' is reserved", name_token)
    parser.expect_word("WHERE")
    node_ast = parser.parse_term()
    parser.expect_word("AND")
    parser.expect_word("DATA")
    data_ast = parser.parse_term()
    parser.expect_end()

    node_fn = _compile_mask_test(node_ast, dictionary, NODE_PREFIX, name)
    data_fn = _compile_mask_test(data_ast, dictionary, DATA_PREFIX, name)
    data_has_refs = any(True for _ in terms.iter_refs(data_ast))

    def predicate(node_labels, variables) -> bool:
        if not node_fn(node_labels.mask):
            return False
        if not data_has_refs:
            return data_fn(0)
        return any(data_fn(v.labels.mask) for v in variables)

    return Constraint(
        name,
        predicate,
        text=text,
        node_fn=node_fn,
        data_fn=data_fn,
        data_has_refs=data_has_refs,
    )


def parse_constraints_text(
    text: str, dictionary: DataDictionary, source: str = "<text>"
) -> list[Constraint]:
    """Parse a constraints document: one constraint per non-comment line."""
    constraints: list[Constraint] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            constraint = parse_constraint(line, dictionary)
        except (TermSyntaxError, ConstraintError) as exc:
            raise ConstraintError(f"{source}, line {lineno}: {exc}") from None
        if constraint.name in seen:
            raise ConstraintError(
                f"{source}, line {lineno}: duplicate constraint name '{constraint.name}'"
            )
        seen.add(constraint.name)
        constraints.append(constraint)
    return constraints


def load_constraints(path, dictionary: DataDictionary) -> list[Constraint]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConstraintError(f"cannot read constraints file '{path}': {exc}") from None
    return parse_constraints_text(text, dictionary, source=str(path))


class _Verdicts(dict):
    """One mask test's outcome per distinct mask, computed on first use."""

    __slots__ = ("test",)

    def __init__(self, test):
        super().__init__()
        self.test = test

    def __missing__(self, mask):
        verdict = self[mask] = self.test(mask)
        return verdict


def _scan(sequence_index, propagated, rows) -> None:
    """Match all constraint rows against one propagated sequence.

    Each row is (name, node_ok, data_ok, data_has_refs, predicate,
    bucket); ``node_ok`` and ``data_ok`` are the compiled tests wrapped
    in :class:`_Verdicts`, which live for one query, so each test runs
    once per distinct mask however many elements or variables carry it.
    Both are ``None`` for a programmatic row, whose predicate sees every
    element result.
    """
    elements = propagated.sequence.elements
    for name, node_ok, data_ok, data_has_refs, predicate, bucket in rows:
        if data_has_refs:
            matches = _data_matches(propagated, node_ok, data_ok)
        elif node_ok is None:
            matches = (
                (element_index, ())
                for element_index, result in enumerate(propagated.results)
                if predicate(result.node_labels, result.variables)
            )
        elif data_ok[0]:
            matches = (
                (element_index, ())
                for element_index, node_mask in enumerate(propagated.node_masks)
                if node_ok[node_mask]
            )
        else:
            continue
        bucket.extend(
            Violation(name, sequence_index, element_index, elements[element_index].element_id, names)
            for element_index, names in matches
        )


def _data_matches(propagated, node_ok, data_ok):
    """Yield (element index, sorted satisfying names) for a data term
    with references, re-testing only what each element writes.

    The walk keeps the set of variables in the top frame that satisfy
    the term, plus the saved sets of the caller frames, and follows
    :data:`flowcheck.propagation.FRAME_EFFECTS`: PUSH and CALL rebuild
    the set from the new frame, APPLY re-tests only its assignment
    targets, and POP_BIND restores the caller's set, then re-tests the
    result variable and the result-assignment targets.  This is exact
    because ``propagated.frames`` is the propagation of
    ``propagated.sequence``, so a variable an element does not write
    keeps its mask.
    """
    node_masks = propagated.node_masks
    satisfying: set[str] = set()
    names = ()  # sorted ``satisfying``; None while stale
    callers = []
    for element_index, (element, frame) in enumerate(
        zip(propagated.sequence.elements, propagated.frames)
    ):
        code = FRAME_EFFECTS[type(element)]
        if code == APPLY:
            written = element.assignments
        elif code == POP_BIND:
            satisfying, names = callers.pop()
            var = element.result_variable
            if var is not None and data_ok[frame[var]] != (var in satisfying):
                satisfying ^= {var}
                names = None
            written = element.result_assignments
        else:  # PUSH or CALL: a new top frame
            callers.append((satisfying, names))
            satisfying = {var for var, mask in frame.items() if data_ok[mask]}
            names = None
            written = ()
        for a in written:
            var = a.target_var
            if data_ok[frame[var]] != (var in satisfying):
                satisfying ^= {var}
                names = None
        if satisfying and node_ok[node_masks[element_index]]:
            if names is None:
                names = tuple(sorted(satisfying))
            yield element_index, names


def _rows_for(constraints, out: dict[str, list[Violation]]):
    rows = []
    for c in constraints:
        if c.name in out:
            raise ConstraintError("duplicate constraint names in one query")
        bucket: list[Violation] = []
        out[c.name] = bucket
        if c._node_fn is None:
            rows.append((c.name, None, None, False, c.predicate, bucket))
        else:
            node_ok = _Verdicts(c._node_fn)
            data_ok = _Verdicts(c._data_fn)
            rows.append((c.name, node_ok, data_ok, c._data_has_refs, c.predicate, bucket))
    return rows


def query(propagated, constraint: Constraint, *, sequence_index: int = 0) -> list[Violation]:
    """Evaluate one constraint over one propagated sequence."""
    out: dict[str, list[Violation]] = {}
    rows = _rows_for([constraint], out)
    _scan(sequence_index, propagated, rows)
    return out[constraint.name]


def query_many(propagated_sequences, constraints) -> dict[str, list[Violation]]:
    """Evaluate several constraints over several propagated sequences.

    Works entirely on the given results; propagation is never re-run, no
    matter how many constraints are checked.  Violations are ordered by
    sequence, then element.
    """
    out: dict[str, list[Violation]] = {}
    rows = _rows_for(constraints, out)
    for sequence_index, propagated in enumerate(propagated_sequences):
        _scan(sequence_index, propagated, rows)
    return out


def format_report(violations_by_name: dict[str, list[Violation]], order=None) -> str:
    """Render the violation report; one line per violation plus a total."""
    lines = []
    total = 0
    for name in order if order is not None else violations_by_name.keys():
        for violation in violations_by_name.get(name, ()):
            variables = ",".join(violation.variable_names) or "-"
            lines.append(
                f"CONSTRAINT {violation.constraint_name} "
                f"SEQ {violation.sequence_index} "
                f"ELEM {violation.element_index} "
                f"NODE {violation.element_id} "
                f"VARS {variables}"
            )
            total += 1
    lines.append(f"TOTAL {total} violations")
    return "\n".join(lines)
