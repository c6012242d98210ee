"""Parse and evaluate textual confidentiality constraints.

A constraint matches sequence elements.  Its form, one per line, reads:

    VIOLATION <name> WHERE <node term> AND DATA <data term>

The node term tests labels of the element's node via ``node.Type.Value``
references; the data term tests labels of the data flowing through it
via ``data.Type.Value`` references.  A data term that references data is
matched existentially: the element violates if at least one in-scope
variable satisfies it, and all satisfying variables are reported.  A
data term without references (``DATA TRUE``) is a plain condition, so it
also matches elements that carry no variables at all.  Wildcards are not
allowed in constraints.  A check written in Python instead is a
callable over element results, passed to
:meth:`flowcheck.analysis.DataFlowAnalysis.query_data_flow`.

A query reads only the stored parts of each propagated sequence;
checking any number of constraints never re-runs propagation.  For each
constraint it visits only the positions where a part's top frame or node
changes (see :class:`flowcheck.propagation.PropagatedSequence`), as the
verdict holds in between, and there re-tests only the variables an
assignment element changes, so it needs no frame; within one query the
node and data terms each run once per distinct mask, and each body's
deltas, which stand for one call context, are matched once.
"""

from __future__ import annotations

from itertools import pairwise
from pathlib import Path
from typing import Callable, NamedTuple

from . import terms
from .errors import ConstraintError, DictionaryError, TermSyntaxError
from .kernel import APPLY
from .labels import DataDictionary
from .loader import read_text

__all__ = [
    "Constraint",
    "Violation",
    "parse_constraint",
    "parse_constraints_text",
    "load_constraints",
    "query",
    "query_many",
    "format_report",
    "escape_controls",
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


class Constraint(NamedTuple):
    """A parsed textual constraint: its name and text, and its node and
    data terms compiled into tests over a label mask, each returning 1
    where the term holds and 0 where it does not.

    ``data_has_refs`` tells whether the data term references data, and
    so is matched existentially over the in-scope variables.
    """

    name: str
    text: str
    node_test: Callable[[int], int]
    data_test: Callable[[int], int]
    data_has_refs: bool

    def __repr__(self) -> str:
        return f"Constraint({self.name!r})"


def _mask_test(node, dictionary, prefix, name):
    """Compile one side of a constraint into a test over a label mask:
    a term over the one-bit region of its verdict."""
    def ref(ref_node):
        _, var, type_name, value = ref_node
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
            bit = dictionary.bit(type_name, value)
        except DictionaryError as exc:
            raise ConstraintError(f"constraint '{name}': {exc}") from None
        return lambda mask: mask >> bit & 1

    test = terms.compile_mask(node, 1, ref)
    return (lambda mask: test) if type(test) is int else test


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

    return Constraint(
        name,
        text,
        _mask_test(node_ast, dictionary, NODE_PREFIX, name),
        _mask_test(data_ast, dictionary, DATA_PREFIX, name),
        # from the AST, not the compiled test: folding must not turn an
        # existential data term into a plain condition
        any(True for _ in terms.iter_refs(data_ast)),
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
        text = read_text(path)
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
    """Match all constraint rows (name, node_ok, data_ok, bucket, seen)
    against one propagated sequence.  The tests are wrapped in
    :class:`_Verdicts`, which live for one query like ``seen``, so each
    runs once per distinct mask however many elements or variables carry it.

    What matches inside a body depends only on its deltas list, which the
    kernel shares between the calls into one context, so ``seen`` keeps
    the matches of each, relative to the body's start, with the list,
    whose id thus stays its own for the query.  A body starts from the
    whole frame of its calling bracket's delta, and the part after it
    from its returning bracket's, so no walk reads another's state.
    """
    start, frame = 0, ()  # the whole top frame before the part
    for n, (elements, (masks, deltas), changes) in enumerate(
        zip(propagated.sequence.parts, propagated.parts, propagated.changes)
    ):
        for name, node_ok, data_ok, bucket, seen in rows:
            if n % 2 == 0:
                matches = _walk(elements, masks, deltas, changes, node_ok, data_ok, frame)
            else:
                body = seen.get(id(deltas))
                if body is None:
                    body = seen[id(deltas)] = (
                        deltas, _walk(elements, masks, deltas, changes, node_ok, data_ok, frame))
                matches = body[1]
            if matches:
                bucket += [
                    Violation(name, sequence_index, start + index, elements[index].element_id, names)
                    for at, end, names in matches
                    for index in range(at, end)
                ]
        start += len(elements)
        frame = deltas[-1] if n % 2 == 0 and deltas else ()


def _walk(elements, masks, deltas, changes, node_ok, data_ok, frame=()) -> list:
    """Match the elements of one part from the whole top ``frame`` before
    them, visiting only its ``changes``; return (first, end, sorted
    satisfying names) for each run of matching elements.

    Between two change positions neither the top frame nor the node mask
    changes, so the verdict at one holds up to the next.  The walk keeps
    the set of variables in the top frame that satisfy the term: an APPLY
    delta re-tests the variables it changes, and any other delta is the
    whole new top frame, so the set is rebuilt from it.  A term without
    references (``data_ok`` None) reads the node masks only.
    """
    runs = []
    satisfying, names = True, ()
    if data_ok is not None:
        satisfying = {var for var, mask in frame if data_ok[mask]} if frame else set()
        names = None  # sorted ``satisfying``; None while stale
    for at, end in pairwise(changes):
        if data_ok is not None and elements[at].effect == APPLY:
            for var, mask in deltas[at]:
                if data_ok[mask] != (var in satisfying):
                    satisfying ^= {var}
                    names = None
        elif data_ok is not None:
            satisfying = {var for var, mask in deltas[at] if data_ok[mask]}
            names = None
        if satisfying and node_ok[masks[at]]:
            if names is None:
                names = tuple(sorted(satisfying))
            runs.append((at, end, names))
    return runs


def _rows_for(constraints, out: dict[str, list[Violation]]):
    rows = []
    for c in constraints:
        if c.name in out:
            raise ConstraintError("duplicate constraint names in one query")
        bucket: list[Violation] = []
        out[c.name] = bucket
        if c.data_has_refs or c.data_test(0):  # else a plain condition that never holds
            data_ok = _Verdicts(c.data_test) if c.data_has_refs else None
            rows.append((c.name, _Verdicts(c.node_test), data_ok, bucket, {}))
    return rows


def query(propagated, constraint: Constraint, *, sequence_index: int = 0) -> list[Violation]:
    """Evaluate one constraint over one propagated sequence."""
    out: dict[str, list[Violation]] = {}
    rows = _rows_for([constraint], out)
    _scan(sequence_index, propagated, rows)
    return out[constraint.name]


def query_many(propagated_sequences, constraints) -> dict[str, list[Violation]]:
    """Evaluate several constraints over several propagated sequences.

    Reads only the stored parts; propagation is never re-run, no matter
    how many constraints are checked.  Violations are ordered by
    sequence, then element.
    """
    out: dict[str, list[Violation]] = {}
    rows = _rows_for(constraints, out)
    for sequence_index, propagated in enumerate(propagated_sequences):
        _scan(sequence_index, propagated, rows)
    return out


# C0 and C1 control characters, and the line and paragraph separators that
# str.splitlines() also splits on, as a Python literal writes them, so that
# model text in an output line neither breaks it nor drives the terminal
_ESCAPES = {code: repr(chr(code))[1:-1]
            for code in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}


def escape_controls(line: str) -> str:
    """``line`` with its control characters escaped; most lines hold none."""
    return line if line.isprintable() else line.translate(_ESCAPES)


def format_report(violations_by_name: dict[str, list[Violation]], order=None) -> str:
    """Render the violation report; one line per violation plus a total."""
    lines = []
    total = 0
    for name in order if order is not None else violations_by_name.keys():
        for violation in violations_by_name.get(name, ()):
            variables = ",".join(violation.variable_names) or "-"
            lines.append(escape_controls(
                f"CONSTRAINT {violation.constraint_name} "
                f"SEQ {violation.sequence_index} "
                f"ELEM {violation.element_index} "
                f"NODE {violation.element_id} "
                f"VARS {variables}"
            ))
            total += 1
    lines.append(f"TOTAL {total} violations")
    return "\n".join(lines)
