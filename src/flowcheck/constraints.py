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
checking any number of constraints never re-runs propagation.  It walks
each sequence's deltas (see :func:`flowcheck.kernel.run_sequence`) part
by part, once per constraint, so it re-tests only the variables each
assignment element changes and needs no frame; within one query the node
and data terms each run once per distinct mask, and each body's deltas,
which stand for one call context, are matched once.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

from . import terms
from .errors import ConstraintError, DictionaryError, TermSyntaxError
from .kernel import APPLY, FRAME_EFFECTS
from .labels import DataDictionary

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


class Constraint(NamedTuple):
    """A parsed textual constraint: its name and text, and its node and
    data terms compiled into tests over a label mask.

    ``data_has_refs`` tells whether the data term references data, and
    so is matched existentially over the in-scope variables.
    """

    name: str
    text: str
    node_test: Callable[[int], bool]
    data_test: Callable[[int], bool]
    data_has_refs: bool

    def __repr__(self) -> str:
        return f"Constraint({self.name!r})"


def _mask_test(node, dictionary, prefix, name):
    """Compile one side of a constraint into a test over a label mask."""
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
            bit_mask = 1 << dictionary.bit(type_name, value)
        except DictionaryError as exc:
            raise ConstraintError(f"constraint '{name}': {exc}") from None
        return lambda mask: mask & bit_mask != 0

    test = terms.compile_truth(node, ref)
    if isinstance(test, bool):
        return lambda mask: test
    return test


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
        text = path.read_text(encoding="utf-8-sig")
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

    Each row is (name, node_ok, data_ok, data_has_refs, bucket, seen);
    ``node_ok`` and ``data_ok`` are the compiled tests wrapped in
    :class:`_Verdicts`, which live for one query like ``seen`` (see
    :func:`_data_matches`), so each test runs once per distinct mask
    however many elements or variables carry it.
    """
    for name, node_ok, data_ok, data_has_refs, bucket, seen in rows:
        if data_has_refs:
            matches = _data_matches(propagated, node_ok, data_ok, seen)
        elif data_ok[0]:
            node_masks = chain.from_iterable(masks for masks, _ in propagated.parts)
            matches = (
                (element_index, element, ())
                for element_index, (element, node_mask)
                in enumerate(zip(propagated.sequence, node_masks))
                if node_ok[node_mask]
            )
        else:
            continue
        bucket.extend(
            Violation(name, sequence_index, element_index, element.element_id, names)
            for element_index, element, names in matches
        )


def _data_matches(propagated, node_ok, data_ok, seen):
    """Yield (element index, element, sorted satisfying names) for a data
    term with references.

    What matches inside a body depends only on its deltas list, which the
    kernel shares between the calls into one context, so ``seen`` keeps
    the matches of each, relative to the body's start, with the list,
    whose id thus stays its own for the query.  A body starts from the
    whole frame of its calling bracket's delta, and the part after it
    from its returning bracket's, so no walk reads another's state.
    """
    start = 0
    frame = ()  # the whole top frame before the part
    for n, (elements, (masks, deltas)) in enumerate(
        zip(propagated.sequence.parts, propagated.parts)
    ):
        if n % 2 == 0:
            yield from _walk(elements, masks, deltas, node_ok, data_ok, frame, start)
        else:
            if id(deltas) not in seen:
                seen[id(deltas)] = (deltas, list(_walk(elements, masks, deltas, node_ok, data_ok, frame)))
            for offset, element, names in seen[id(deltas)][1]:
                yield start + offset, element, names
        start += len(elements)
        frame = deltas[-1] if n % 2 == 0 and deltas else ()


def _walk(elements, masks, deltas, node_ok, data_ok, frame=(), start=0):
    """Match the elements of one part, numbered from ``start``, re-testing
    only what each element changes, from the whole top ``frame`` before them.

    The walk keeps the set of variables in the top frame that satisfy
    the term: an APPLY delta re-tests the variables it changes, and any
    other delta is the whole new top frame, so the set is rebuilt from it.
    """
    satisfying = {var for var, mask in frame if data_ok[mask]}
    names = None  # sorted ``satisfying``; None while stale
    for element_index, (element, node_mask, delta) in enumerate(zip(elements, masks, deltas), start):
        if FRAME_EFFECTS[type(element)] == APPLY:
            for var, mask in delta:
                if data_ok[mask] != (var in satisfying):
                    satisfying ^= {var}
                    names = None
        else:
            satisfying = {var for var, mask in delta if data_ok[mask]}
            names = None
        if satisfying and node_ok[node_mask]:
            if names is None:
                names = tuple(sorted(satisfying))
            yield element_index, element, names


def _rows_for(constraints, out: dict[str, list[Violation]]):
    rows = []
    for c in constraints:
        if c.name in out:
            raise ConstraintError("duplicate constraint names in one query")
        bucket: list[Violation] = []
        out[c.name] = bucket
        rows.append((c.name, _Verdicts(c.node_test), _Verdicts(c.data_test), c.data_has_refs, bucket, {}))
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
