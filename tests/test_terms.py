"""Textual term grammar: parsing, precedence, error positions, the term
compiler, and fuzzed term texts."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from flowcheck.constraints import parse_constraint
from flowcheck.errors import ConstraintError, TermSyntaxError
from flowcheck.labels import DataDictionary, LabelType
from flowcheck.model import clear_parse_cache
from flowcheck.terms import (
    MAX_NESTING,
    TermParser,
    compile_truth,
    iter_refs,
    parse_term,
    read_assignment,
    wildcard_arity,
)


def parse_assignment(text):
    """The target and the right-hand side AST of an assignment text."""
    return read_assignment(text)[:2]


def test_constants():
    assert parse_term("TRUE") == ("const", True)
    assert parse_term("FALSE") == ("const", False)


def test_reference():
    assert parse_term("x.Enc.On") == ("ref", "x", "Enc", "On")


def test_not_binds_tightest():
    assert parse_term("!a.T.V & b.T.V") == (
        "and", ("not", ("ref", "a", "T", "V")), ("ref", "b", "T", "V"))


def test_and_binds_tighter_than_or():
    assert parse_term("a.T.V | b.T.V & c.T.V") == (
        "or",
        ("ref", "a", "T", "V"),
        ("and", ("ref", "b", "T", "V"), ("ref", "c", "T", "V")),
    )


def test_parentheses_override():
    assert parse_term("(a.T.V | b.T.V) & c.T.V") == (
        "and",
        ("or", ("ref", "a", "T", "V"), ("ref", "b", "T", "V")),
        ("ref", "c", "T", "V"),
    )


A, B, C, D = (("ref", var, "T", "V") for var in "abcd")


def test_chains_are_one_node():
    assert parse_term("a.T.V & b.T.V & c.T.V") == ("and", A, B, C)
    assert parse_term("a.T.V | b.T.V | c.T.V & d.T.V") == ("or", A, B, ("and", C, D))
    # a parenthesised group stays its own node
    assert parse_term("(a.T.V & b.T.V) & c.T.V") == ("and", ("and", A, B), C)


def test_long_chains():
    for op, tag in ((" | ", "or"), (" & ", "and")):
        node = parse_term(op.join(["a.T.V"] * 10_000))
        assert node == (tag, *[A] * 10_000)
        assert sum(1 for _ in iter_refs(node)) == 10_000


def test_runs_of_not_cancel_in_pairs():
    assert parse_term("!!a.T.V") == A
    assert parse_term("!!!a.T.V") == ("not", A)
    assert parse_term("!" * 5_001 + "a.T.V") == ("not", A)
    assert parse_term("!!(a.T.V & !!!!b.T.V)") == ("and", A, B)


def test_nesting_bound():
    assert MAX_NESTING == 256
    deepest = "(" * MAX_NESTING + "a.T.V" + ")" * MAX_NESTING
    assert parse_term(deepest) == A
    assert parse_assignment(f"x.T.V := {deepest}") == (("x", "T", "V"), A)
    too_deep = "(" * (MAX_NESTING + 1) + "a.T.V" + ")" * (MAX_NESTING + 1)
    with pytest.raises(TermSyntaxError) as info:
        parse_term(too_deep)
    assert info.value.position == MAX_NESTING
    assert info.value.reason == "parentheses nest deeper than 256 levels"
    # the bound counts open parentheses, not the ones seen so far
    assert parse_term("(a.T.V) & " * 1_000 + "a.T.V") == ("and", *[A] * 1_001)


def test_wildcards():
    # wildcard positions come back as None, not "*"
    assert parse_term("x.*.*") == ("ref", "x", None, None)
    assert parse_term("x.T.*") == ("ref", "x", "T", None)


def test_wildcard_type_requires_wildcard_value():
    with pytest.raises(TermSyntaxError, match="wildcard type requires a wildcard value"):
        parse_term("x.*.V")


def test_reserved_variable_names():
    # As a term, TRUE parses as a constant and the rest is trailing input;
    # as an assignment target the reserved check fires.
    with pytest.raises(TermSyntaxError, match="unexpected trailing input"):
        parse_term("TRUE.T.V")
    with pytest.raises(TermSyntaxError, match="'TRUE' is reserved"):
        parse_assignment("TRUE.T.V := TRUE")



# A whole reference is one token; where a single identifier belongs it is
# split into its pieces.  Reasons and positions are those of the
# piece-by-piece parser.
def _constraint(text):
    return parse_constraint(text, COLORS)


@pytest.mark.parametrize("parse, text, reason, position", [
    (_constraint, "VIOLATION a.b.c WHERE TRUE AND DATA TRUE", "expected 'WHERE'", 11),
    (_constraint, "VIOLATION n WHERE TRUE AND.T.V DATA TRUE", "expected 'DATA'", 26),
    (parse_term, "TRUE.T.V", "unexpected trailing input", 4),
    (parse_assignment, "TRUE.T.V := TRUE", "'TRUE' is reserved", 0),
    (parse_term, "a.TRUE.V", "'TRUE' is reserved", 2),
    (parse_term, "a.T.FALSE", "'FALSE' is reserved", 4),
    (parse_term, "a.*.V", "a wildcard type requires a wildcard value", 0),
    (parse_term, "a.T.", "expected a label value or '*'", 4),
    (parse_term, "x.y.z.w", "unexpected trailing input", 5),
])
def test_reference_token_edge_cases(parse, text, reason, position):
    with pytest.raises(TermSyntaxError) as info:
        parse(text)
    assert (info.value.reason, info.value.position) == (reason, position)


def test_reference_allows_whitespace_around_dots():
    assert parse_term("a . T . V") == ("ref", "a", "T", "V")


def test_error_carries_column():
    with pytest.raises(TermSyntaxError) as info:
        parse_term("a.T.V & ?")
    assert info.value.position == 8
    assert "column 9" in str(info.value)
    assert "unexpected character '?'" in str(info.value)


def test_trailing_input_rejected():
    with pytest.raises(TermSyntaxError, match="unexpected trailing input"):
        parse_term("a.T.V b.T.V")


def test_empty_term_rejected():
    with pytest.raises(TermSyntaxError, match="expected a term"):
        parse_term("")
    with pytest.raises(TermSyntaxError, match="expected a term"):
        parse_term("a.T.V & ")


def test_parse_assignment_shape():
    target, rhs = parse_assignment("x.T.V := a.T.V | TRUE")
    assert target == ("x", "T", "V")
    assert rhs == ("or", ("ref", "a", "T", "V"), ("const", True))


def test_parse_assignment_requires_walrus():
    # a bare '=' is not a token at all
    with pytest.raises(TermSyntaxError, match="unexpected character '='"):
        parse_assignment("x.T.V = TRUE")


def test_iter_refs_left_to_right():
    rhs = parse_term("b.T.V & !a.T.V | c.T.V")
    assert [r[1] for r in iter_refs(rhs)] == ["b", "a", "c"]


def test_wildcard_arity():
    assert wildcard_arity("T", "V") == 0
    assert wildcard_arity("T", None) == 1
    assert wildcard_arity(None, None) == 2


# Round-trip: render an AST back to text and reparse it. Rendering always
# parenthesizes, so precedence cannot leak.
def render(node):
    k = node[0]
    if k == "const":
        return "TRUE" if node[1] else "FALSE"
    if k == "ref":
        return f"{node[1]}.{node[2]}.{node[3]}"
    if k == "not":
        return f"!({render(node[1])})"
    op = " & " if k == "and" else " | "
    return "(" + op.join(render(operand) for operand in node[1:]) + ")"


refs = st.tuples(
    st.just("ref"),
    st.sampled_from(["x", "y", "zz"]),
    st.sampled_from(["T", "U"]),
    st.sampled_from(["A", "B"]),
)


def chains(tag, sub):
    return st.lists(sub, min_size=2, max_size=4).map(lambda operands: (tag, *operands))


terms = st.recursive(
    refs | st.tuples(st.just("const"), st.booleans()),
    lambda sub: st.tuples(st.just("not"), sub) | chains("and", sub) | chains("or", sub),
    max_leaves=12,
)


@given(terms)
def test_render_reparse_round_trip(ast):
    assert parse_term(render(ast)) == ast


# compile_truth: the one compiler of boolean terms. References to "zz"
# compile to the constant False (as an unknown label does in assignment
# lowering), the others to a test over a frame of (type, value) pairs.
def evaluate(node, frame):
    k = node[0]
    if k == "const":
        return node[1]
    if k == "ref":
        return (node[2], node[3]) in frame.get(node[1], ())
    if k == "not":
        return not evaluate(node[1], frame)
    if k == "and":
        return all(evaluate(operand, frame) for operand in node[1:])
    return any(evaluate(operand, frame) for operand in node[1:])


def frame_ref(node):
    _, var, type_name, value = node
    if var == "zz":
        return False
    return lambda frame: (type_name, value) in frame.get(var, ())


pairs = st.frozensets(st.tuples(st.sampled_from(["T", "U"]), st.sampled_from(["A", "B"])))
frames = st.dictionaries(st.sampled_from(["x", "y"]), pairs)


@settings(derandomize=True, database=None)
@given(terms, st.lists(frames, min_size=1, max_size=5))
def test_compile_truth_agrees_with_direct_evaluation(ast, sample):
    compiled = compile_truth(ast, frame_ref)
    for frame in sample:
        got = compiled if isinstance(compiled, bool) else compiled(frame)
        assert got is evaluate(ast, frame)


@settings(derandomize=True, database=None)
@given(terms)
def test_compile_truth_calls_ref_for_every_reference_in_order(ast):
    seen = []

    def ref(node):
        seen.append(node)
        return frame_ref(node)

    compile_truth(ast, ref)
    assert seen == list(iter_refs(ast))


def test_compile_truth_folds_constants():
    seen = []

    def ref(node):
        seen.append(node[1])
        return frame_ref(node)

    assert compile_truth(parse_term("FALSE & x.T.A"), ref) is False
    assert compile_truth(parse_term("!(y.T.A | TRUE)"), ref) is False
    assert compile_truth(parse_term("zz.T.A | !x.T.B & FALSE"), ref) is False
    assert compile_truth(parse_term("!zz.T.A"), ref) is True
    assert compile_truth(parse_term("x.T.A | TRUE | y.T.A"), ref) is True
    # references in folded-away branches were still compiled, left to right
    assert seen == ["x", "y", "zz", "x", "zz", "x", "y"]
    test = compile_truth(parse_term("TRUE & x.T.A"), ref)
    assert test({"x": {("T", "A")}}) is True
    assert test({}) is False
    test = compile_truth(parse_term("TRUE & x.T.A & zz.T.A | y.T.B & !zz.T.A"), ref)
    assert test({"y": {("T", "B")}}) is True
    assert test({"x": {("T", "A")}}) is False


# Term texts over the grammar's alphabet: whatever the input, the parsers
# refuse it with their own error types, never with another exception.
# Texts are well-formed terms with up to three pieces spliced in at
# random character positions, so they reach reference and constraint
# checks as well as every syntax error.
REF_TEXTS = ["x.Color.Red", "node.Color.Red", "data.Color.Blue", "data.Color.*",
             "data.*.*", "x.*.Red", "node.Bogus.X", "data.Color.Green", "TRUE.Color.Red",
             "x.Color.FALSE"]
PIECES = REF_TEXTS + ["x", "Color", "TRUE", "FALSE", "AND DATA", " ",
                      ".", "*", "&", "|", "!", "(", ")", ":="]
COLORS = DataDictionary((LabelType("Color", ("Red", "Blue")),))
well_formed = st.recursive(
    st.sampled_from(REF_TEXTS + ["TRUE", "FALSE"]),
    lambda sub: st.builds("!{}".format, sub)
    | st.builds("{} & {}".format, sub, sub)
    | st.builds("{} | {}".format, sub, sub)
    | st.builds("({})".format, sub),
    max_leaves=6,
)


def splice(text, edits):
    for position, piece in edits:
        position %= len(text) + 1
        text = text[:position] + piece + text[position:]
    return text


term_texts = st.builds(
    splice, well_formed,
    st.lists(st.tuples(st.integers(0, 200), st.sampled_from(PIECES)), max_size=3),
)


@settings(derandomize=True, database=None, max_examples=300)
@given(st.sampled_from(REF_TEXTS), term_texts, term_texts)
def test_term_texts_raise_only_parse_errors(target, first, second):
    texts = [first, f"{target} := {first}"]
    for parse in (parse_term, parse_assignment):
        for text in texts:
            try:
                parse(text)
            except TermSyntaxError:
                pass
    for text in (first, f"VIOLATION c WHERE {first} AND DATA {second}"):
        try:
            parse_constraint(text, COLORS)
        except (TermSyntaxError, ConstraintError):
            pass


# Assignments are parsed once per shape, with each reference replaced by
# a placeholder.  Whatever the text, the result is the recursive-descent
# parser's on the whole text: the same tree, or the same error at the
# same column.
def full_parse(text):
    parser = TermParser(text)
    _, *target = parser.parse_ref()
    parser.expect("assign", "':='")
    rhs = parser.parse_term()
    parser.expect_end()
    return tuple(target), rhs


def outcome(parse, text):
    try:
        return "parsed", parse(text)
    except TermSyntaxError as exc:
        return "refused", exc.reason, exc.position, str(exc)


# pieces that sit next to a reference: an identifier that would swallow
# its start, a digit, a fourth segment, spaced dots, a wildcard type
SHAPE_PIECES = PIECES + ["xTRUE.T.V", "9", ".W", " . ", "*.V", "y . T . V", "FALSEy", "é"]
assignment_texts = st.builds(
    splice,
    st.builds("{} := {}".format, st.sampled_from(REF_TEXTS), well_formed),
    st.lists(st.tuples(st.integers(0, 200), st.sampled_from(SHAPE_PIECES)), max_size=3),
)


@settings(derandomize=True, database=None, max_examples=500)
@given(assignment_texts)
def test_shapes_parse_as_the_full_parser(text):
    assert outcome(parse_assignment, text) == outcome(full_parse, text)


NESTED = "a.T.V | b.T.V & !("  # three frames per level, the most any level takes


@pytest.mark.parametrize("text", [
    "x.T.V := TRUE.T.V",
    "TRUE.T.V := y.T.V",
    "x.T.V := xTRUE.T.V",
    "x.T.V := 9y.T.V",
    "x.T.V := y.T.V.W",
    "x . T . V := y .T. V",
    "x.*.* := y . * . *",
    "x.*.* := *.V",
    "x.T.* := y.T.*z",
    pytest.param("x.T.V := " + NESTED * MAX_NESTING + "c.T.V" + ")" * MAX_NESTING,
                 id="nesting-256"),
    pytest.param("x.T.V := " + NESTED * (MAX_NESTING + 1) + "c.T.V" + ")" * (MAX_NESTING + 1),
                 id="nesting-257"),
    pytest.param("x.T.V := " + " | ".join(["a.T.V", "b.T.*", "c.*.*"] * 667)[:-8],
                 id="chain-2000"),
])
def test_shape_edge_cases_parse_as_the_full_parser(text):
    clear_parse_cache()
    assert outcome(parse_assignment, text) == outcome(full_parse, text)
    assert outcome(parse_assignment, text) == outcome(full_parse, text)  # the cached shape


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deepest_shape_fills_within_three_frames_per_level():
    text = "x.T.V := " + NESTED * MAX_NESTING + "c.T.V" + ")" * MAX_NESTING
    clear_parse_cache()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 3 * (MAX_NESTING + 1) + 30)
    try:
        first = parse_assignment(text)  # parses the shape, then fills it
        again = parse_assignment(text)  # fills the cached shape
    finally:
        sys.setrecursionlimit(limit)
    assert first == again == full_parse(text)
