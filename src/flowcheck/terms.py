"""Tokenizer and parser for assignment and constraint terms.

Grammar (``&`` binds tighter than ``|``, ``!`` tighter than both):

    assignment ::= ref ':=' term
    term       ::= or
    or         ::= and ('|' and)*
    and        ::= unary ('&' unary)*
    unary      ::= '!'* atom
    atom       ::= 'TRUE' | 'FALSE' | ref | '(' term ')'
    ref        ::= IDENT '.' (IDENT | '*') '.' (IDENT | '*')

A ``*`` stands for "every value" (third segment) or "every type and
value" (second and third segment); a wildcard type with a concrete value
is rejected.  ``TRUE`` and ``FALSE`` are reserved words, not variable
names.

The AST is plain tuples, first element a tag string:

    ("const", bool)
    ("ref", var, type_or_None, value_or_None)   # None marks a wildcard
    ("not", term)
    ("and", term, term, ...)                    # two or more operands
    ("or", term, term, ...)

A chain is one node whatever its length: ``a & b & c`` parses to
``("and", a, b, c)``, and ``|`` chains likewise.  A parenthesised group
stays its own node, so ``(a & b) & c`` is ``("and", ("and", a, b), c)``.
A run of ``!`` is read in a loop and an even run cancels out: ``!!x``
parses to ``x`` and ``!!!x`` to ``("not", x)``.

Parentheses nest at most :data:`MAX_NESTING` levels, and a deeper ``(``
raises :class:`TermSyntaxError`.  Only nesting makes a term deep, and
the parser and each AST walker take at most three Python frames per
level, so 256 levels stay within the default recursion limit of 1 000
with room for the caller's frames.

Tokens are ``ident``, ``assign`` (``:=``), the symbols ``. * & | ! ( )``
and ``end``, plus ``ref``: a whole reference ``var.Type.Value``, with
optional whitespace around the dots, is one token, so the parser reads
it in one step.  A reference token never starts with a reserved word,
so ``TRUE.T.V`` lexes as the constant ``TRUE`` followed by the rest.
Where a single identifier belongs (a constraint name or keyword), a
reference token is split into its five pieces, which are exactly the
tokens the text would give without the ``ref`` kind.  Only a malformed
reference is walked piece by piece, to report where it breaks.

An assignment is parsed once per *shape*: its text with each reference
token replaced by ``r.*.*``, split off in one ``re.split`` that never
matches inside an identifier.  The parser reads each distinct shape
once, and the text's references fill a copy of its AST.  A shape that
does not parse, or a reference that fails the reserved-word or wildcard
checks, sends the text itself to the parser, which words the error.

:func:`compile_truth` compiles boolean terms for both label assignments
and constraints; they differ only in what a reference compiles to.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, Iterator

from .errors import TermSyntaxError

__all__ = [
    "parse_term",
    "read_assignment",
    "iter_refs",
    "compile_truth",
    "wildcard_arity",
    "TermParser",
    "RESERVED_WORDS",
    "MAX_NESTING",
]

RESERVED_WORDS = frozenset({"TRUE", "FALSE"})

MAX_NESTING = 256

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_SEGMENT = rf"({_IDENT}|\*)"
_NOT_RESERVED = rf"(?!(?:{'|'.join(sorted(RESERVED_WORDS))})(?![A-Za-z0-9_]))"

# a whole reference, five groups: variable, dot, type, dot, value
_REF = rf"{_NOT_RESERVED}({_IDENT})\s*(\.)\s*{_SEGMENT}\s*(\.)\s*{_SEGMENT}"

# one token per match after optional whitespace.  Groups 1-5 are a whole
# reference, tried first; group 6 is any other token, group 7 a
# character no token starts with.
_TOKEN_RE = re.compile(rf"\s*(?:{_REF}|({_IDENT}|:=|[.*&|!()])|(\S))")

# the reference tokens of a text: none starts inside an identifier
_REF_RE = re.compile(rf"(?<![A-Za-z0-9_]){_REF}")

# token kinds: "ref", "ident", "assign", one of ".*&|!()"; "end" terminates
_KINDS = {":=": "assign", **{symbol: symbol for symbol in ".*&|!()"}}


def _tokenize(text: str) -> list[tuple]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        last = m.lastindex
        if last == 5:
            # a reference token carries its match, for the pieces
            tokens.append(("ref", m[1], m.start(1), m))
        elif last == 6:
            tokens.append((_KINDS.get(m[6], "ident"), m[6], m.start(6)))
        else:
            raise TermSyntaxError(f"unexpected character {m[7]!r}", text, m.start(7))
    tokens.append(("end", "", len(text)))
    return tokens


class TermParser:
    """Recursive-descent parser over a shared token stream.

    Exposed so the constraint parser can embed term parsing between its
    own keywords.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # open parentheses

    def peek(self) -> tuple:
        return self.tokens[self.index]

    def error(self, message: str, token=None) -> TermSyntaxError:
        token = token or self.peek()
        return TermSyntaxError(message, self.text, token[2])

    def _split_ref(self) -> None:
        """Replace a reference token at the cursor by its five pieces."""
        token = self.peek()
        if token[0] == "ref":
            m = token[3]
            self.tokens[self.index:self.index + 1] = [
                (_KINDS.get(m[group], "ident"), m[group], m.start(group)) for group in range(1, 6)
            ]

    def expect(self, kind: str, what: str) -> tuple:
        if kind == "ident":
            self._split_ref()
        token = self.peek()
        if token[0] != kind:
            raise self.error(f"expected {what}, found {token[1]!r}" if token[1] else f"expected {what}")
        self.index += 1
        return token

    def expect_word(self, word: str) -> None:
        self._split_ref()
        token = self.peek()
        if token[0] != "ident" or token[1] != word:
            raise self.error(f"expected '{word}'")
        self.index += 1

    def expect_end(self) -> None:
        if self.peek()[0] != "end":
            raise self.error("unexpected trailing input")

    # -- grammar: three frames per nesting level (_or, _and, _unary) -------

    def parse_term(self) -> tuple:
        return self._or()

    def _or(self) -> tuple:
        operands = [self._and()]
        while self.peek()[0] == "|":
            self.index += 1
            operands.append(self._and())
        return operands[0] if len(operands) == 1 else ("or", *operands)

    def _and(self) -> tuple:
        operands = [self._unary()]
        while self.peek()[0] == "&":
            self.index += 1
            operands.append(self._unary())
        return operands[0] if len(operands) == 1 else ("and", *operands)

    def _unary(self) -> tuple:
        start = self.index
        while self.peek()[0] == "!":
            self.index += 1
        negated = (self.index - start) % 2 == 1
        token = self.peek()
        if token[0] == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nest deeper than {MAX_NESTING} levels")
            self.depth += 1
            self.index += 1
            node = self._or()
            self.expect(")", "')'")
            self.depth -= 1
        elif token[0] == "ident" and token[1] in RESERVED_WORDS:
            self.index += 1
            node = ("const", token[1] == "TRUE")
        elif token[0] == "ref" or token[0] == "ident":
            node = self.parse_ref()
        else:
            raise self.error("expected a term")
        return ("not", node) if negated else node

    def parse_ref(self) -> tuple:
        token = self.peek()
        if token[0] == "ref":
            self.index += 1
            m = token[3]
            var, type_name, value = m.group(1, 3, 5)
            if type_name in RESERVED_WORDS:
                raise TermSyntaxError(f"'{type_name}' is reserved", self.text, m.start(3))
            if value in RESERVED_WORDS:
                raise TermSyntaxError(f"'{value}' is reserved", self.text, m.start(5))
            type_name = None if type_name == "*" else type_name
            value = None if value == "*" else value
            if type_name is None and value is not None:
                raise self.error("a wildcard type requires a wildcard value", token)
            return ("ref", var, type_name, value)
        # not a reference token: walk the pieces to report where it breaks
        var_token = self.expect("ident", "a variable name")
        var = var_token[1]
        if var in RESERVED_WORDS:
            raise self.error(f"'{var}' is reserved", var_token)
        self.expect(".", "'.'")
        type_name = self._segment("a label type or '*'")
        self.expect(".", "'.'")
        value = self._segment("a label value or '*'")
        if type_name is None and value is not None:
            raise self.error("a wildcard type requires a wildcard value", var_token)
        return ("ref", var, type_name, value)

    def _segment(self, what: str) -> str | None:
        token = self.peek()
        if token[0] == "*":
            self.index += 1
            return None
        if token[0] == "ident":
            if token[1] in RESERVED_WORDS:
                raise self.error(f"'{token[1]}' is reserved", token)
            self.index += 1
            return token[1]
        raise self.error(f"expected {what}")


def parse_term(text: str) -> tuple:
    """Parse a full boolean term; the whole text must be consumed."""
    parser = TermParser(text)
    node = parser.parse_term()
    parser.expect_end()
    return node


def read_assignment(text: str) -> tuple[tuple, tuple, tuple]:
    """Parse ``target := term`` into ((var, type, value), rhs AST, the
    rhs's references as :func:`iter_refs` yields them).

    ``None`` in the target tuple marks a wildcard segment.
    """
    parts = _REF_RE.split(text)
    refs = []
    for var, type_name, value in zip(parts[1::6], parts[3::6], parts[5::6]):
        if type_name in RESERVED_WORDS or value in RESERVED_WORDS or type_name == "*" != value:
            break
        refs.append(("ref", var, None if type_name == "*" else type_name,
                     None if value == "*" else value))
    else:
        try:
            _, shape = parse_shape("r.*.*".join(parts[::6]))
            rhs_refs = tuple(refs[1:])
            return refs[0][1:], _fill(shape, iter(rhs_refs)), rhs_refs
        except TermSyntaxError:
            pass
    target, rhs = parse_shape(text)  # words the error at its column in the text
    return target, rhs, tuple(iter_refs(rhs))


@lru_cache(maxsize=1024)
def parse_shape(text: str) -> tuple[tuple, tuple]:
    """The recursive-descent parse of an assignment text, cached for shapes."""
    parser = TermParser(text)
    _, var, type_name, value = parser.parse_ref()
    parser.expect("assign", "':='")
    rhs = parser.parse_term()
    parser.expect_end()
    return (var, type_name, value), rhs


def _fill(node: tuple, refs: Iterator[tuple]) -> tuple:
    """A shape's AST with ``refs`` in place of its references; one frame
    per node, so at most three per nesting level."""
    tag = node[0]
    if tag == "ref":
        return next(refs)
    if tag == "const":
        return node
    filled = [tag]
    for operand in node[1:]:  # a comprehension or map() would add a frame
        filled.append(_fill(operand, refs))
    return tuple(filled)


def iter_refs(node: tuple) -> Iterator[tuple]:
    """Yield every ("ref", ...) node of a term, left to right."""
    stack = [node]
    while stack:
        node = stack.pop()
        if node[0] == "ref":
            yield node
        elif node[0] != "const":
            stack.extend(reversed(node[1:]))


def compile_truth(node: tuple, ref: Callable[[tuple], object]):
    """Compile a boolean term into a ``bool`` or a one-argument test.

    ``ref`` turns each reference node into a ``bool`` or a test; it is
    called for every reference, left to right, before any folding, so it
    also checks references in branches that folding removes.  The result
    is a ``bool`` exactly when folding the constants decides the term.
    """
    tag = node[0]
    if tag == "ref":
        return ref(node)
    if tag == "const":
        return node[1]
    if tag == "not":
        sub = compile_truth(node[1], ref)
        if isinstance(sub, bool):
            return not sub
        return lambda arg: not sub(arg)
    # "and" is decided by its first false operand, "or" by its first true
    # one; a constant that does not decide the node is dropped
    conjunction = tag == "and"
    decided = False
    tests = []
    for operand in node[1:]:
        test = compile_truth(operand, ref)
        if not isinstance(test, bool):
            tests.append(test)
        elif test != conjunction:
            decided = True
    if decided:
        return not conjunction
    if len(tests) <= 1:
        return tests[0] if tests else conjunction

    def chain(arg):
        for test in tests:
            if (not test(arg)) is conjunction:
                return not conjunction
        return conjunction
    return chain


def wildcard_arity(type_name: str | None, value: str | None) -> int:
    """0 for concrete, 1 for a value wildcard, 2 for type and value."""
    return (type_name is None) + (value is None)
