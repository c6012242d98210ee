"""Tokenizer and parser for assignment and constraint terms.

Grammar (```&`` binds tighter than ``|``, ``!`` tighter than both):

    assignment ::= ref ':=' term
    term       ::= or
    or         ::= and ('|' and)*
    and        ::= unary ('&' unary)*
    unary      ::= '!' unary | atom
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
    ("and", left, right)
    ("or", left, right)

:func:`compile_truth` compiles boolean terms for both label assignments
and constraints; they differ only in what a reference compiles to.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator

from .errors import TermSyntaxError

__all__ = [
    "parse_term",
    "parse_assignment",
    "iter_refs",
    "compile_truth",
    "wildcard_arity",
    "TermParser",
    "RESERVED_WORDS",
]

RESERVED_WORDS = frozenset({"TRUE", "FALSE"})

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<assign>:=)
    | (?P<sym>[.*&|!()])
    """,
    re.VERBOSE,
)

# token kinds: "ident", "assign", one of ".*&|!()"; "end" terminates
_END = ("end", "", -1)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise TermSyntaxError(f"unexpected character {text[pos]!r}", text, pos)
        if m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "assign":
            tokens.append(("assign", ":=", pos))
        elif m.lastgroup == "sym":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
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

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        if token[0] != "end":
            self.index += 1
        return token

    def error(self, message: str, token=None) -> TermSyntaxError:
        token = token or self.peek()
        position = token[2] if token[2] >= 0 else len(self.text)
        return TermSyntaxError(message, self.text, position)

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != kind:
            raise self.error(f"expected {what}, found {token[1]!r}" if token[1] else f"expected {what}")
        return self.advance()

    def expect_word(self, word: str) -> None:
        token = self.peek()
        if token[0] != "ident" or token[1] != word:
            raise self.error(f"expected '{word}'")
        self.advance()

    def at_end(self) -> bool:
        return self.peek()[0] == "end"

    def expect_end(self) -> None:
        if not self.at_end():
            raise self.error("unexpected trailing input")

    # -- grammar ------------------------------------------------------------

    def parse_term(self) -> tuple:
        return self._or()

    def _or(self) -> tuple:
        node = self._and()
        while self.peek()[0] == "|":
            self.advance()
            node = ("or", node, self._and())
        return node

    def _and(self) -> tuple:
        node = self._unary()
        while self.peek()[0] == "&":
            self.advance()
            node = ("and", node, self._unary())
        return node

    def _unary(self) -> tuple:
        if self.peek()[0] == "!":
            self.advance()
            return ("not", self._unary())
        return self._atom()

    def _atom(self) -> tuple:
        token = self.peek()
        if token[0] == "(":
            self.advance()
            node = self._or()
            self.expect(")", "')'")
            return node
        if token[0] == "ident":
            if token[1] == "TRUE":
                self.advance()
                return ("const", True)
            if token[1] == "FALSE":
                self.advance()
                return ("const", False)
            return self.parse_ref()
        raise self.error("expected a term")

    def parse_ref(self) -> tuple:
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
            self.advance()
            return None
        if token[0] == "ident":
            if token[1] in RESERVED_WORDS:
                raise self.error(f"'{token[1]}' is reserved", token)
            self.advance()
            return token[1]
        raise self.error(f"expected {what}")


def parse_term(text: str) -> tuple:
    """Parse a full boolean term; the whole text must be consumed."""
    parser = TermParser(text)
    node = parser.parse_term()
    parser.expect_end()
    return node


def parse_assignment(text: str) -> tuple[tuple[str, str | None, str | None], tuple]:
    """Parse ``target := term`` into ((var, type, value), rhs AST).

    ``None`` in the target tuple marks a wildcard segment.
    """
    parser = TermParser(text)
    _, var, type_name, value = parser.parse_ref()
    parser.expect("assign", "':='")
    rhs = parser.parse_term()
    parser.expect_end()
    return (var, type_name, value), rhs


def iter_refs(node: tuple) -> Iterator[tuple]:
    """Yield every ("ref", ...) node of a term, left to right."""
    tag = node[0]
    if tag == "ref":
        yield node
    elif tag == "not":
        yield from iter_refs(node[1])
    elif tag in ("and", "or"):
        yield from iter_refs(node[1])
        yield from iter_refs(node[2])


def compile_truth(node: tuple, ref: Callable[[tuple], object]):
    """Compile a boolean term into a ``bool`` or a one-argument test.

    ``ref`` turns each reference node into a ``bool`` or a test; it is
    called for every reference, left to right, before any folding, so it
    also checks references in branches that folding removes.  The result
    is a ``bool`` exactly when the term's value is a constant.
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
    left = compile_truth(node[1], ref)
    right = compile_truth(node[2], ref)
    conjunction = tag == "and"
    # a constant that is neutral for the operator leaves the other side,
    # one that absorbs it decides the term
    if isinstance(left, bool):
        return right if left == conjunction else not conjunction
    if isinstance(right, bool):
        return left if right == conjunction else not conjunction
    if conjunction:
        return lambda arg: left(arg) and right(arg)
    return lambda arg: left(arg) or right(arg)


def wildcard_arity(type_name: str | None, value: str | None) -> int:
    """0 for concrete, 1 for a value wildcard, 2 for type and value."""
    return (type_name is None) + (value is None)
