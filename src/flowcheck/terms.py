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
and ``end``.  A reference is read piece by piece, so every error names
the piece where it breaks, and whitespace may surround its dots.

An assignment is parsed once per *shape*: its text with each reference
replaced by ``r.*.*``, split off in one ``re.split`` that never matches
inside an identifier.  The parser reads each distinct shape once, and
the text's references fill a copy of its AST.  A shape that does not
parse, or a reference that fails the reserved-word or wildcard checks,
sends the text itself to the parser, which words the error.  The loader
tests the texts it does not parse with one split of many texts joined
by NULs; a reference's marker there, ``r.a.a``, ``r.a.*`` or ``r.*.*``,
also tells its wildcard arity.  Each load has its own table of names,
so that its assignments share one ``str`` per distinct name
(hash-consing; ``sys.intern`` would make each name immortal on 3.12).

:func:`compile_mask` compiles terms for both label assignments and
constraints into bitmasks over a region: the bits of an assignment's
target, or the single bit of a constraint's verdict.  The two differ
only in the region and in what a reference compiles to.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Callable, Iterator

from .errors import TermSyntaxError

__all__ = [
    "parse_term",
    "read_assignment",
    "check_assignments",
    "iter_refs",
    "compile_mask",
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

# one token per match after optional whitespace: group 1 is a token,
# group 2 a character no token starts with
_TOKEN_RE = re.compile(rf"\s*(?:({_IDENT}|:=|[.*&|!()])|(\S))")

# the references of a text, for the shape split: none starts inside an
# identifier
_REF_RE = re.compile(rf"(?<![A-Za-z0-9_]){_REF}")

# token kinds: "ident", "assign", one of ".*&|!()"; "end" terminates
_KINDS = {":=": "assign", **{symbol: symbol for symbol in ".*&|!()"}}


def _tokenize(text: str) -> list[tuple]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 2:
            raise TermSyntaxError(f"unexpected character {m[2]!r}", text, m.start(2))
        tokens.append((_KINDS.get(m[1], "ident"), m[1], m.start(1)))
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

    def expect(self, kind: str, what: str) -> tuple:
        token = self.peek()
        if token[0] != kind:
            raise self.error(f"expected {what}, found {token[1]!r}" if token[1] else f"expected {what}")
        self.index += 1
        return token

    def expect_word(self, word: str) -> None:
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
        elif token[0] == "ident":
            node = self.parse_ref()
        else:
            raise self.error("expected a term")
        return ("not", node) if negated else node

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


def read_assignment(text: str, names: dict[str, str] | None = None) -> tuple[tuple, tuple, tuple]:
    """Parse ``target := term`` into ((var, type, value), rhs AST, the
    rhs's references as :func:`iter_refs` yields them).

    ``None`` in the target tuple marks a wildcard segment.  The parses
    given one ``names`` table store one ``str`` per name.
    """
    parts = _REF_RE.split(text)
    refs = []
    share = ({} if names is None else names).setdefault
    for var, type_name, value in zip(parts[1::6], parts[3::6], parts[5::6]):
        if type_name in RESERVED_WORDS or value in RESERVED_WORDS or type_name == "*" != value:
            break
        refs.append(("ref", share(var, var),
                     None if type_name == "*" else share(type_name, type_name),
                     None if value == "*" else share(value, value)))
    else:
        try:
            _, shape = parse_shape("r.*.*".join(parts[::6]))
            rhs_refs = tuple(refs[1:])
            return refs[0][1:], _fill(shape, iter(rhs_refs)), rhs_refs
        except TermSyntaxError:
            pass
    target, rhs = parse_shape(text)  # words the error at its column in the text
    return target, rhs, tuple(iter_refs(rhs))


_MARKERS = ("r.a.a", "r.a.*", "r.*.*")  # a reference of wildcard arity 0, 1, 2


def check_assignments(texts: list[str], known, variable: str, targets: bool) -> bool:
    """Whether each text reads as an assignment that names only pairs of
    ``known`` (by wildcard arity, as :func:`wildcard_arity` counts), of
    one arity, and that targets ``variable`` if ``targets``, else not.
    The test takes texts in batches and parses each distinct shape once;
    it may fail a text that holds, but never passes one that does not."""
    marker = {("*" if t is None else t, "*" if v is None else v): _MARKERS[arity]
              for arity, pairs in enumerate(known) for t, v in pairs
              if RESERVED_WORDS.isdisjoint((t, v))}
    target_re = re.compile(rf"(?:^|\0)\s*{re.escape(variable)}\s*\.")  # at a text's start
    shapes: set[str] = set()
    for start in range(0, len(texts), 256):  # small batches keep the split lists small
        batch = texts[start:start + 256]
        joined = "\0".join(batch)  # no reference spans a NUL
        parts = _REF_RE.split(joined)
        marks = list(map(marker.get, zip(parts[3::6], parts[5::6])))  # None: unknown
        hits = len(target_re.findall(joined)) if variable in joined else 0
        if None in marks or joined.count("\0") >= len(batch) or hits != targets * len(batch):
            return False
        shape = [None] * (2 * len(marks) + 1)
        shape[::2], shape[1::2] = parts[::6], marks
        for text in set("".join(shape).split("\0")) - shapes:
            try:
                (_, type_name, value), rhs = parse_shape(text)
            except TermSyntaxError:
                return False
            if any(ref[2:] != (type_name, value) for ref in iter_refs(rhs)):
                return False  # two wildcard arities in one text
            shapes.add(text)
    return True


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


def compile_mask(node: tuple, region: int, ref: Callable[[tuple], object]):
    """Compile a term into a mask within ``region``: an ``int``, or a
    one-argument function returning one.

    ``&``, ``|`` and ``!`` act bitwise, and ``!`` complements within
    ``region``.  ``ref`` turns each reference node into an ``int`` or a
    function; it is called for every reference, left to right, before
    any folding, so it also checks references in branches that folding
    removes.  The result is an ``int`` exactly when folding the
    constants decides the term.
    """
    tag = node[0]
    if tag == "ref":
        return ref(node)
    if tag == "const":
        return region if node[1] else 0
    if tag == "not":
        sub = compile_mask(node[1], region, ref)
        if type(sub) is int:
            return region & ~sub
        return lambda arg: region & ~sub(arg)
    # an "and" chain is decided once its mask is 0, an "or" chain once it
    # is the whole region; the constant operands fold into the start
    conjunction = tag == "and"
    combine, start, stop = (operator.and_, region, 0) if conjunction else (operator.or_, 0, region)
    folded = start
    fns = []
    for operand in node[1:]:
        mask = compile_mask(operand, region, ref)
        if type(mask) is int:
            folded = combine(folded, mask)
        else:
            fns.append(mask)
    if folded == stop or not fns:
        return folded
    if folded == start and len(fns) == 1:
        return fns[0]

    def chain(arg):
        mask = folded
        for fn in fns:
            mask = combine(mask, fn(arg))
            if mask == stop:
                break
        return mask
    return chain


def wildcard_arity(type_name: str | None, value: str | None) -> int:
    """0 for concrete, 1 for a value wildcard, 2 for type and value."""
    return (type_name is None) + (value is None)
