"""Positioned s-expression reader shared by the formula and scenario parsers.

Only parentheses and bare atoms exist; no strings, quoting, or comments.
Every node remembers which token of its text it starts at, so parse errors
can point at the offending token: the line and column are worked out from
the text when asked for, which is only ever on the way to an error. Lists
nest at most MAX_DEPTH deep, so that the recursive builders, renderers and
evaluators downstream stay within Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice

from .logic import FelicityError

MAX_DEPTH = 100

# A parenthesis, or a maximal run of anything but whitespace and
# parentheses. \s is str.isspace(), so every whitespace character separates.
_TOKEN = re.compile(r"[()]|[^\s()]+")


class ParseError(FelicityError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column (both from 1) of token ``index`` of text; only a
    newline starts a line, and any other character takes one column."""
    offset = next(islice(_TOKEN.finditer(text), index, None)).start()
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Node:
    __slots__ = ()

    @property
    def line(self) -> int:
        return _position(self.source, self.index)[0]

    @property
    def col(self) -> int:
        return _position(self.source, self.index)[1]


@dataclass(slots=True)
class SAtom(_Node):
    """An atom token."""

    text: str
    index: int  # of the token among all tokens of the source text
    source: str = field(repr=False, compare=False)  # the text read


@dataclass(slots=True)
class SList(_Node):
    """A parenthesised list of nodes."""

    items: tuple["SNode", ...]
    index: int  # of the opening parenthesis
    source: str = field(repr=False, compare=False)  # the text read


SNode = SAtom | SList


def read_all(text: str) -> list[SNode]:
    forms: list[SNode] = []
    items = forms
    stack: list[tuple[list[SNode], int]] = []  # enclosing items, index of the '('
    for i, tok in enumerate(_TOKEN.findall(text)):
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise ParseError(f"lists nest deeper than {MAX_DEPTH} levels", *_position(text, i))
            stack.append((items, i))
            items = []
        elif tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", *_position(text, i))
            enclosing, start = stack.pop()
            enclosing.append(SList(tuple(items), start, text))
            items = enclosing
        else:
            items.append(SAtom(tok, i, text))
    if stack:
        raise ParseError("unclosed '('", *_position(text, stack[-1][1]))
    return forms


def read_one(text: str) -> SNode:
    forms = read_all(text)
    if not forms:
        raise ParseError("empty input", 1, 1)
    if len(forms) > 1:
        extra = forms[1]
        raise ParseError("trailing content after the first form", extra.line, extra.col)
    return forms[0]
