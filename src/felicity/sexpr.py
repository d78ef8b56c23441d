"""Positioned s-expression reader shared by the formula and scenario parsers.

Only parentheses and bare atoms exist; no strings, quoting, or comments.
Every node remembers its line/column so parse errors can point at the
offending token. Lists nest at most MAX_DEPTH deep, so that the recursive
builders, renderers and evaluators downstream stay within Python's
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .logic import FelicityError

MAX_DEPTH = 100


class ParseError(FelicityError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SAtom:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class SList:
    items: tuple["SNode", ...]
    line: int
    col: int


SNode = SAtom | SList


def _tokenize(text: str):
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c in "()":
            yield (c, line, col)
            col += 1
            i += 1
        else:
            start, start_col = i, col
            while i < n and not text[i].isspace() and text[i] not in "()":
                i += 1
                col += 1
            yield (text[start:i], line, start_col)


def read_all(text: str) -> list[SNode]:
    forms: list[SNode] = []
    stack: list[tuple[list[SNode], int, int]] = []
    for tok, line, col in _tokenize(text):
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise ParseError(f"lists nest deeper than {MAX_DEPTH} levels", line, col)
            stack.append(([], line, col))
        elif tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", line, col)
            items, open_line, open_col = stack.pop()
            node = SList(tuple(items), open_line, open_col)
            if stack:
                stack[-1][0].append(node)
            else:
                forms.append(node)
        else:
            node = SAtom(tok, line, col)
            if stack:
                stack[-1][0].append(node)
            else:
                forms.append(node)
    if stack:
        _, open_line, open_col = stack[-1]
        raise ParseError("unclosed '('", open_line, open_col)
    return forms


def read_one(text: str) -> SNode:
    forms = read_all(text)
    if not forms:
        raise ParseError("empty input", 1, 1)
    if len(forms) > 1:
        extra = forms[1]
        raise ParseError("trailing content after the first form", extra.line, extra.col)
    return forms[0]
