"""Positioned s-expression reader shared by the formula and scenario parsers.

Only parentheses and bare atoms exist; no strings, quoting, or comments.
``read_all`` returns the token texts together with the forms, and a form
is made of token indices: an atom is the index of its token (an ``int``),
and a list is ``[index of its "(", *items]`` (a ``list``). Builders read
an atom's text as ``tokens[node]`` and a list's arity as ``len(node) - 1``.
A node's index is also its position, so parse errors point at the
offending token: the line and column are worked out from the text when
asked for, which is only ever on the way to an error. Lists nest at most
MAX_DEPTH deep, so that the recursive builders, renderers and evaluators
downstream stay within Python's recursion limit.
"""

from __future__ import annotations

import re
from itertools import islice

from .syntax import FelicityError

MAX_DEPTH = 100

# A parenthesis, or a maximal run of anything but whitespace and
# parentheses. \s is str.isspace(), so every whitespace character separates.
# read_all splits with str.split(), which separates at the same characters.
_TOKEN = re.compile(r"[()]|[^\s()]+")

SNode = int | list  # a token index, or [index of "(", *items]


class ParseError(FelicityError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class TokenError(Exception):
    """``TokenError(message, node)``: a parse error at a node, not yet placed
    in its text. Builders raise it, and the parser's entry point turns it
    into a ParseError."""

    def place(self, text: str) -> ParseError:
        message, node = self.args
        return ParseError(message, *_position(text, node if type(node) is int else node[0]))


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column (both from 1) of token ``index`` of text; only a
    newline starts a line, and any other character takes one column."""
    offset = next(islice(_TOKEN.finditer(text), index, None)).start()
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def read_all(text: str) -> tuple[list[str], list[SNode]]:
    """The tokens of text and its top-level forms."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    forms: list[SNode] = []
    items = forms
    stack: list[list[SNode]] = []  # the lists enclosing items
    for i, tok in enumerate(tokens):
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise ParseError(f"lists nest deeper than {MAX_DEPTH} levels", *_position(text, i))
            stack.append(items)
            items.append([i])
            items = items[-1]
        elif tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", *_position(text, i))
            items = stack.pop()
        else:
            items.append(i)
    if stack:
        raise ParseError("unclosed '('", *_position(text, items[0]))
    return tokens, forms


def read_one(text: str) -> tuple[list[str], SNode]:
    tokens, forms = read_all(text)
    if not forms:
        raise ParseError("empty input", 1, 1)
    if len(forms) > 1:
        raise TokenError("trailing content after the first form", forms[1]).place(text)
    return tokens, forms[0]
