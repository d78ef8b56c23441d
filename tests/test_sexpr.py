"""The s-expression reader against a character-by-character reference.

The reference walks the text one character at a time, counting lines at
each newline and columns at every other character, so every position the
reader reports (on nodes and in errors) can be checked against it.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from felicity.sexpr import MAX_DEPTH, ParseError, _TOKEN, _position, read_all, read_one


def _reference_tokens(text):
    line, col, i = 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
        elif c.isspace():
            col, i = col + 1, i + 1
        elif c in "()":
            yield c, line, col
            col, i = col + 1, i + 1
        else:
            start, start_col = i, col
            while i < len(text) and not text[i].isspace() and text[i] not in "()":
                col, i = col + 1, i + 1
            yield text[start:i], line, start_col


def _reference_read(text):
    """Nested (token, line, col) tuples, or the (message, line, col) of the
    first error."""
    forms, stack = [], []
    for tok, line, col in _reference_tokens(text):
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                return "error", (f"lists nest deeper than {MAX_DEPTH} levels", line, col)
            stack.append(([], line, col))
        elif tok == ")":
            if not stack:
                return "error", ("unexpected ')'", line, col)
            items, l, c = stack.pop()
            (stack[-1][0] if stack else forms).append(("(", l, c, tuple(items)))
        else:
            (stack[-1][0] if stack else forms).append((tok, line, col))
    if stack:
        return "error", ("unclosed '('", stack[-1][1], stack[-1][2])
    return "ok", forms


def _shape(node, tokens, text):
    """The reference's nesting for a node: an atom is its token index and a
    list is [index of its '(', *items]."""
    if type(node) is int:
        return (tokens[node], *_position(text, node))
    return ("(", *_position(text, node[0]), tuple(_shape(n, tokens, text) for n in node[1:]))


def _read(text):
    try:
        tokens, forms = read_all(text)
    except ParseError as exc:
        return "error", (exc.message, exc.line, exc.col)
    # Positions index _TOKEN's tokens, so the reader must split the same way.
    assert tokens == _TOKEN.findall(text)
    return "ok", [_shape(n, tokens, text) for n in forms]


_MESSY = "(only (some a\t(and-conc b\r\n  c)))\r\n\t(not  x)\x0b y z\r\n"


class TestReaderPositions:
    @pytest.mark.parametrize(
        "text",
        [
            _MESSY,
            _MESSY + ")",  # unexpected ')'
            "\t\r\n(a\r\n\t(b c\r\n",  # unclosed '(', innermost reported
            "\r\n\t" + "(" * (MAX_DEPTH + 1) + ")" * (MAX_DEPTH + 1),  # depth limit
            "\t" + "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,  # deepest accepted
            "a\r\n\tb)",
            "",
            "\r\n\t \r\n",
        ],
    )
    def test_matches_character_reference(self, text):
        assert _read(text) == _reference_read(text)

    def test_trailing_content_position(self):
        text = "(some a b)\r\n\t\t(all a b)"
        with pytest.raises(ParseError) as err:
            read_one(text)
        expected = _reference_read(text)[1][1]
        assert err.value.message == "trailing content after the first form"
        assert (err.value.line, err.value.col) == expected[1:3] == (2, 3)
        assert str(err.value) == "line 2, col 3: trailing content after the first form"

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            read_one(" \t\r\n")
        assert (err.value.message, err.value.line, err.value.col) == ("empty input", 1, 1)

    def test_token_whitespace_is_str_isspace(self):
        # the reference splits at str.isspace(); the reader and the pattern
        # its positions index must too
        def splits(c):
            text = "a" + c + "a"
            return _TOKEN.findall(text) == ["a", "a"], read_all(text)[0] == ["a", "a"]

        differ = [
            c for c in map(chr, range(sys.maxunicode + 1))
            if c not in "()" and splits(c) != (c.isspace(), c.isspace())
        ]
        assert differ == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["(", ")", "ab", "c-1", " ", "\t", "\r\n", "\n", "\r"]
                # whitespace beyond ASCII, then two characters that are not
                + ["\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\u3000", "\u200b", "\ufeff"]
            )
        )
    )
    def test_random_text_matches_reference(self, pieces):
        text = "".join(pieces)
        assert _read(text) == _reference_read(text)
