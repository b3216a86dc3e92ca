"""Tokenizer and diagnostics shared by the textual formats.

One pattern, compiled at import, scans a text into two flat lists: the
token texts and their start offsets. A token's kind is its first
character's: a letter starts an identifier, a digit a number, anything
else punctuation, and the empty text is the end of input. Blanks and `#`
comments separate tokens. A `(line, col)` span is worked out from an offset
only when a diagnostic asks for one.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

Span = tuple[int, int, int, int]  # line, col, end line, end col (1-based)


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    span: Span

    def __str__(self) -> str:
        l1, c1, l2, c2 = self.span
        return f"{self.severity}: {l1}:{c1}-{l2}:{c2}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = tuple(diagnostics)


_SKIP = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"  # blanks, and comments up to a newline


def _pattern(odd: str = "", odd_digits: str = "") -> re.Pattern:
    """A token, or in its place (group 1 unset) a character no token starts
    with, and the blanks and comments after it. `\\w` and `\\d` also hold
    numerals that are neither letters nor decimal digits, such as `²` and
    `½`: `odd` lists those a text holds, to move them out of the letters,
    and `odd_digits` those that are digits, to move them into the numbers."""
    return re.compile(rf"(?:([^\W\d_{odd}][\w']*|[.!?:;]|[\d{odd_digits}]+|\(\+\)|->|\\/|\|\|"
                      rf"|[{{}}()\[\]+|@=,])|.)" + _SKIP)


_TOKEN = _pattern()
_LEADING = re.compile(_SKIP)


def span(text: str, start: int, length: int) -> Span:
    """The span of the `length` characters at offset `start`, on one line."""
    line, col = next(_places(text, [start]))
    return (line, col, line, col + length)


def _places(text: str, offsets: list[int]):
    """The (line, col) of each offset, in increasing order, in one pass."""
    line, line_start, prev = 1, 0, 0
    for offset in offsets:
        newlines = text.count("\n", prev, offset)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", prev, offset) + 1
        prev = offset
        yield line, offset - line_start + 1


def tokenize(text: str) -> tuple[list[str], list[int]]:
    """The token texts and their start offsets, ending in two end-of-input
    tokens (the parser looks one token ahead). The end of input sits before
    a comment that ends the text; every character that starts no token is
    reported, all in one ParseError."""
    pattern = _TOKEN
    if not text.isascii():
        odd = [c for c in sorted(set(text)) if c.isalnum() and not (c.isalpha() or c.isdecimal())]
        if odd:
            pattern = _pattern("".join(odd), "".join(c for c in odd if c.isdigit()))
    found = list(pattern.finditer(text, _LEADING.match(text).end()))
    texts = [m[1] for m in found]
    starts = [m.start() for m in found]
    if None in texts:
        bad = [s for t, s in zip(texts, starts) if t is None]
        raise ParseError([
            Diagnostic("error", f"unexpected character {text[s]!r}", (line, col, line, col + 1))
            for s, (line, col) in zip(bad, _places(text, bad))
        ])
    end = text.find("#", text.rfind("\n") + 1)
    end = len(text) if end < 0 else end
    return texts + ["", ""], starts + [end, end]
