"""Tokenizer and diagnostics shared by the textual formats."""
from __future__ import annotations

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


@dataclass(frozen=True)
class Token:
    kind: str  # ident, number, punct, eof
    text: str
    span: Span


_PUNCT3 = ("(+)",)
_PUNCT2 = ("->", "\\/", "||")
_PUNCT1 = "{}()[];:,.!?+|@="


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    diags: list[Diagnostic] = []
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(Token("ident", text[i:j], (line, col, line, col + j - i)))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("number", text[i:j], (line, col, line, col + j - i)))
            col += j - i
            i = j
            continue
        if text[i : i + 3] in _PUNCT3:
            tokens.append(Token("punct", text[i : i + 3], (line, col, line, col + 3)))
            i += 3
            col += 3
            continue
        if text[i : i + 2] in _PUNCT2:
            tokens.append(Token("punct", text[i : i + 2], (line, col, line, col + 2)))
            i += 2
            col += 2
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, (line, col, line, col + 1)))
            i += 1
            col += 1
            continue
        diags.append(
            Diagnostic("error", f"unexpected character {ch!r}", (line, col, line, col + 1))
        )
        i += 1
        col += 1
    if diags:
        raise ParseError(diags)
    tokens.append(Token("eof", "", (line, col, line, col)))
    return tokens
