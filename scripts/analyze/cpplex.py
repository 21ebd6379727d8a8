"""A small C++ lexer (stdlib only) for the token frontend and the
lexical pass.

Produces a flat token stream with line numbers; comments are consumed
(suppression comments are collected on the way), string and character
literals become single STRING/CHAR tokens so quoting can never confuse
the downstream micro-parser. Only the multi-character operators the
frontend cares about are fused (``::``, compound assignments, ``->``);
everything else is single-character punctuation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

IDENT = "ident"
NUMBER = "number"
STRING = "string"
CHAR = "char"
PUNCT = "punct"

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_FUSED = ("::", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
          "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "++", "--")
_FUSED_BY_FIRST: dict[str, list[str]] = {}
for _op in _FUSED:
    _FUSED_BY_FIRST.setdefault(_op[0], []).append(_op)

SUPPRESS_RE = re.compile(
    r"//\s*analyze-allow\(\s*([a-z0-9*-]+(?:\s*,\s*[a-z0-9*-]+)*)\s*\)")


@dataclass
class Token:
    kind: str
    text: str
    line: int


def lex(text: str) -> tuple[list[Token], dict[int, set[str]]]:
    """Tokenize `text`. Returns (tokens, suppressions) where suppressions
    maps a line number to the set of rule names allowed there. A
    suppression comment covers its own line; when the comment stands on a
    line of its own it also covers the next line (comment-above style)."""
    tokens: list[Token] = []
    suppressions: dict[int, set[str]] = {}
    i, n, line = 0, len(text), 1
    line_has_code = False

    def add_suppression(comment: str, at_line: int, own_line: bool) -> None:
        m = SUPPRESS_RE.search(comment)
        if not m:
            return
        rules = set(re.split(r"\s*,\s*", m.group(1).strip()))
        suppressions.setdefault(at_line, set()).update(rules)
        if own_line:
            suppressions.setdefault(at_line + 1, set()).update(rules)

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            line += 1
            line_has_code = False
            i += 1
        elif c in " \t\r\f\v":
            i += 1
        elif c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            add_suppression(text[i:j], line, own_line=not line_has_code)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            comment = text[i:j + 2]
            add_suppression(comment, line, own_line=not line_has_code)
            line += comment.count("\n")
            line_has_code = False  # conservative; block comments rarely inline
            i = j + 2
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^()\s\\]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j < 0 else j + len(close)
                tokens.append(Token(STRING, "", line))
                line += text.count("\n", i, j)
                line_has_code = True
                i = j
            else:
                tokens.append(Token(IDENT, "R", line))
                line_has_code = True
                i += 1
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            tokens.append(Token(STRING if quote == '"' else CHAR,
                                text[i + 1:j] if quote == '"' else "", line))
            line += text.count("\n", i, j)
            line_has_code = True
            i = j + 1
        elif c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(Token(IDENT, text[i:j], line))
            line_has_code = True
            i = j
        elif c.isdigit() or (c == "." and nxt.isdigit()):
            m = re.match(r"[0-9][0-9a-fA-FxX'.uUlLfFeE+-]*|\.[0-9][0-9a-fA-F'.uUlLfFeE+-]*",
                         text[i:])
            tokens.append(Token(NUMBER, m.group(0), line))
            line_has_code = True
            i += m.end()
        else:
            for op in _FUSED_BY_FIRST.get(c, ()):
                if text.startswith(op, i):
                    tokens.append(Token(PUNCT, op, line))
                    i += len(op)
                    break
            else:
                tokens.append(Token(PUNCT, c, line))
                i += 1
            line_has_code = True
    return tokens, suppressions


def match_forward(tokens: list[Token], i: int, open_text: str, close_text: str) -> int:
    """Index of the token closing the bracket opened at tokens[i]; len() if
    unbalanced. tokens[i] must be `open_text`."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == open_text:
            depth += 1
        elif t == close_text:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n
