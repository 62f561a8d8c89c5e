"""The tokenizer of the script language.

A ``Cursor`` splits a text into tokens in a single regex pass: integer
literals and identifiers, both of ASCII characters only (another script's
digit or letter is a single character), the arrow ``->`` and single
characters (operators, brackets, separators, and anything else, which no
grammar accepts).  The readers of field variable lists, weights, integer
vectors, polynomials and valuation bodies all consume it, so they share one
token set, one error format and one conversion of integer literals, bounded
by ``LITERAL_DIGIT_LIMIT``.  Only ``function_field.parse_ratfun`` reads
some texts without it: flat sums and quotients, which it splits on their
operators.  It hands every other text to its token reader, so every parse
error comes from a ``Cursor``.
Brackets opened with ``Cursor.open`` nest at most ``NESTING_LIMIT`` deep, so
a recursive reader fails with a coded error long before the interpreter's
stack runs out.

Token offsets are found again only when an error or a source slice needs
them, so a successful read costs nothing per token beyond the regex.
"""

from __future__ import annotations

import re

from .errors import FrobvalError, ParseError

# the longest integer literal read; far above any p, radicand, weight or
# exponent worth computing with, and below the interpreter's own limit of
# 4,300 digits on converting text to int
LITERAL_DIGIT_LIMIT = 1000

# the deepest nesting of brackets read; each level costs a reader a few
# stack frames, and the interpreter allows about a thousand
NESTING_LIMIT = 100

# findall skips what starts no token: exactly the whitespace that \S excludes
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|->|\S")
# the first character of an integer literal token; a set, not a string, so
# the empty end-of-input token is not in it
DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

_END = ""  # what peek returns past the last token


def literal_int(digits: str) -> int:
    """The value of a decimal literal of at most LITERAL_DIGIT_LIMIT digits."""
    if len(digits) > LITERAL_DIGIT_LIMIT:
        raise FrobvalError(
            "LITERAL_TOO_LARGE",
            f"integer literal of {len(digits)} digits; the limit is "
            f"{LITERAL_DIGIT_LIMIT}"
        )
    return int(digits)


class Cursor:
    """The tokens of ``text[start:]`` and the index of the next one."""

    __slots__ = ("text", "start", "tokens", "i", "depth")

    def __init__(self, text: str, start: int = 0):
        self.text = text
        self.start = start
        self.tokens = _TOKEN.findall(text, start)
        self.tokens.append(_END)
        self.i = 0
        self.depth = 0  # brackets opened and not yet closed

    def peek(self) -> str:
        return self.tokens[self.i]

    def accept(self, tok: str) -> bool:
        """Take the next token if it is `tok`."""
        if self.tokens[self.i] == tok:
            self.i += 1
            return True
        return False

    def expect(self, tok: str) -> None:
        if not self.accept(tok):
            raise self.fail(repr(tok))

    def open(self, tok: str) -> bool:
        """Take the opening bracket `tok` if it is next, counting the depth
        of open brackets against NESTING_LIMIT."""
        if not self.accept(tok):
            return False
        self.depth += 1
        if self.depth > NESTING_LIMIT:
            raise FrobvalError(
                "NESTING_TOO_DEEP",
                f"brackets nested more than {NESTING_LIMIT} deep (the nesting limit)"
            )
        return True

    def close(self, tok: str) -> None:
        """Take the closing bracket `tok` of the innermost open one."""
        self.expect(tok)
        self.depth -= 1

    def expect_end(self) -> None:
        if self.tokens[self.i] is not _END:
            raise self.fail("end of input")

    def at_int(self) -> bool:
        """Whether the next token is an integer literal."""
        return self.tokens[self.i][:1] in DIGITS

    def take_int(self, *alternatives: str) -> int:
        """Take an integer literal; `alternatives` name what else the
        grammar would have accepted here, for the error."""
        tok = self.tokens[self.i]
        if tok[:1] not in DIGITS:
            raise self.fail("integer", *alternatives)
        self.i += 1
        return literal_int(tok)

    def take_name(self, *alternatives: str) -> str:
        tok = self.tokens[self.i]
        if tok[:1] not in _NAME_START:
            raise self.fail("identifier", *alternatives)
        self.i += 1
        return tok

    def _spans(self):
        return [m.span() for m in _TOKEN.finditer(self.text, self.start)]

    def position(self, i: int | None = None) -> int:
        """Offset in the text of token `i` (default: the next one); the
        length of the text for the end of input."""
        spans = self._spans()
        i = self.i if i is None else i
        return spans[i][0] if i < len(spans) else len(self.text)

    def source(self, first: int) -> str:
        """The text of the tokens taken from index `first` on."""
        spans = self._spans()
        return self.text[spans[first][0]:spans[self.i - 1][1]]

    def fail(self, *expected: str) -> ParseError:
        """A ParseError at the next token, naming what was expected instead."""
        tok = self.tokens[self.i]
        got = repr(tok) if tok is not _END else "end of input"
        return ParseError(
            f"expected {' or '.join(expected)}, got {got}",
            position=self.position(), expected=list(expected),
        )
