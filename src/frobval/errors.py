"""The one domain error type.

Every refusal is a ``FrobvalError`` whose ``code`` names the limit or
assumption that stopped it (``P_NOT_PRIME``, ``ORD_UNDETERMINED``, ...).
The code is what callers read: the CLI prints it on the
``error [CODE] (line N):`` line and under the ``"error"`` key of a JSON
object, and tests assert it.  The CLI adds the script ``line`` to every
error's ``details`` and prints them under the ``"details"`` key.
``ParseError`` is the one subclass, because it adds behaviour: exit code 2
instead of 1, and ``details`` that hold the token ``position`` and the
``expected`` alternatives.
"""


class FrobvalError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message
        self.details = {}


class ParseError(FrobvalError):
    """Malformed expression or script input.  `position` is the offset of
    the offending token in the text read; the CLI adds the script line."""

    def __init__(self, message, position=None, expected=None):
        super().__init__("PARSE_ERROR", message)
        if position is not None:
            self.details["position"] = position
        if expected:
            self.details["expected"] = ", ".join(expected)
