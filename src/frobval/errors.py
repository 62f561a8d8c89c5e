"""Error hierarchy.

Every domain error carries a stable machine-readable ``code`` so the CLI can
emit structured error objects in JSON mode.
"""


class FrobvalError(Exception):
    code = "ERROR"

    def __init__(self, message, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_json_obj(self):
        obj = {"schema": 1, "error": self.code, "message": self.message}
        if self.details:
            obj["details"] = {k: str(v) for k, v in self.details.items()}
        return obj


class MixedRadicandError(FrobvalError):
    code = "MIXED_RADICAND"


class MixedRepresentationError(FrobvalError):
    code = "MIXED_REPRESENTATION"


class GroupMismatchError(FrobvalError):
    code = "GROUP_MISMATCH"


class ParseError(FrobvalError):
    """Raised on malformed expression or DSL input.  `position` is the offset
    of the offending token in the text read; the CLI adds the script line."""

    code = "PARSE_ERROR"

    def __init__(self, message, position=None, expected=None):
        details = {}
        if position is not None:
            details["position"] = position
        if expected:
            details["expected"] = ", ".join(expected)
        super().__init__(message, **details)
        self.position = position
        self.expected = expected or []
        self.line = None

    def at_line(self, line):
        self.line = self.details["line"] = line


class UnknownVariableError(FrobvalError):
    code = "UNKNOWN_VARIABLE"


class ZeroDenominatorError(FrobvalError):
    code = "ZERO_DENOMINATOR"


class SpecMismatchError(FrobvalError):
    code = "SPEC_MISMATCH"


class DivisionByZeroError(FrobvalError):
    code = "DIVISION_BY_ZERO"


class ZeroArgumentError(FrobvalError):
    code = "ZERO_ARGUMENT"


class GroundVarInSeriesContextError(FrobvalError):
    code = "GROUND_VAR_IN_SERIES_CONTEXT"


class MissingAssignmentError(FrobvalError):
    code = "MISSING_ASSIGNMENT"


class OrdUndeterminedError(FrobvalError):
    """Series order not resolved below the precision cap.

    This can indicate an algebraic relation among the assigned series, in
    which case the construction is not a valuation at all; the condition is
    surfaced instead of being silently absorbed.
    """

    code = "ORD_UNDETERMINED"


class NoOrd1WitnessError(FrobvalError):
    code = "NO_ORD1_WITNESS"


class UnsupportedKindError(FrobvalError):
    code = "UNSUPPORTED_KIND"


class RankTooLargeError(FrobvalError):
    code = "RANK_TOO_LARGE"


class NotPrimeError(FrobvalError):
    code = "P_NOT_PRIME"


class DuplicateVariableError(FrobvalError):
    code = "DUPLICATE_VARIABLE"


class NoMainVariableError(FrobvalError):
    code = "NO_MAIN_VARIABLE"


class BadRadicandError(FrobvalError):
    code = "BAD_RADICAND"


class NegativeWeightError(FrobvalError):
    code = "NEGATIVE_WEIGHT"


class ZeroWeightError(FrobvalError):
    code = "ZERO_WEIGHT"


class WeightLengthError(FrobvalError):
    code = "WEIGHT_LENGTH_MISMATCH"


class WeightVarsError(FrobvalError):
    code = "WEIGHT_VARS_MISMATCH"


class ConstantDivisorError(FrobvalError):
    code = "CONSTANT_DIVISOR"


class GroundDivisorError(FrobvalError):
    code = "GROUND_DIVISOR"


class ReducibleDivisorError(FrobvalError):
    code = "REDUCIBLE_DIVISOR"


class PrimeTooLargeError(FrobvalError):
    code = "P_TOO_LARGE"


class RadicandTooLargeError(FrobvalError):
    code = "RADICAND_TOO_LARGE"


class LiteralTooLargeError(FrobvalError):
    code = "LITERAL_TOO_LARGE"


class NestingTooDeepError(FrobvalError):
    code = "NESTING_TOO_DEEP"
