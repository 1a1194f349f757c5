"""Exception and warning types shared across the package.

All errors raised by this package derive from :class:`VocabBridgeError`, so
callers (including the command line front-end) can distinguish data problems
from programming errors with a single ``except`` clause.
"""

from __future__ import annotations


class VocabBridgeError(Exception):
    """Base class for every error raised by this package."""


class ParseError(VocabBridgeError):
    """A text artifact could not be parsed.

    ``line`` is the 1-based line number at which the problem was detected,
    or ``None`` when no single line is to blame.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MalformedHeader(ParseError):
    """The header line of a file does not match the expected format."""


class RowArityMismatch(ParseError):
    """A data row has the wrong number of fields."""


class NonFiniteValue(ParseError):
    """A numeric field parsed to NaN or infinity."""


class CountMismatch(ParseError):
    """The number of data rows disagrees with the declared count."""


class MalformedLine(ParseError):
    """A line of a line-oriented file could not be interpreted."""


class ValidationError(VocabBridgeError):
    """An argument violates a documented precondition or invariant."""


class ZeroRow(ValidationError):
    def __init__(self, token: str):
        super().__init__(f"cannot normalize zero-norm row for token {token!r}")
        self.token = token


class MissingToken(ValidationError):
    def __init__(self, token: str, position: int):
        super().__init__(f"token {token!r} (position {position}) not in vocabulary")
        self.token = token
        self.position = position


class TokenNotFound(ValidationError):
    def __init__(self, token: str):
        super().__init__(f"token {token!r} not in vocabulary")
        self.token = token


class DimMismatch(ValidationError):
    pass


class KTooLarge(ValidationError):
    pass


class EmptyCorpus(ValidationError):
    pass


class EmptyIntersection(ValidationError):
    pass


class DegenerateInput(ValidationError):
    pass


class EmptyEvalDict(ValidationError):
    pass


class EmptyStage1Dict(ValidationError):
    pass


class EmptyStage2Anchors(ValidationError):
    pass


class EmptyAnchorPool(ValidationError):
    pass


class MissingAnchor(ValidationError):
    def __init__(self, token: str):
        super().__init__(f"anchor {token!r} has no embedding row")
        self.token = token


class MissingAssignment(ValidationError):
    def __init__(self, token: str):
        super().__init__(f"no mixture assignment for new token {token!r}")
        self.token = token


class DuplicateNewToken(ValidationError):
    def __init__(self, token: str):
        super().__init__(f"new token {token!r} duplicates an existing or earlier token")
        self.token = token


class CorpusMismatch(ValidationError):
    pass


class LowRankWarning(UserWarning):
    """Fewer training pairs than dimensions; the fitted map is underdetermined."""
