"""Exception types shared across the package; each survives ``pickle``."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericError(FloatingPointError):
    """A public operation (``op``, when known) produced a non-finite value."""

    def __init__(self, message: str, op: str | None = None):
        super().__init__(message)
        self.op = op


class ValidationError(ValueError):
    """An input record or configuration violates its contract."""


class ParseError(ValueError):
    """A corpus line could not be parsed.

    Carries the 1-based line number so bad records can be located.
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(line_no, message)
        self.line_no, self.message = line_no, message

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss or gradient and was aborted."""
