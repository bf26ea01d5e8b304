"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericError(FloatingPointError):
    """A public operation produced a non-finite value."""


class ValidationError(ValueError):
    """An input record or configuration violates its contract."""


class ParseError(ValueError):
    """A corpus line could not be parsed.

    Carries the 1-based line number so bad records can be located.
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss or gradient and was aborted."""
