"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: usage errors -> 1, data errors -> 2,
numeric failures (NaN/Inf, failed gradient check) -> 3.
"""


class RetweetRegError(Exception):
    """Base class for all toolkit errors."""


class UsageError(RetweetRegError):
    """Bad command-line arguments or configuration."""


class DataFormatError(RetweetRegError):
    """Malformed input record: wrong field count, unparseable field, etc."""

    def __init__(self, message, line_number=None, column=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if column is not None:
            message = f"{message} (column '{column}')"
        super().__init__(message)
        self.line_number = line_number
        self.column = column


class ValidationError(RetweetRegError):
    """A parsed value lies outside its documented range."""


class ShapeError(RetweetRegError):
    """Tensor shapes do not conform to an operation's contract."""


class PoolingError(RetweetRegError):
    """k-max pooling asked for more values than the row holds."""


class FoldError(RetweetRegError):
    """Folding requires an even number of rows."""


class EmbeddingError(RetweetRegError):
    """Token id outside the embedding table."""


class BuildError(RetweetRegError):
    """Model configuration violates its invariants."""


class InferenceError(RetweetRegError):
    """Batch does not match the model's input mode or shapes."""


class MetricError(RetweetRegError):
    """Metric inputs empty, mismatched, or the metric is undefined."""


class NumericError(RetweetRegError):
    """Non-finite value produced by a forward or backward pass."""
