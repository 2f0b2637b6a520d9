"""Exception hierarchy.

Everything raised on bad data or violated preconditions derives from
DataError so callers (and the CLI exit-code mapping) can catch one type.
"""


class DataError(Exception):
    """Base class for data, schema and precondition failures."""


class SchemaError(DataError):
    """A structured file violates its schema (duplicate id, bad enum, ...)."""


class ParseError(DataError):
    """A cell of a CSV file failed to parse.

    Carries 1-based row and column of the offending cell.
    """

    def __init__(self, row, col, message, path=None):
        super().__init__(f"{'' if path is None else f'{path}: '}row {row}, col {col}: {message}")
        self.row = row
        self.col = col


class RaggedRowsError(DataError):
    """CSV rows do not all have the header's column count."""


class MissingTraceFileError(DataError):
    """A manifest references a trace file that does not exist."""


class InconsistentMetricsError(DataError):
    """Corpus items do not share an identical metric list."""


class TooShortError(DataError):
    """A series or trace is shorter than the operation requires."""


class LengthMismatchError(DataError):
    """Paired series have different shapes or are not 1-D."""


class TooShortSeriesError(DataError):
    """A statistic needs more samples than the series has."""


class DegenerateXError(DataError):
    """Regression on a constant predictor."""


class InvalidScriptError(DataError):
    """A scene script violates its invariants."""


class InvalidSpecError(DataError):
    """A corpus spec violates its invariants (too few classes, ...)."""


class UnknownMetricError(DataError):
    """A metric id is not present in the catalog / trace at hand."""


class InsufficientLabelsError(DataError):
    """A training operation needs at least two distinct labels."""


class LabelTooSmallError(DataError):
    """A label has too few items for the requested split or fold count."""


class DegenerateInputError(DataError):
    """Training data is degenerate (single class, empty, k > n, ...)."""


class UnknownLabelError(DataError):
    """Evaluation saw a label the model was never trained on."""


class SingleGroupError(DataError):
    """Leave-one-group-out requires at least two distinct groups."""


class EmptyGridError(DataError):
    """Grid search requires a nonempty parameter grid."""


class NoStepFoundError(DataError):
    """Anchor search found no step event."""


class NoKnownMetricsError(DataError):
    """A trace shares no metrics with the catalog."""


class InvalidStrategyError(DataError):
    """A noise-injection strategy has invalid parameters."""
