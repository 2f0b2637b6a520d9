"""Exception types.

Everything raised on bad data or violated preconditions is a DataError, so
callers (and the CLI, which maps it to exit code 2) can catch one type. A
subclass exists only when some caller tells it apart from the others or it
carries data; every other fault is a DataError, or the subclass it most
resembles, whose message says what went wrong.
"""


class DataError(Exception):
    """Base class for data, schema and precondition failures."""


class SchemaError(DataError):
    """A structured file, a declaration or a CSV's shape violates its schema."""


class ParseError(DataError):
    """A cell of a CSV file failed to parse.

    Carries 1-based row and column of the offending cell.
    """

    def __init__(self, row, col, message, path=None):
        super().__init__(f"{'' if path is None else f'{path}: '}row {row}, col {col}: {message}")
        self.row = row
        self.col = col


class UnknownMetricError(DataError):
    """A metric id is not present in the catalog / trace at hand."""


class UnknownLabelError(DataError):
    """Evaluation saw a label the model was never trained on."""


class DegenerateInputError(DataError):
    """Input too small or too degenerate for the operation: too few samples,
    classes, groups or grid entries, mismatched lengths, a constant
    predictor, or features of the wrong width."""
