"""Exception hierarchy shared by all modules.

Each class carries the CLI exit code its errors end a command with.
"""


class DrmditError(Exception):
    """Base class for all library errors."""
    exit_code = 1


class ParameterError(DrmditError):
    """Invalid argument: bad shape, bad range, empty input."""
    exit_code = 2


class DataError(DrmditError):
    """Unusable input data: missing file, no parseable rows, non-finite values."""
    exit_code = 3


class DegeneracyError(DrmditError):
    """Numeric degeneracy: zero trace, singular matrix, collapsed batch."""
    exit_code = 4


class TrainingError(DrmditError):
    """Optimization failure (non-finite gradient or parameter)."""
    exit_code = 4
