"""Exception hierarchy.

InputError covers everything caused by bad user input (malformed files,
degenerate point sets); the CLI maps it to exit code 2.  VerificationError
covers internal certificate failures (a construction whose claimed counts
could not be validated, a rearrangement that broke an invariant); the CLI
maps those, and any other unexpected exception, to exit code 1.
"""


class KedgesError(Exception):
    pass


class InputError(KedgesError):
    pass


class PointFileError(InputError):
    pass


class GeneralPositionError(InputError):
    """Raised when an operation requires general position and three of
    the points are collinear."""


class VerificationError(KedgesError):
    pass


class RearrangementError(VerificationError):
    pass
