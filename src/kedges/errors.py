"""Exception hierarchy.

InputError covers everything caused by bad user input (malformed files,
degenerate point sets); the CLI maps it to exit code 2.  VerificationError
covers every failed certificate (a construction whose claimed counts
could not be validated, a rearrangement that broke an invariant, two
counting routes or identity forms that disagree); the CLI maps it, and
any other KedgesError, to exit code 1.  Any other exception is a bug and
ends in a traceback.
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
