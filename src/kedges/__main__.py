"""`python -m kedges ...` runs the kedges command line."""

import os
import sys

from .cli import main


def run() -> int:
    """main() as a process.  A reader that closes stdout early (`| head`)
    ends the run with exit 1 and no traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; aim it at devnull so
        # that flush cannot fail on the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
