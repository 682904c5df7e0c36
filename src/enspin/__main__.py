"""Process entry of ``python -m enspin`` and of the ``enspin`` script.

Every CLI command computes in integer numpy or exact Python arithmetic
and never calls BLAS, so the entry caps OpenBLAS at one thread before
anything imports numpy; otherwise OpenBLAS starts a second thread that
spin-waits for the life of the process.  An OPENBLAS_NUM_THREADS the
user has set wins, and --jobs workers inherit the variable.  The cap
lives here and not in the package, so importing enspin as a library
leaves the host program's BLAS threading alone.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def run() -> int:
    from .cli import main

    return main()


if __name__ == "__main__":
    sys.exit(run())
