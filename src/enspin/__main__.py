"""Process entry of ``python -m enspin`` and of the ``enspin`` script."""

import sys


def run() -> int:
    from .cli import main

    return main()


if __name__ == "__main__":
    sys.exit(run())
