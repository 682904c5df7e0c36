"""Process entry of ``python -m enspin`` and of the ``enspin`` script.

``run`` ends the process with ``os._exit`` once ``cli.main`` has
returned, so the interpreter is not torn down.  That skips nothing the
output needs:

- enspin registers no atexit handler.  A ``--jobs`` run imports two from
  the standard library: logging's ``shutdown``, with no handler ever
  configured, and multiprocessing's ``_exit_function``, which finds no
  child and no finalizer left.
- ``--jobs`` workers are joined by the pool's ``with`` block before
  ``main`` returns.  Under the fork start method, the Linux default up to
  Python 3.13, workers already leave through ``os._exit``.  Under
  forkserver, the default from 3.14, the server and the resource tracker
  are helpers that leave once they read end of file on the pipes this
  process held, so they outlive it by a moment.
- Both streams are flushed first.
- What is skipped is module teardown and the freeing of objects.

Usage errors and ``--help`` are return codes of ``main`` (2 and 0), so
they leave through ``os._exit`` as well.  An exception out of ``main``
keeps the normal exit with its traceback.  A reader that closes the pipe
early ends the run quietly with exit 1.  ``cli.main`` itself returns, so
library callers and profilers that call it keep the full teardown.
"""

import os
import sys
from typing import NoReturn


def run() -> NoReturn:
    from .cli import main

    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # the reader is gone: nothing more can reach it, and os._exit drops
        # the unflushed rest that a normal exit would fail to write again
        os._exit(1)
    os._exit(code)


if __name__ == "__main__":
    run()
