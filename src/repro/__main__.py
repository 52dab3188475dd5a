"""``python -m repro`` and the ``repro`` console script.

The process entry point is the one place that leaves with
:func:`os._exit`: by the time :func:`repro.cli.main` returns, every
file the command wrote (``--trace``, ``--metrics``, stores, event logs)
has been closed by the code that opened it, and what remains of a
normal interpreter exit is freeing a heap of terms and clauses object
by object — 50–60 ms per audit that the OS does in one step.  ``main``
itself never hard-exits, so tests, resident workers and the daemon's
checkpoint-on-the-way-out run as ordinary Python.
"""

import os
import sys

from .cli import main


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away (`repro ... | head`): no
        # verdict was delivered, so do not exit with one.
        code = 2
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
