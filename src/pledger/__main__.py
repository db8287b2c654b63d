"""The process entry: `python -m pledger` and the installed `pledger` script
both run `run()`.

Everything a command process imports, parses or builds lives until it exits,
so a cyclic collection would free nothing. `run` pauses the collector before
the CLI is even imported, and once the command's output is flushed it moves
every object to the permanent generation with `gc.freeze()`, so the
interpreter's shutdown collections have nothing left to examine. `atexit`
handlers and the final flush still run. `cli.main`, the library entry, only
pauses the collector for the command and restores whatever state it found.
"""

import gc
import os
import sys


def run() -> int:
    gc.disable()
    from .cli import main

    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away: point stdout at /dev/null so the final flush
        # stays quiet too (the recipe of Python's `signal` documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 120  # CPython's own status when it cannot flush stdout at exit
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
