import gc
import sys

# Everything a command process imports, parses or builds lives until it
# exits, so a cyclic collection would free nothing: pause the collector
# before the CLI is even imported. `cli.main` restores whatever state it
# found, so it leaves this one paused too.
gc.disable()

from .cli import main  # noqa: E402 - imported once the collector is paused

sys.exit(main())
