"""``python -m youngbound.cli`` with the tracer installed.

Usage: ``trace_child.py STATS_PATH CLI_ARGS...``.  Installs the tracer
before the package is imported, runs the command line entry point, writes
the tracer totals to STATS_PATH and exits with the command's exit code.
Used only by the traced run of the ``cli-cold`` workload.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import youngbound.cli

    try:
        code = youngbound.cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(stats_path).write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
