"""``python -m gkzkit`` under the per-layer tracer.

Usage: ``python3 bench/traced_cli.py <gkzkit arguments>`` with ``src`` on
PYTHONPATH.  Stdout and the exit code are those of the CLI; the trace is
appended to stderr as one last line starting with ``TRACE_MARK``.
"""

import json
import sys

from tracer import TRACE_MARK, Tracer


def main() -> int:
    tracer = Tracer().install()
    from gkzkit import cli

    tracer.active = True
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.active = False
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps(tracer.snapshot()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
