"""Traced entry point of one CLI request.

    python3 perfbench/child.py <spans.json> <request-id> <scrollflex args...>

Installs the span wrappers, runs ``scrollflex.cli.main`` on the remaining
arguments, writes the spans when the request ends and exits with the CLI's
own status.  ``verify`` runs its checks in a thread pool, so its spans are
timed in per-thread CPU seconds; every other command is timed in wall
seconds.
"""

import sys
import time

from spans import Tracer


def main() -> int:
    out, request, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(time.thread_time if argv[:1] == ["verify"] else time.perf_counter)
    tracer.install()
    tracer.request = request
    from scrollflex import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
