"""Run the qlatin command line from this checkout's sources, as the installed
``qlatin`` script would: ``python3 perfbench/cli_shim.py synth --m 8 --c 500``.

With PERFBENCH_TRACE_OUT set to a file path, it first wraps qlatin's public
functions and each claim in spans, and writes the spans, counters and cache
sizes to that file at exit.
"""

from __future__ import annotations

import os
import sys

from warm import use_checkout_sources


def main() -> int:
    use_checkout_sources()
    import qlatin.cli

    out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not out:
        return qlatin.cli.main()

    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        return qlatin.cli.main()
    finally:
        t.uninstall()
        t.dump(out, {"caches": tracer.cache_sizes()})


if __name__ == "__main__":
    sys.exit(main())
