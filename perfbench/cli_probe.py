"""Run one densilim CLI command with the layer tracer installed.

    python3 perfbench/cli_probe.py density --set "x2>0" --domain true --at 0,0

Behaves like ``python -m densilim.cli`` (same stdout and exit code) and
writes, as the last line of stderr, ``PERFBENCH-TRACE `` followed by the
JSON aggregates of the run, its cold import time under ``import_s`` and the
``cli.main`` span.
"""

import json
import sys
import time
from pathlib import Path

TRACE_MARK = "PERFBENCH-TRACE "


def main() -> int:
    t0 = time.perf_counter()
    import densilim.cli
    import_s = time.perf_counter() - t0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer

    tr = tracer.Tracer()
    tr.install()
    tr.enabled = True
    frame = tr.open("cli.main")
    try:
        code = densilim.cli.main(sys.argv[1:])
    finally:
        tr.close(frame)
        tr.enabled = False
        agg = tr.aggregates()
        agg["import_s"] = import_s
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps(agg), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
