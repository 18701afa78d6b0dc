#!/usr/bin/env python3
"""Run one ``hrt`` CLI command with the benchmark's hooks installed.

    python3 bench/traced_cli.py spans TOTALS.json <hrt arguments...>
    python3 bench/traced_cli.py stamps STAMPS.json <hrt arguments...>

Behaves like ``python -m hrt.cli <hrt arguments...>``, then writes what the
hooks recorded.  ``spans`` installs the tracer and writes the hook call
counts and per-layer span totals to TOTALS.json.  ``stamps`` writes to
STAMPS.json the time this script started, the time hrt was imported, and
the return time of every ``HrtModel.forward`` and ``optimizer_step`` call
(``StepClock``), all on the ``CLOCK_MONOTONIC`` clock that the calling
process reads too.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hrt.cli  # noqa: E402
from hooks import StepClock, Tracer  # noqa: E402

IMPORTED = time.perf_counter()


def main() -> int:
    mode, out, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    if mode == "spans":
        tracer = Tracer()
        with tracer:
            code = hrt.cli.main(argv)
        record = {"calls": tracer.calls, "totals": tracer.totals()}
    else:
        with StepClock() as steps, \
                StepClock("hrt.model", "HrtModel.forward") as forwards:
            code = hrt.cli.main(argv)
        record = {"started": STARTED, "imported": IMPORTED,
                  "forwards": forwards.stamps, "steps": steps.stamps}
    out.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
