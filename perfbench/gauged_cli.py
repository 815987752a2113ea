"""Run one headtrack CLI verb with the speed gauge interleaved.

Usage: python3 perfbench/gauged_cli.py GAUGE_JSON VERB [ARGS...]

Calls ``headtrack.cli.main`` as the ``headtrack`` console script does. The
gauge of ``gauge.py`` runs once before ``import headtrack.cli``, then on
SIGALRM every ``INTERVAL_S`` of wall time while the verb runs, and once
more at the end. GAUGE_JSON receives the gauge runs and the time at which
``import headtrack.cli`` returned, both on the monotonic clock. The verb's
arguments, files and exit status are those of the console script.
"""

from __future__ import annotations

import json
import signal
import sys
import time

from gauge import INTERVAL_S, GaugeLog

log = GaugeLog()
log.run()
signal.signal(signal.SIGALRM, lambda signum, frame: log.run())
signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
imported = None
try:
    from headtrack.cli import main

    imported = time.perf_counter()
    status = main(sys.argv[2:])
finally:
    signal.setitimer(signal.ITIMER_REAL, 0)
    log.run()
    with open(sys.argv[1], "w") as fh:
        json.dump({"imported": imported, "runs": log.runs}, fh)
sys.exit(status)
