"""Run the `kappa` CLI in this process, probing the CPU speed as it runs.

    python3 perfbench/cli_child.py [--trace] verify --suite all

stdout and the exit code are the CLI's own; stdout is written once the
command has finished.  The speed probe runs before the command, every 0.25 s
during it (from a SIGALRM handler, so on the CPU that serves the command)
and after it.  The last line of stderr is one JSON object with the probe
times and, with ``--trace``, the per-layer metrics.
"""

import contextlib
import io
import json
import sys

from probe import ProbeLog
from tracer import Tracer


def main() -> int:
    argv = sys.argv[1:]
    tracer = None
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        tracer = Tracer()
    log = ProbeLog()
    log.probe()
    if tracer:
        tracer.install()
    import kapparing.cli

    # The report is held in memory while the probe alarm runs (see ProbeLog).
    report_text = io.StringIO()
    try:
        with log, contextlib.redirect_stdout(report_text):
            code = kapparing.cli.main(argv)
    finally:
        if tracer:
            tracer.uninstall()
    sys.stdout.write(report_text.getvalue())
    sys.stdout.flush()
    log.probe()
    report = {"probes": [seconds for _, seconds in log.entries]}
    if tracer:
        report["metrics"] = tracer.metrics()
    print(json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
