"""Child process of the ``served`` workload.

Runs ``repro serve --port 0`` (in-process executor, default
``ServerConfig``), which announces its OS-picked loopback port on
stderr. With ``--trace-out FILE`` it installs the layer probes of
:mod:`layers` first and, once ``SIGTERM`` has drained the server,
writes the process's per-layer summary to FILE. With ``--gauge-out
FILE`` it times every batch (one ``run_sweep`` call) with a speed
gauge (:mod:`gauge`) instead and writes each batch's span and rescaled
seconds to FILE.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True,
                        help="directory holding the repro package")
    parser.add_argument("--trace-out", default=None,
                        help="write the per-layer summary here on exit")
    parser.add_argument("--gauge-out", default=None,
                        help="write the rescaled cell times here on exit")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from repro import cli
    import repro.service.server  # noqa: F401  (bound before probing)

    tracer = timer = None
    if args.trace_out:
        import layers

        tracer = layers.LayerTracer()
        layers.install(tracer)
    elif args.gauge_out:
        from gauge import SpeedGauge
        from repro.runtime.sweep import run_sweep
        from spans import CellTimer

        timer = CellTimer(SpeedGauge())
        timer.install(run_sweep)
    try:
        return cli.main(["serve", "--port", "0"])
    finally:
        if tracer is not None:
            tracer.remove()
            Path(args.trace_out).write_text(json.dumps(tracer.summary()),
                                            encoding="utf-8")
        if timer is not None:
            timer.remove()
            Path(args.gauge_out).write_text(json.dumps(
                {"spans": timer.spans, "scaled": timer.scaled}),
                encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
