"""A ``repro serve`` server in its own process, for the serve-mixed workload.

Usage: ``python3 perfbench/serve_server.py --db PATH [--trace-out PATH]``

Prints ``READY <port>`` once it accepts requests, then serves until it
reads ``stop`` (or end of file) on stdin.  It then drains in-flight jobs,
runs the store's integrity check, and prints one JSON line with the
integrity report and the process's peak RSS.  With ``--trace-out`` it
installs the benchmark's layer wrappers before building the service and
writes the recorded spans to that path on the way out.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: Worker threads of the metering service, one per load thread's tenant.
JOBS = 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--db", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    recorder = None
    if args.trace_out:
        from spans import SpanRecorder, install_layer_wrappers

        recorder = SpanRecorder(keep_durations=("runner.run_spec",))
        install_layer_wrappers(recorder)

    import repro.runner.specs as specs
    from repro.serve.api import ReproServer
    from repro.serve.service import MeteringService
    from repro.serve.store import UsageStore

    store = UsageStore(args.db)
    # run= is looked up now, after the wrappers went in: the service's
    # default argument was bound at import time.
    service = MeteringService(store, jobs=JOBS, run=specs.run_spec)
    server = ReproServer(service)
    server.start_background()
    print(f"READY {server.server_address[1]}", flush=True)
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    server.shutdown()
    server.server_close()
    drained = service.drain(timeout_s=60)
    integrity = store.integrity_check()
    service.close()
    if recorder is not None:
        Path(args.trace_out).write_text(json.dumps(recorder.dump()))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"drained": drained, "integrity": integrity,
                      "peak_rss_kb": peak_kb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
