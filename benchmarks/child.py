"""One pass of a workload in a fresh interpreter.

    python3 benchmarks/child.py JOBS_JSON MODE [SPANS_JSON]

Imports `partible` from the checkout's `src`, loads the job list (argv
lists only) and notes the monotonic time at which it is ready.  MODE
`setup` stops there.  Otherwise every job runs in order through
`partible.cli.main(argv)` with stdout and stderr captured; MODE `trace`
installs the span recorder first and writes the spans, with each job's
(start, end) read outside the wrapped `cli.main`, to SPANS_JSON after
the timed region.  The speed probe (`speed.py`) runs throughout.
The result is one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    probe = SpeedProbe()
    probe.start()
    clock = time.perf_counter
    started = clock()
    jobs_path, mode = argv[0], argv[1]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from partible import cli

    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    recorder = None
    if mode == "trace":
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    ready = time.monotonic()
    ready_at = clock()
    probe.sample_now()  # so that a short set-up has a sample too
    report = {"ready": ready, "setup_ref": probe.mean(started, ready_at)}
    if mode == "setup":
        probe.stop()
        report["ref_min"] = min(probe.took)
        json.dump(report, sys.stdout)
        return 0

    main_ = cli.main  # the wrapped one when tracing
    results = []
    intervals = []
    cpu_start = time.process_time()
    start = clock()
    for job_argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main_(job_argv)
        except Exception:  # an operation that raises is a failed operation
            code = None
            err.write(traceback.format_exc())
        t1 = clock()
        intervals.append((t0, t1))
        results.append([code, t1 - t0, out.getvalue(), err.getvalue()[-2000:]])
    wall_s = clock() - start
    cpu_s = time.process_time() - cpu_start
    probe.stop()
    for result, (t0, t1) in zip(results, intervals):
        result.append(probe.mean(t0, t1))

    report.update({
        "ref_min": min(probe.took),
        "ref_pass": probe.mean(start, start + wall_s),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
    })
    if recorder is not None:
        recorder.uninstall()
        report["trace"] = {
            "self_s": recorder.self_s,
            "calls": recorder.calls,
            "term_bits_max": recorder.term_bits_max,
            "spans": len(recorder.span_name),
        }
        recorder.dump(argv[2], wall_s, intervals)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
