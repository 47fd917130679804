"""One benchmark worker process: python3 worker.py JOB.json

The job names the source tree, the input files, the commands and where
to write the result.  The worker times its own set-up (importing
topopoly and parsing every input once), then runs the commands in a
closed loop with one client: each command starts when the previous one
has returned.  With a time limit it stops at the first block boundary
past the limit at which it has run at least MIN_COMMANDS commands.  It
records every command's exit status, output and wall time, and its own
peak resident memory.  Right before every command, and once after the
last, it runs the host-speed unit of calib.py; a few more units around
the set-up gauge that too.  A traced job wraps the program's layers
first (see tracer.py) and writes the spans at the end.

Run in a fresh process per job, so caches never carry over from one
run to the next.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calib

SETUP_UNITS = 3     # before and again after the set-up
# A timed run goes on past its time limit until it has this many
# commands, so that its 90th percentile has ten commands beyond it even
# on a slow host.
MIN_COMMANDS = 100


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"])
    sys.path.insert(0, str(src))

    units = [calib.unit() for _ in range(SETUP_UNITS)]
    t0 = time.perf_counter()
    import topopoly
    from topopoly import cli, fileformat
    for path in job["inputs"]:
        fileformat.parse(Path(path).read_text(encoding="ascii"))
    setup_s = time.perf_counter() - t0
    setup_units = units + [calib.unit() for _ in range(SETUP_UNITS)]
    if Path(topopoly.__file__).resolve().parent != (src / "topopoly").resolve():
        raise RuntimeError(f"imported topopoly from {topopoly.__file__}")

    tracer = None
    if job.get("trace_dir"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(topopoly)

    results, units = [], []
    limit = job.get("seconds")
    loop_start = time.perf_counter()
    for block in job["blocks"]:
        if (limit is not None and time.perf_counter() - loop_start >= limit
                and len(results) >= MIN_COMMANDS):
            break
        for argv in block:
            if tracer is not None:
                tracer.command = len(results)
            units.append(calib.unit())
            out, err = io.StringIO(), io.StringIO()
            raised = None
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc, raised = None, traceback.format_exc()
            dt = time.perf_counter() - t
            results.append({"rc": rc, "stdout": out.getvalue(),
                            "stderr": err.getvalue(), "raised": raised,
                            "seconds": dt})
    units.append(calib.unit())
    loop_s = time.perf_counter() - loop_start

    if tracer is not None:
        tracer.write(Path(job["trace_dir"]))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(json.dumps({
        "setup_s": setup_s, "setup_units": setup_units, "loop_s": loop_s,
        "units": units, "peak_rss_mb": peak_kb / 1024, "commands": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
