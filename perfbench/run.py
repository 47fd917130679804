"""The topopoly benchmark: CLI commands in a closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload expand|recurse|verify \\
        --seed N --seconds S --trace 0|1

An operation is one CLI command, run in-process through
topopoly.cli.main(argv) on an input file this script wrote.  Each run
generates the workload's seeded pool of inputs (see workloads.py), runs
it in a fresh worker process (see worker.py) and checks every command's
exit status and output (see checks.py).  A failed command is one that
raises, exits non-zero or prints the wrong output.

--trace 0 prints the end-to-end metrics: setup_s (median over several
fresh processes of importing topopoly and parsing every input once),
ops_per_s, op_p50_ms, op_p90_ms and peak_rss_mb, each over a timed run
of whole blocks that stops at the first block boundary past --seconds
with at least 100 commands done.
Times are taken at a reference host speed: each wall time is scaled by
the host-speed unit measured around it (see calib.py), and the wall
figures are printed alongside.  fail_ratio is printed too and is the
result line's failed / attempted.

--trace 1 runs the workload's fixed trace set twice, untraced and then
traced (see tracer.py), and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Inputs, jobs, results and spans go to
.perfbench_out/ in the checkout.

    python3 perfbench/run.py --workload W --record-reference

rewrites reference/W.json from the default seed's whole pool, after
checking every output against its second route.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
# A set-up takes a fraction of a second, so one burst of load on the host
# moves a single sample; the median of nine does not follow it.
SETUP_PROCESSES = 8         # plus the timed worker's own set-up
WORKER_TIMEOUT_S = 170


def write_inputs(workload: str, seed: int) -> tuple[list, Path]:
    d = OUT / f"{workload}-{seed}"
    shutil.rmtree(d, ignore_errors=True)
    (d / "inputs").mkdir(parents=True)
    pool = workloads.pool(workload, seed)
    rows = []
    for blk in pool:
        for inp in blk:
            path = d / "inputs" / inp.file
            path.write_text(inp.text, encoding="ascii")
            rows.append({"id": inp.id, "file": str(path.relative_to(ROOT)),
                         "command": inp.command(inp.file), **inp.manifest})
    (d / "manifest.json").write_text(json.dumps(rows, indent=1))
    return pool, d


def path_of(d: Path, inp) -> str:
    return str(d / "inputs" / inp.file)


def argv_blocks(d: Path, blocks: list) -> list[list[list[str]]]:
    return [[inp.command(path_of(d, inp)) for inp in blk] for blk in blocks]


def run_worker(d: Path, tag: str, job: dict, timeout: float = WORKER_TIMEOUT_S) -> dict:
    job = dict(job, src=str(SRC), result=str(d / f"result-{tag}.json"))
    job_path = d / f"job-{tag}.json"
    job_path.write_text(json.dumps(job))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                   check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    return json.loads(Path(job["result"]).read_text())


def cli_runner():
    """Run a command untimed in this process, for second routes."""
    sys.path.insert(0, str(SRC))
    from topopoly import cli

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return rc, out.getvalue()

    return run


def load_reference(workload: str, seed: int) -> dict | None:
    path = HERE / "reference" / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    return json.loads(path.read_text())["outputs"]


def check_all(d: Path, inputs: list, results: list, reference, run_cli) -> list[str]:
    """One line per failed command."""
    failures = []
    for inp, res in zip(inputs, results):
        why = checks.check(inp, path_of(d, inp), res, reference, run_cli)
        if why is not None:
            failures.append(f"{inp.id} {' '.join(inp.argv)}: {why}")
    return failures


def command_seconds(result: dict) -> list[float]:
    """Every command's time at the reference host speed."""
    return calib.scaled([c["seconds"] for c in result["commands"]], result["units"])


def latency_metrics(lat: list[float]) -> dict[str, float]:
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3}


def setup_seconds(result: dict) -> float:
    return result["setup_s"] * calib.REFERENCE_S / statistics.median(result["setup_units"])


def shares(pool) -> str:
    rows = [inp.manifest for blk in pool for inp in blk]
    parts = [f"{key} {sum(r[key] for r in rows) / len(rows):.0%}"
             for key in ("cellular", "pinched", "orientable")]
    return f"{len(rows)} inputs in {len(pool)} blocks; " + ", ".join(parts)


def timed(args, pool, d, jobs_inputs) -> tuple[dict, list]:
    setups = [run_worker(d, f"setup{i}", {"inputs": jobs_inputs, "blocks": []})
              for i in range(SETUP_PROCESSES)]
    res = run_worker(d, "timed", {"inputs": jobs_inputs, "blocks": argv_blocks(d, pool),
                                  "seconds": args.seconds})
    setups.append(res)
    m = {"setup_s": (statistics.median(setup_seconds(r) for r in setups), "s")}
    units = {"ops_per_s": "1/s"}
    for name, value in latency_metrics(command_seconds(res)).items():
        m[name] = (value, units.get(name, "ms"))
    m["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    n_blocks = len(res["commands"]) // len(pool[0])
    wall = latency_metrics([c["seconds"] for c in res["commands"]])
    print(f"timed run: {len(res['commands'])} commands in {n_blocks} of "
          f"{len(pool)} blocks, {res['loop_s']:.3f} s; host-speed unit median "
          f"{statistics.median(res['units']) * 1e3:.3f} ms (reference "
          f"{calib.REFERENCE_S * 1e3:.3f} ms)")
    print("  wall figures, unscaled: " + ", ".join(
        f"{name} {value:.4g} {units.get(name, 'ms')}" for name, value in wall.items())
        + "; set-up s " + " ".join(f"{r['setup_s']:.4f}" for r in setups))
    return m, res["commands"]


def traced(args, pool, d, jobs_inputs) -> tuple[dict, list]:
    blocks = argv_blocks(d, pool[:workloads.TRACE_BLOCKS[args.workload]])
    plain = run_worker(d, "untraced", {"inputs": jobs_inputs, "blocks": blocks})
    spans = d / "spans"
    shutil.rmtree(spans, ignore_errors=True)
    with_spans = run_worker(d, "traced", {"inputs": jobs_inputs, "blocks": blocks,
                                          "trace_dir": str(spans)})
    m = tracer.layer_metrics(spans)
    # Same commands both times, so the ratio of ops/s is that of total times.
    m["trace.overhead_ratio"] = (sum(command_seconds(with_spans))
                                 / sum(command_seconds(plain)), "ratio")
    print(f"traced run: {len(blocks)} blocks, {len(with_spans['commands'])} commands, "
          f"untraced {plain['loop_s']:.3f} s, traced {with_spans['loop_s']:.3f} s; "
          f"spans in {spans.relative_to(ROOT)}")
    return m, plain["commands"] + with_spans["commands"]


def record_reference(workload: str) -> int:
    pool, d = write_inputs(workload, DEFAULT_SEED)
    inputs = [inp for blk in pool for inp in blk]
    res = run_worker(d, "record", {"inputs": [], "blocks": argv_blocks(d, pool)},
                     timeout=1800)
    failures = check_all(d, inputs, res["commands"], None, cli_runner())
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    outputs = {inp.id: [checks.sha(inp.text), checks.sha(r["stdout"])]
               for inp, r in zip(inputs, res["commands"])}
    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in outputs.items())
    path.write_text(f'{{"seed": {DEFAULT_SEED}, "outputs": {{\n{rows}}}}}\n')
    print(f"recorded {len(outputs)} outputs in {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "topopoly" / "__init__.py").is_file():
        print(f"error: no topopoly sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args.workload)

    started = time.perf_counter()
    pool, d = write_inputs(args.workload, args.seed)
    print(f"perfbench {args.workload} seed {args.seed}: {shares(pool)}; "
          f"manifest in {(d / 'manifest.json').relative_to(ROOT)}")
    jobs_inputs = [path_of(d, inp) for blk in pool for inp in blk]
    measure = traced if args.trace else timed
    metrics, results = measure(args, pool, d, jobs_inputs)

    inputs = [inp for blk in pool for inp in blk]
    if args.trace:
        n = len(results) // 2
        inputs = inputs[:n] * 2
    failures = check_all(d, inputs, results, load_reference(args.workload, args.seed),
                         cli_runner())
    for line in failures:
        print(f"FAILED {line}")
    attempted, failed = len(results), len(failures)
    fail_ratio = (failed / attempted, "ratio")
    if args.trace:
        metrics["fail_ratio"] = fail_ratio
    for name, (value, unit) in {**metrics, "fail_ratio": fail_ratio}.items():
        print(f"{name} {value} {unit}")
    print(f"{failed} of {attempted} commands failed")
    print(f"wall {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
