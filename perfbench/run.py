"""Benchmark of the screenops verification batteries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it reports the
end-to-end metrics of one workload: ``wall_s`` (median time to all verdicts
of one pass), ``setup_s`` (median over fresh processes of importing
``screenops`` and building the inputs) and ``peak_rss_mb``.  Both times are
scaled to the reference host speed of ``hostclock.py``, which takes out the
minutes-long swings in speed of a shared host; the raw medians are printed
above the result line.  With
``--trace 1`` it reports the per-layer metrics of one traced pass plus
``trace.overhead_ratio``.  Every pass is checked against the expected
verdicts in ``expected.json``.  The last line of standard output is one JSON
object; the lines above it are for people.

Workers run one at a time, each in a fresh interpreter, so that untraced
timings never share a process with the tracing wrappers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOAD_NAMES = ("current-algebra", "screening-cochains", "rational-forms")
# the measuring worker's own set-up is one more sample
SETUP_SAMPLES = 9
# every worker must finish inside this many seconds of the start
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def run_worker(mode: str, args, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the %s worker" % mode)
    cmd = [sys.executable, str(WORKER), mode, args.workload, str(args.seed), str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker did not finish within the time limit" % mode) from None
    if proc.returncode != 0:
        raise BenchError("%s worker exited with %d:\n%s"
                         % (mode, proc.returncode, proc.stderr[-4000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s worker printed no result" % mode)
    return json.loads(lines[-1])


def report_failures(mismatches: list) -> None:
    for line in mismatches[:20]:
        print("  MISMATCH %s" % line)
    if len(mismatches) > 20:
        print("  ... %d more mismatches" % (len(mismatches) - 20))


def end_to_end(args, deadline: float) -> dict:
    measured = run_worker("measure", args, deadline)
    setups = [measured]
    setups += [run_worker("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    walls = measured["walls"]
    attempted, failed = measured["attempted"], len(measured["mismatches"])
    wall = statistics.median(walls)
    setup = statistics.median(s["setup_s"] for s in setups)
    print("workload %s, seed %d" % (args.workload, args.seed))
    print("  wall_s       %.4f s   median of %d passes (min %.4f, max %.4f); raw median %.4f s"
          % (wall, len(walls), min(walls), max(walls),
             statistics.median(measured["raw_walls"])))
    print("  setup_s      %.4f s   median of %d fresh processes; raw median %.4f s"
          % (setup, len(setups), statistics.median(s["setup_raw_s"] for s in setups)))
    print("  peak_rss_mb  %.1f MB" % measured["peak_rss_mb"])
    print("  fail_ratio   %d/%d = %.4f" % (failed, attempted, failed / attempted))
    report_failures(measured["mismatches"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        },
    }


def traced(args, deadline: float) -> dict:
    measured = run_worker("measure", args, deadline)
    trace = run_worker("trace", args, deadline)
    # both sides unscaled: the traced pass runs without the reference sampler
    wall = statistics.median(measured["raw_walls"])
    mismatches = measured["mismatches"] + trace["mismatches"]
    attempted = measured["attempted"] + trace["attempted"]
    if trace["verdicts"] != measured["verdicts"]:
        attempted += 1
        mismatches.append("traced verdicts differ from untraced: %s"
                          % sorted(set(map(tuple, trace["verdicts"]))
                                   ^ set(map(tuple, measured["verdicts"]))))
    layers = dict(trace["layers"])
    layers["trace.overhead_ratio"] = trace["traced_wall"] / wall
    print("workload %s, seed %d, traced pass %.4f s vs untraced raw median %.4f s (%d passes)"
          % (args.workload, args.seed, trace["traced_wall"], wall, len(measured["raw_walls"])))
    print("  largest self times: %s"
          % ", ".join("%s %.2f s" % (name, s) for s, name in trace["top_self_s"]))
    print("  trace written to %s" % trace["trace_file"])
    report_failures(mismatches)
    return {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(mismatches),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in layers.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "screenops" / "__init__.py").is_file():
        print("run.py: no screenops sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        result = traced(args, deadline) if args.trace else end_to_end(args, deadline)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
