"""One benchmark process: set up a workload, then time or trace its passes.

    python3 perfbench/worker.py setup|measure|trace WORKLOAD SEED SECONDS

``setup`` times the import of ``screenops`` plus the workload's inputs.
``measure`` sets up, then runs passes for SECONDS (at least one; no pass is
started that should end later) and reports every pass time, its own set-up
time, the verdict check and peak memory.  Set-up and pass times are scaled
to the reference host speed of ``hostclock``; the raw times are reported
beside them.
``trace`` sets up, installs the layer wrappers and runs one traced pass; it
never times an untraced pass.  Each mode prints one JSON object as its last
line.  ``run.py`` starts these processes; run it instead.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import hostclock
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"


def _setup(workload: str, seed: int):
    setup, run_pass = workloads.WORKLOADS[workload]
    start = time.perf_counter()
    inputs = setup(seed)
    return inputs, run_pass, time.perf_counter() - start


def _scaled_setup(workload: str, seed: int):
    """Set up, then time the reference back to back to scale the set-up time."""
    inputs, run_pass, raw = _setup(workload, seed)
    samples = [hostclock.time_reference() for _ in range(hostclock.SETUP_SAMPLES)]
    return inputs, run_pass, raw * hostclock.scale(samples), raw


def setup_mode(workload: str, seed: int, seconds: float) -> dict:
    _inputs, _run, setup_s, raw = _scaled_setup(workload, seed)
    return {"setup_s": setup_s, "setup_raw_s": raw}


def measure_mode(workload: str, seed: int, seconds: float) -> dict:
    inputs, run_pass, setup_s, setup_raw = _scaled_setup(workload, seed)
    expected = workloads.load_expected()[workload]
    walls, raw_walls, attempted, mismatches, first = [], [], 0, [], None
    start = time.perf_counter()
    # start another pass only if it should end inside the time budget
    while not raw_walls or time.perf_counter() - start + raw_walls[-1] <= seconds:
        with hostclock.Sampler() as sampler:
            t0 = time.perf_counter()
            batteries = run_pass(inputs)
            raw = time.perf_counter() - t0 - sampler.inside_s
        raw_walls.append(raw)
        walls.append(raw * hostclock.scale(sampler.samples))
        n, bad = workloads.compare_verdicts(expected, batteries)
        attempted += n
        mismatches += bad
        if first is None:
            first = workloads.verdicts(batteries)
    return {
        "walls": walls,
        "raw_walls": raw_walls,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "attempted": attempted,
        "mismatches": mismatches,
        "verdicts": first,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_mode(workload: str, seed: int, seconds: float) -> dict:
    inputs, run_pass, _setup_s = _setup(workload, seed)
    expected = workloads.load_expected()[workload]
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span("pass"):
            batteries = run_pass(inputs, tracer.span)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    attempted, mismatches = workloads.compare_verdicts(expected, batteries)
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / ("trace-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return {
        "traced_wall": traced_wall,
        "layers": tracer.layer_metrics(),
        "top_self_s": sorted(((t["self_s"], name) for name, t in tracer.totals().items()),
                             reverse=True)[:8],
        "attempted": attempted,
        "mismatches": mismatches,
        "verdicts": workloads.verdicts(batteries),
        "trace_file": str(path.relative_to(ROOT)),
    }


MODES = {"setup": setup_mode, "measure": measure_mode, "trace": trace_mode}


def main(argv: list) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if not (SRC / "screenops" / "__init__.py").is_file():
        print("screenops sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = MODES[mode](workload, seed, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
