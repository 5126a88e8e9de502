"""pendamp benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {sweep,bifurcation,damping} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; pendamp is imported from ``src/``.
The run measures set-up time in fresh interpreters, warms every layer up,
then repeats passes of the workload (pass k draws fresh inputs from the
seed) for as many whole passes as fit in ``--seconds``.  Every output is
checked.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` each pass runs twice on the same
inputs, untraced then traced, the two must give identical outputs, and the
JSON carries the per-layer metrics.  Spans of a traced run are written to
``perfbench/out/``.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# Set-up as a user meets it in a fresh interpreter: the import, plus the lazy
# work of the first call (the tau table of the extremal optimality screen),
# taken as the first trace's time minus the same trace's time again.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pendamp
from pendamp.dynamics import Params
t1 = time.perf_counter()
pendamp.trace_extremal(1.0, 1, Params(0.25), keep_samples=False)
t2 = time.perf_counter()
pendamp.trace_extremal(1.0, 1, Params(0.25), keep_samples=False)
t3 = time.perf_counter()
print(repr((t1 - t0) + (t2 - t1) - (t3 - t2)))
"""


def import_pendamp():
    """Import pendamp from this checkout's src/, never from elsewhere."""
    if not (SRC / "pendamp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pendamp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pendamp

    if Path(pendamp.__file__).resolve().parent != SRC / "pendamp":
        sys.exit(f"perfbench: imported pendamp from {pendamp.__file__}, not {SRC}")
    return pendamp


def machine_info(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "scipy": metadata.version("scipy"),
        "numpy": metadata.version("numpy"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup() -> tuple[float, float]:
    """Median set-up time over SETUP_REPEATS fresh interpreters: (rescaled, raw)."""
    scaled, raw = [], []
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC)]
    for _ in range(SETUP_REPEATS):
        factor, out = speed.factor_around(subprocess.run, cmd, cwd=ROOT, capture_output=True,
                                          text=True, timeout=120, check=True)
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * factor)
    return statistics.median(scaled), statistics.median(raw)


def outcomes(wl, inputs, ops, known) -> list[tuple[str, str | None, bool]]:
    """(op name, error or None, error is a known defect) for each op."""
    checked = wl.check(inputs, ops)
    out = []
    for op, problem in zip(ops, checked):
        if op.error:
            out.append((op.name, op.error, (op.name, op.error.split(":", 1)[0]) in known))
        else:
            out.append((op.name, problem, False))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "bifurcation", "damping"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_pendamp()
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    info = machine_info(args)
    print("# " + json.dumps(info))
    print(f"# workload {wl.name}: {wl.why}")

    setup_s, setup_raw = measure_setup()
    workloads.warm_up()

    tracer = tracing.Tracer() if args.trace else None
    walls, raw_walls, factors, overheads, traced_factors = [], [], [], [], []
    results = []
    identical = True
    start = time.perf_counter()
    k = 0
    while True:
        inputs = wl.inputs(args.seed, k)
        wall, raw, factor, ops = speed.timed(wl.run, inputs)
        walls.append(wall)
        raw_walls.append(raw)
        factors.append(factor)
        if tracer is not None:
            with tracer.installed():
                t_wall, _, t_factor, t_ops = speed.timed(wl.run, inputs)
            overheads.append(t_wall - wall)
            traced_factors.append(t_factor)
            if wl.fingerprint(t_ops) != wl.fingerprint(ops):
                identical = False
                print(f"# pass {k}: traced outputs differ from untraced outputs")
        results.extend(outcomes(wl, inputs, ops, workloads.KNOWN_DEFECTS))
        print(f"# pass {k}: {wall:.4f} s at reference speed, {raw:.4f} s raw, speed factor {factor:.3f}")
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > args.seconds:
            break

    attempted = len(results)
    failed = sum(1 for _, err, _ in results if err)
    wrong = [(name, err) for name, err, known in results if err and not known]
    for name, err in wrong[:10]:
        print(f"# FAILED {name}: {err}")
    known = failed - len(wrong)
    if known:
        print(f"# {known} of {attempted} operations failed with the known defect "
              f"{sorted(workloads.KNOWN_DEFECTS)}")
    correct = not wrong and identical

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "1"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, k)
        factor = statistics.median(traced_factors)
        for name, (value, unit) in metrics.items():
            if unit in ("s", "ms", "us"):
                metrics[name] = (value * factor, unit)
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl")

    print(f"# passes={k} fail_ratio={failed / attempted!r} ({failed}/{attempted}) "
          f"raw wall median {statistics.median(raw_walls):.4f} s, raw setup {setup_raw:.4f} s, "
          f"speed factor median {statistics.median(factors):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
