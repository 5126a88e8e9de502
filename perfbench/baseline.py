"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/baseline.py [--workloads sweep damping] [--seeds 1 2 3]
                                  [--trace] [--out perfbench/baseline.json]

Each (workload, seed) is one run of perfbench/run.py for BENCHMARK.json's
run_seconds, one after another.  The summary gives, per workload and metric,
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median next to the metric's bound.  The output file also
records the machine: CPU count and model, Python, scipy and numpy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result.update(seed=seed, run_s=elapsed)
    return result


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None, "bound": bounds.get(name)}
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "scipy": metadata.version("scipy"),
            "numpy": metadata.version("numpy"),
        },
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "seeds": args.seeds,
        "workloads": {},
    }
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            r = run_one(wl, seed, spec["run_seconds"], args.trace)
            runs.append(r)
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items() if k in bounds)
            print(f"{wl} seed={seed} correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  f"run={r['run_s']:.1f}s {vals}", flush=True)
        summary = summarise(runs, bounds)
        report["workloads"][wl] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            if s["bound"] is not None:
                print(f"  {wl} {name}: median={s['median']:.6g} spread={s['spread']:.4f} "
                      f"bound={s['bound']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
