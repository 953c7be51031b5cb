"""Steadiness of the benchmark: repeated runs, spread, derived bounds.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10 --seconds 30 [--traced]

Runs every workload ``--runs`` times, each time with another seed and
with the workload order alternating between runs, and times a fixed
pure-Python calibration loop before each run, so the machine's own
drift shows beside the benchmark's.  For every end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(n=4)``), the
min–max range and the quartile spread as a share of the median; the
bound a metric can carry is three times the largest spread seen, never
more than 0.25.  ``--traced`` adds one traced run per seed and reports
the tracing overhead on ``read_p50_ms`` and ``ops_per_s`` and the
median of every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("exact_tpch", "hard_anytime", "serve_rw")
MAX_BOUND = 0.25


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop (the machine's own noise)."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    if trace:
        result["traced"] = json.loads(lines[-2])["traced"]
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_share": (q3 - q1) / median if median else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    results = {w: [] for w in WORKLOADS}
    traced = {w: [] for w in WORKLOADS}
    calibration = []
    for run in range(args.runs):
        seed = 1 + run
        order = WORKLOADS if run % 2 == 0 else tuple(reversed(WORKLOADS))
        for workload in order:
            calibration.append(calibration_seconds())
            result = run_once(workload, seed, args.seconds, 0)
            results[workload].append(result)
            print(f"{workload} seed {seed} ({result['wall_s']:.1f} s wall): "
                  f"{json.dumps(result['metrics'])}", file=sys.stderr)
            if args.traced:
                traced[workload].append(run_once(workload, seed, args.seconds, 1))

    report = {"runs": args.runs, "seconds": args.seconds,
              "calibration_s": spread(calibration), "workloads": {}}
    for workload, runs in results.items():
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = spread([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        entry = {
            "metrics": metrics,
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "correct": all(r["correct"] for r in runs),
        }
        if traced[workload]:
            entry["per_layer_medians"] = {
                name: statistics.median(t["metrics"][name]["value"] for t in traced[workload])
                for name in traced[workload][0]["metrics"]
            }
            entry["trace_overhead"] = {
                name: statistics.median(t["traced"][name] for t in traced[workload])
                / metrics[name]["median"] - 1.0
                for name in ("read_p50_ms", "ops_per_s")
            }
        report["workloads"][workload] = entry

    bounds = {}
    for entry in report["workloads"].values():
        for name, figures in entry["metrics"].items():
            bounds[name] = max(bounds.get(name, 0.0), figures["iqr_share"])
    report["bounds"] = {name: min(MAX_BOUND, 3.0 * share) for name, share in bounds.items()}

    print(f"calibration loop: median {report['calibration_s']['median']:.3f}s, "
          f"quartile spread {report['calibration_s']['iqr_share']:.1%}, "
          f"range {report['calibration_s']['min']:.3f}-{report['calibration_s']['max']:.3f}s")
    for workload, entry in report["workloads"].items():
        print(f"{workload}: correct={entry['correct']} failed share={entry['failed_share']}")
        for name, f in entry["metrics"].items():
            print(f"  {name:<12} median {f['median']:10.4f} {f['unit']:<4} "
                  f"q1 {f['q1']:10.4f} q3 {f['q3']:10.4f} "
                  f"min {f['min']:10.4f} max {f['max']:10.4f} spread {f['iqr_share']:6.1%}")
        for name, overhead in entry.get("trace_overhead", {}).items():
            print(f"  tracing changes {name} by {overhead:+.1%}")
        layers = entry.get("per_layer_medians", {})
        if layers:
            print("  per-layer medians: " + ", ".join(
                f"{name}={value:.4g}" for name, value in layers.items() if value
            ))
    print("bounds (3x the largest spread, at most 0.25): "
          + ", ".join(f"{n}={b:.3f}" for n, b in report["bounds"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
