"""Run one benchmark workload and print its result as a JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exact_tpch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics instead (spans
around each layer's entry points, plus the deterministic work counts of
a fixed count pass).  ``--counts PATH`` runs only the count pass and
writes it to PATH, for ``perfbench/counts.py``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("exact_tpch", "hard_anytime", "serve_rw")

#: Rounds of the count pass (after its warm-up round).
COUNT_ROUNDS = {"exact_tpch": 5, "hard_anytime": 3}

#: Which operation class each engine-level latency metric reads.
CLASS_LATENCIES = {
    "engine.bounds_p50_ms": "bounds_col",
    "engine.sample_join_p50_ms": "sample_join",
    "engine.sample_scan_p50_ms": "sample_scan",
}


def _workload_class(name: str):
    if name == "exact_tpch":
        from perfbench.exact_tpch import ExactTpch

        return ExactTpch
    from perfbench.hard_anytime import HardAnytime

    return HardAnytime


def warm_up(workload) -> None:
    """One pass of every template at the top of its parameter ranges.

    The same draw for every seed, so set-up costs the same whatever the
    seed, and the costliest: the run's memory high-water mark is then
    reached before timing, where otherwise it hung on whether the seed's
    stream came within a few days of a range's top (the ``core.approx``
    bounds at order-date cutoff 500 take 5 MiB more than at 493).  The
    timed operations follow the seed's own stream.
    """
    workload.execute(workload.draw(workload.params.top), {})


def count_pass(name: str, seed: int) -> dict:
    """Work counts of the warm-up plus a fixed number of rounds.

    Runs on a fresh session, serially, so the counts depend on the seed
    alone: two runs with one seed must report identical counts.
    """
    from perfbench.spans import Tracer, install_engine_layers

    workload = _workload_class(name)(seed)
    tracer = Tracer(counting=True)
    install_engine_layers(tracer)
    try:
        warm_up(workload)
        for _ in range(COUNT_ROUNDS[name]):
            workload.execute(workload.draw(), {})
    finally:
        tracer.restore()
    counts = tracer.count_metrics()
    cache = workload.cache_stats()
    counts["engine.cache_hits"] = cache["hits"]
    counts["engine.cache_misses"] = cache["misses"]
    counts["engine.invalidations"] = cache["invalidations"]
    return counts


def run_in_process(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Closed loop of one process over one workload's operations.

    Returns the tally and the metrics.  Answers are kept in memory and
    checked against the oracles after the timed phase.
    """
    workload = _workload_class(name)(seed)
    warm_up(workload)
    before = workload.cache_stats()
    tracer = None
    if trace:
        from perfbench.spans import Tracer, install_engine_layers

        tracer = Tracer()
        install_engine_layers(tracer)
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    try:
        while True:
            params = workload.draw()
            timings: dict = {}
            if tracer is not None:
                tracer.op_id = len(records)
            began = time.perf_counter()
            try:
                answers, error = workload.execute(params, timings), None
            except Exception as exc:  # counted as a failed operation
                answers, error = None, f"{type(exc).__name__}: {exc}"
            ended = time.perf_counter()
            records.append((params, answers, error, ended - began, timings))
            if ended >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    elapsed = ended - start
    after = workload.cache_stats()
    peak = common.peak_rss_mb()

    tally = common.Tally()
    for params, answers, error, _, _ in records:
        if error is not None:
            tally.record([error], raised=True)
        else:
            tally.record(workload.check(params, answers))
    completed = [r for r in records if r[2] is None]

    if not trace:
        return tally, {
            "setup_s": common.metric(common.measure_setup(name, seed), "s"),
            "ops_per_s": common.metric(len(completed) / elapsed, "1/s"),
            "peak_rss_mb": common.metric(peak, "MiB"),
            "read_p50_ms": common.metric(common.p50_ms([r[3] for r in completed]), "ms"),
        }, None
    values = tracer.layer_metrics(max(1, len(completed)))
    values["engine.cache_hit_ratio"] = common.hit_ratio(
        after["hits"] - before["hits"], after["misses"] - before["misses"]
    )
    for metric_name, label in CLASS_LATENCIES.items():
        if label in workload.classes:
            values[metric_name] = common.p50_ms([r[4][label] for r in completed])
    values.update(count_pass(name, seed))
    traced = {
        "read_p50_ms": common.p50_ms([r[3] for r in completed]),
        "ops_per_s": len(completed) / elapsed,
    }
    return tally, common.per_layer_metrics(values), traced


def setup_probe(name: str, seed: int) -> None:
    """Build the workload as a run would, warm it up, say ``ready``."""
    if name == "serve_rw":
        from perfbench import serve_rw

        serve_rw.setup_probe(seed)
        return
    warm_up(_workload_class(name)(seed))
    print("ready", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts", metavar="PATH", help="run only the count pass; write it here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    common.use_source_tree()

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.counts:
        if args.workload == "serve_rw":
            from perfbench import serve_rw

            counts = serve_rw.count_pass(args.seed)
        else:
            counts = count_pass(args.workload, args.seed)
        record = {"workload": args.workload, "seed": args.seed, "counts": counts}
        pathlib.Path(args.counts).write_text(json.dumps(record, indent=1, sort_keys=True))
        print(json.dumps(record), flush=True)
        return 0
    if args.workload == "serve_rw":
        from perfbench import serve_rw

        tally, metrics, traced = serve_rw.run(args.seed, args.seconds, bool(args.trace))
    else:
        tally, metrics, traced = run_in_process(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    if traced is not None:
        # Same-run figures of the traced run, for the tracing overhead.
        print(json.dumps({"traced": traced}), flush=True)
    common.print_result(tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
