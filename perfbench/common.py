"""Shared pieces of the benchmark: paths, data, timing and the result line.

The benchmark drives the library in ``src/`` of the checkout it sits in;
nothing here is imported by the library.  Every workload runs on the same
TPC-H-shaped database, generated from a fixed data seed so that the
``--seed`` argument varies only the operation stream (see README.md).
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: The database every workload reads: SF 0.1 of the repo's TPC-H-shaped
#: generator (600 lineitems, 150 orders, 15 customers, 3 suppliers).
SCALE_FACTOR = 0.1
DATA_SEED = 7

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit 2.

    The benchmark measures the library of the checkout it is part of; a
    copy without ``src/repro`` has nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no library source at {SRC / 'repro'}; run the "
            f"benchmark from a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def tpch_database(scale_factor: float = SCALE_FACTOR):
    """The shared TPC-H-shaped database, with Q2's alias tables."""
    from repro.workloads.tpch import TPCHConfig, generate_tpch, prepare_q2_aliases

    db = generate_tpch(TPCHConfig(scale_factor=scale_factor, seed=DATA_SEED))
    prepare_q2_aliases(db)
    return db


def plain_tables(db) -> dict[str, list[tuple[tuple, float]]]:
    """Every base table as ``[(values, P[row present])]``.

    This is the oracles' only view of the data: plain tuples and floats,
    read once from the generated rows, so the oracles share no
    computation with the engines they check.
    """
    tables = {}
    for name, table in db.tables.items():
        if name.startswith("i_"):
            continue  # Q2's aliases share rows and variables with the base tables
        tables[name] = [
            (tuple(row.values), float(db.registry[row.annotation.name][True]))
            for row in table.rows
        ]
    return tables


class ParamStream:
    """Seeded, evenly spread parameters: a Weyl sequence per dimension.

    Draw ``i`` of dimension ``d`` is ``(u_d + i·α_d) mod 1`` with a seeded
    start ``u_d`` and an irrational step ``α_d``.  Any run of a few dozen
    draws covers each range nearly uniformly, so runs with different
    seeds see different parameters but the same mix of operation costs,
    which keeps medians steady where independent draws would not.
    """

    _STEPS = (2, 3, 5, 7, 11, 13, 17, 19)

    def __init__(self, seed: int, dimensions: int):
        rng = random.Random(seed)
        self.starts = [rng.random() for _ in range(dimensions)]
        self.steps = [math.sqrt(p) % 1.0 for p in self._STEPS[:dimensions]]
        self.index = 0

    @property
    def top(self) -> list[float]:
        """The top of every range: the warm-up draw, the same for every seed."""
        return [math.nextafter(1.0, 0.0)] * len(self.starts)

    def next(self) -> list[float]:
        """One point of ``[0, 1)^dimensions``."""
        i = self.index
        self.index += 1
        return [(u + i * a) % 1.0 for u, a in zip(self.starts, self.steps)]


def scale(u: float, low: int, high: int) -> int:
    """Map ``u ∈ [0, 1)`` onto the integers ``low..high``."""
    return low + int(u * (high - low + 1))


#: Per-layer metrics: name → (unit, better).  Time metrics are busy
#: milliseconds per operation unless named ``*_p50_ms``; counts come
#: from the count pass.  A layer a workload does not run reports 0.
PER_LAYER = {
    "query.parse_ms": ("ms", "lower"),
    "query.plan_ms": ("ms", "lower"),
    "query.step1_ms": ("ms", "lower"),
    "query.step1_rows": ("count", "lower"),
    "core.compile_ms": ("ms", "lower"),
    "core.dtree_nodes": ("count", "lower"),
    "core.mutex_nodes": ("count", "lower"),
    "core.probability_ms": ("ms", "lower"),
    "core.approx_ms": ("ms", "lower"),
    "core.approx_expansions": ("count", "lower"),
    "prob.max_dist_size": ("count", "lower"),
    "engine.cache_hits": ("count", "higher"),
    "engine.cache_misses": ("count", "lower"),
    "engine.cache_hit_ratio": ("ratio", "higher"),
    "engine.invalidations": ("count", "lower"),
    "engine.mc_worlds_per_s": ("1/s", "higher"),
    "engine.mc_distinct_worlds": ("count", "lower"),
    "engine.bounds_p50_ms": ("ms", "lower"),
    "engine.sample_join_p50_ms": ("ms", "lower"),
    "engine.sample_scan_p50_ms": ("ms", "lower"),
    "codegen.kernel_compile_ms": ("ms", "lower"),
    "codegen.kernels_compiled": ("count", "lower"),
    "server.execute_ms": ("ms", "lower"),
    "server.codec_ms": ("ms", "lower"),
    "server.protocol_ms": ("ms", "lower"),
    "server.statement_hit_ratio": ("ratio", "higher"),
    "server.write_p50_ms": ("ms", "lower"),
    "db.mutate_ms": ("ms", "lower"),
    "db.rows_changed": ("count", "lower"),
}


def per_layer_metrics(values: dict) -> dict:
    """Every per-layer metric, with 0 for those this workload left idle."""
    return {
        name: metric(values.get(name, 0), unit)
        for name, (unit, _) in PER_LAYER.items()
    }


def hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p50_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1000.0 if seconds else 0.0


class Tally:
    """Attempted/failed operations and the answer checks of one run.

    ``failed`` counts operations that raised or whose answer disagreed
    with its oracle; ``errors`` keeps the first few for the error report,
    and any disagreement makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []

    def record(self, problems: list[str], raised: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if not raised:
                self.wrong += 1
            if len(self.errors) < 5:
                self.errors.append("; ".join(problems[:3]))

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


#: Point-wise tolerance for aggregate-value distributions.  The library
#: drops distribution entries of probability ≤ 1e-9 after every
#: convolution, so an outcome near 1e-9 can come out as 0; the drops
#: compound, hence ten times that.
DIST_TOL = 1e-8


def compare_distribution(label: str, got: dict, want: dict) -> list[str]:
    """Point-wise comparison of two ``{value: probability}`` maps."""
    problems = []
    for value in set(got) | set(want):
        if not close(got.get(value, 0.0), want.get(value, 0.0), DIST_TOL):
            problems.append(
                f"{label}: P[{value!r}] = {got.get(value, 0.0)!r}, "
                f"oracle {want.get(value, 0.0)!r}"
            )
            break
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_result(tally: Tally, metrics: dict) -> None:
    """The benchmark's contract: one JSON object as the last stdout line."""
    for message in tally.errors:
        print(f"perfbench: failed operation: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from process spawn to the first timed operation.

    Each probe is a fresh interpreter running the workload's whole set-up
    (imports, data generation, session or server, one warm-up pass) and
    printing ``ready``; the parent times spawn-to-``ready``.
    """
    timings = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [
                sys.executable,
                str(BENCH_DIR / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--setup-probe",
            ],
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            code = probe.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe of {workload} failed (exit {code})")
        timings.append(elapsed)
    return statistics.median(timings)
