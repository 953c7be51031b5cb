"""``hard_anytime``: queries outside Q_hie, answered by bounds and sampling.

One operation is one parameter draw of four answers on the same TPC-H
data:

* ``bounds_col`` — customer⋈orders⋈lineitem grouped COUNT under the
  default engine; ``engine="auto"`` routes this chain join to the
  ``core.approx`` ε-bounds.  Its order-date cutoffs run from where the
  bounds cost ~10× exact compilation to where they cost ~60×, the gap
  growing exponentially with the cutoff (README.md has the sweep), so
  the bounds take most of each operation;
* ``bounds_nsl`` — nation⋈supplier⋈lineitem grouped COUNT, same engine;
* ``sample_join`` — the customer⋈orders⋈lineitem segments by Monte-Carlo
  (``mode="sample"``, fixed budget), on the per-world codegen kernel path;
* ``sample_scan`` — a one-table grouped SUM over a ship-date window by
  Monte-Carlo, on the numpy batch-translator path.

Exact compilation stays idle; the approximation and sampling layers do
the work.
"""

from __future__ import annotations

import time
from collections import defaultdict

from perfbench import oracles
from perfbench.common import ParamStream, plain_tables, scale, tpch_database
from perfbench.exact_tpch import COL_COUNT, TpchOracle

NSL_COUNT = (
    "SELECT n_name, COUNT(*) AS n FROM nation, supplier, lineitem "
    "WHERE n_nationkey = s_nationkey AND s_suppkey = l_suppkey "
    "AND l_shipdate <= {cutoff} GROUP BY n_name"
)
COL_SEGMENTS = (
    "SELECT c_mktsegment FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
    "AND o_orderdate <= {cutoff}"
)
SCAN_SUM = (
    "SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem "
    "WHERE l_shipdate >= {low} AND l_shipdate <= {high} GROUP BY l_returnflag"
)

#: Order-date cutoffs of the chain join (days).  At 300 the bounds take
#: ~0.1 s against ~10 ms exact; at 500 ~0.7 s against ~12 ms; at 600
#: ~4 s, too long for one operation.
BOUNDS_CUTOFFS = (300, 500)
NSL_CUTOFFS = (600, 2400)
SCAN_WINDOW = 60
#: Monte-Carlo budget per answer, and the δ of the oracle check: the
#: engine's own intervals are at δ = 0.05.
SAMPLES = 256
CHECK_DELTA = 1e-6
#: A width no interval of SAMPLES draws reaches, so sampling always
#: spends the whole budget.
NEVER_CONVERGED = 1e-6
EPSILON = 0.05

CLASSES = ("bounds_col", "bounds_nsl", "sample_join", "sample_scan")


class HardOracle(TpchOracle):
    """Adds the nation⋈supplier⋈lineitem chain and windowed scans."""

    def __init__(self, tables: dict):
        super().__init__(tables)
        self.lines_of_supplier = defaultdict(list)
        for values, p in self.lineitems:
            self.lines_of_supplier[values[2]].append((values, p))

    def nsl_items(self, cutoff: int) -> dict:
        nations = defaultdict(list)
        suppliers_of_nation = defaultdict(list)
        for (suppkey, _, nationkey), p in self.tables["supplier"]:
            lines = [
                (p_line, None)
                for values, p_line in self.lines_of_supplier[suppkey]
                if values[7] <= cutoff
            ]
            if lines:
                suppliers_of_nation[nationkey].append((p, lines))
        for (nationkey, name, _), p in self.tables["nation"]:
            if suppliers_of_nation[nationkey]:
                nations[(name,)].append((p, suppliers_of_nation[nationkey]))
        return nations

    def scan_sums(self, low: int, high: int) -> dict:
        """P[(flag, s) ∈ answer] — the group is present with SUM = s."""
        groups = defaultdict(list)
        for values, p in self.lineitems:
            if low <= values[7] <= high:
                groups[values[5]].append((p, values[3]))
        answer = {}
        for flag, pairs in groups.items():
            for total, p in oracles.sum_distribution(pairs).items():
                if total:  # quantities are ≥ 1: SUM 0 means the group is absent
                    answer[(flag, total)] = answer.get((flag, total), 0.0) + p
        return answer


def check_bounds(label: str, rows: dict, want: dict) -> list[str]:
    """Each interval contains its oracle value and is at most ε wide."""
    problems = []
    if set(rows) != set(want):
        problems.append(f"{label} groups {sorted(rows)} != {sorted(want)}")
    for key, (low, high) in rows.items():
        truth = want.get(key, 0.0)
        if not (low - 1e-9 <= truth <= high + 1e-9) or high - low > EPSILON + 1e-12:
            problems.append(f"{label} {key}: [{low!r}, {high!r}] vs oracle {truth!r}")
    return problems


def check_sampled(label: str, rows: dict, samples: int, want: dict) -> list[str]:
    """Sampled intervals lie within a Hoeffding radius of the oracle.

    The engine's interval contains its empirical frequency, which is
    within ``r`` of the truth except with probability ``CHECK_DELTA``;
    likewise a tuple with probability above ``r`` is observed at least
    once.  Keys are answer tuples, values ``(low, high)``.
    """
    radius = oracles.hoeffding_radius(samples, CHECK_DELTA)
    problems = []
    for key, (low, high) in rows.items():
        truth = want.get(key, 0.0)
        if not (low - radius <= truth <= high + radius):
            problems.append(f"{label} {key}: [{low!r}, {high!r}] vs oracle {truth!r}")
    for key, truth in want.items():
        if truth > radius and key not in rows:
            problems.append(f"{label} {key}: not sampled, oracle {truth!r}")
    return problems


def _intervals(result) -> dict:
    return {
        row.values: (row.probability().low, row.probability().high)
        for row in result.rows
    }


class HardAnytime:
    name = "hard_anytime"
    classes = CLASSES

    def __init__(self, seed: int):
        from repro import connect

        self._connect = connect
        self.db = tpch_database()
        self.seed = seed
        self.session = connect(database=self.db, seed=seed)
        self._retired: list[dict] = []
        self.oracle = HardOracle(plain_tables(self.db))
        self.params = ParamStream(seed, 4)

    def cache_stats(self) -> dict:
        """Distribution-cache counters summed over every session so far."""
        snapshots = self._retired + [self.session.cache.stats()]
        return {
            key: sum(snapshot[key] for snapshot in snapshots)
            for key in ("hits", "misses", "invalidations")
        }

    def draw(self, u: list[float] | None = None) -> dict:
        """The next parameter draw, or the one at the point ``u``."""
        if u is None:
            u = self.params.next()
        low = scale(u[3], 0, 2400 - SCAN_WINDOW)
        return {
            "bounds_col": scale(u[0], *BOUNDS_CUTOFFS),
            "bounds_nsl": scale(u[1], *NSL_CUTOFFS),
            "sample_join": scale(u[2], *BOUNDS_CUTOFFS),
            "sample_scan": (low, low + SCAN_WINDOW),
        }

    def execute(self, params: dict, timings: dict) -> dict:
        """Answer every class for one parameter draw, in a new session.

        As in ``exact_tpch``, a session per operation keeps each
        operation's cost and the process's memory a function of its
        parameters alone; a session shared by the run grew with every
        operation, so a faster run ended with a larger peak RSS.  Each
        session samples from its own seed, derived from ``--seed``.
        """
        self._retired.append(self.session.cache.stats())
        self.session = s = self._connect(
            database=self.db, seed=self.seed * 1_000_003 + len(self._retired)
        )
        answers = {}
        start = time.perf_counter()
        result = s.run(COL_COUNT.format(cutoff=params["bounds_col"]))
        answers["bounds_col"] = {
            row.values[:1]: (row.probability().low, row.probability().high)
            for row in result.rows
        }
        mark = time.perf_counter()
        timings["bounds_col"] = mark - start
        result = s.run(NSL_COUNT.format(cutoff=params["bounds_nsl"]))
        answers["bounds_nsl"] = {
            row.values[:1]: (row.probability().low, row.probability().high)
            for row in result.rows
        }
        start, mark = mark, time.perf_counter()
        timings["bounds_nsl"] = mark - start
        result = s.run(
            COL_SEGMENTS.format(cutoff=params["sample_join"]),
            mode="sample", epsilon=NEVER_CONVERGED, budget=SAMPLES,
        )
        answers["sample_join"] = (result.stats["samples"], _intervals(result))
        start, mark = mark, time.perf_counter()
        timings["sample_join"] = mark - start
        low, high = params["sample_scan"]
        result = s.run(
            SCAN_SUM.format(low=low, high=high),
            mode="sample", epsilon=NEVER_CONVERGED, budget=SAMPLES,
        )
        answers["sample_scan"] = (result.stats["samples"], _intervals(result))
        timings["sample_scan"] = time.perf_counter() - mark
        return answers

    def check(self, params: dict, answers: dict) -> list[str]:
        oracle = self.oracle
        problems = check_bounds(
            "bounds_col",
            answers["bounds_col"],
            {
                key: oracles.chain_presence(items)
                for key, items in oracle.col_items(params["bounds_col"]).items()
            },
        )
        problems += check_bounds(
            "bounds_nsl",
            answers["bounds_nsl"],
            {
                key: oracles.chain_presence(items)
                for key, items in oracle.nsl_items(params["bounds_nsl"]).items()
            },
        )
        samples, rows = answers["sample_join"]
        problems += check_sampled(
            "sample_join",
            rows,
            samples,
            {
                key: oracles.chain_presence(items)
                for key, items in oracle.col_items(params["sample_join"]).items()
            },
        )
        samples, rows = answers["sample_scan"]
        problems += check_sampled(
            "sample_scan", rows, samples, oracle.scan_sums(*params["sample_scan"])
        )
        for label in ("sample_join", "sample_scan"):
            # An answer with no tuple at all converges after the first
            # round; any other must spend the whole budget.
            samples, rows = answers[label]
            if samples != SAMPLES and rows:
                problems.append(f"{label}: drew {samples} samples, not {SAMPLES}")
        return problems
