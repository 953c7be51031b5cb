"""``exact_tpch``: the paper's own traffic, exact Sprout answers on TPC-H.

One operation is one parameter draw of the whole template set, each
answered exactly (``engine="sprout"``) down to the aggregate values:

* Q1 COUNT — presence and COUNT distribution per (returnflag, linestatus);
* Q1 SUM — presence and E[SUM(l_quantity)] per group;
* customer⋈orders⋈lineitem grouped COUNT — presence and COUNT
  distribution per market segment;
* Q2's nested MIN — P[supplier offers the part at the region's minimum].

Cutoffs spread evenly over wide ranges and every operation runs in a new
session, so annotations are new and step I, d-tree compilation and
probability computation do the work.
"""

from __future__ import annotations

import time
from collections import defaultdict

from perfbench import oracles
from perfbench.common import (
    ParamStream,
    close,
    compare_distribution,
    plain_tables,
    scale,
    tpch_database,
)

Q1_COUNT = (
    "SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem "
    "WHERE l_shipdate <= {cutoff} GROUP BY l_returnflag, l_linestatus"
)
Q1_SUM = (
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q FROM lineitem "
    "WHERE l_shipdate <= {cutoff} GROUP BY l_returnflag, l_linestatus"
)
COL_COUNT = (
    "SELECT c_mktsegment, COUNT(*) AS n FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
    "AND o_orderdate <= {cutoff} GROUP BY c_mktsegment"
)

#: Date cutoff ranges per template (days; ship dates span 0..2400).  The
#: SUM range is lower: SUM(l_quantity) over a group has a support of
#: thousands of values, and above ~900 one SUM costs more than the rest
#: of the template set together.
COUNT_CUTOFFS = (600, 2400)
SUM_CUTOFFS = (300, 900)

#: The most probability mass a SUM distribution may lose to the
#: library's 1e-9 entry cut-off before its answer counts as wrong.
MAX_LOST_MASS = 1e-6

CLASSES = ("q1_count", "q1_sum", "col_count", "q2_min")


def _by_key(rows, key_of):
    grouped = defaultdict(list)
    for values, p in rows:
        grouped[key_of(values)].append((values, p))
    return grouped


class TpchOracle:
    """Oracle answers for the TPC-H templates, from plain table rows."""

    def __init__(self, tables: dict):
        self.tables = tables
        self.lineitems = tables["lineitem"]
        self.lines_of_order = _by_key(self.lineitems, lambda v: v[0])
        self.orders_of_customer = _by_key(tables["orders"], lambda v: v[1])
        self._q2: dict = {}

    def q1_groups(self, cutoff: int) -> dict:
        groups = defaultdict(list)
        for values, p in self.lineitems:
            if values[7] <= cutoff:
                groups[(values[5], values[6])].append((p, values[3]))
        return groups

    def col_items(self, cutoff: int) -> dict:
        """Per segment, the customer → order → lineitem chain items."""
        segments = defaultdict(list)
        for (custkey, _, _, segment), p_customer in self.tables["customer"]:
            orders = [
                (p_order, [(p_line, None) for _, p_line in self.lines_of_order[orderkey]])
                for (orderkey, _, date), p_order in self.orders_of_customer[custkey]
                if date <= cutoff and self.lines_of_order[orderkey]
            ]
            if orders:
                segments[(segment,)].append((p_customer, orders))
        return segments

    def q2_pairs(self) -> list[tuple[int, str]]:
        """Every (part, region) for which Q2's answer is not empty."""
        region_name = {v[0]: v[1] for v, _ in self.tables["region"]}
        nation_region = {v[0]: v[2] for v, _ in self.tables["nation"]}
        supplier_nation = {v[0]: v[2] for v, _ in self.tables["supplier"]}
        pairs = {
            (partkey, region_name[nation_region[supplier_nation[suppkey]]])
            for (partkey, suppkey, _), _ in self.tables["partsupp"]
        }
        return sorted(pairs)

    def q2(self, partkey: int, region: str) -> dict:
        """P[(s_name,) ∈ Q2(part, region)] by enumerating the lineage's worlds."""
        key = (partkey, region)
        if key not in self._q2:
            self._q2[key] = self._q2_worlds(partkey, region)
        return self._q2[key]

    def _q2_worlds(self, partkey: int, region: str) -> dict:
        t = self.tables
        variables = {}
        part_var = None
        for index, (values, p) in enumerate(t["part"]):
            if values[0] == partkey:
                part_var = ("part", index)
                variables[part_var] = p
        chains = []
        for ps_index, ((ps_part, suppkey, cost), p_ps) in enumerate(t["partsupp"]):
            if ps_part != partkey:
                continue
            for s_index, ((s_key, s_name, nationkey), p_s) in enumerate(t["supplier"]):
                if s_key != suppkey:
                    continue
                for n_index, ((n_key, _, regionkey), p_n) in enumerate(t["nation"]):
                    if n_key != nationkey:
                        continue
                    for r_index, ((r_key, r_name), p_r) in enumerate(t["region"]):
                        if r_key != regionkey or r_name != region:
                            continue
                        chain = (
                            ("partsupp", ps_index), ("supplier", s_index),
                            ("nation", n_index), ("region", r_index),
                        )
                        for var, p in zip(chain, (p_ps, p_s, p_n, p_r)):
                            variables[var] = p
                        chains.append((chain, cost, s_name))

        def answer(world):
            if part_var not in world:
                return ()
            live = [(cost, name) for chain, cost, name in chains if world.issuperset(chain)]
            if not live:
                return ()
            cheapest = min(cost for cost, _ in live)
            return {(name,) for cost, name in live if cost == cheapest}

        return oracles.enumerate_worlds(variables, answer)


def _count_dist(distribution) -> dict:
    return {int(value): p for value, p in distribution.items()}


def _pb_dict(probabilities) -> dict:
    return dict(enumerate(oracles.poisson_binomial(probabilities)))


class ExactTpch:
    """The workload: a session, the oracle, and the parameter stream."""

    name = "exact_tpch"
    classes = CLASSES

    def __init__(self, seed: int):
        from repro import connect
        from repro.workloads.tpch import tpch_q2

        self._tpch_q2 = tpch_q2
        self._connect = connect
        self.db = tpch_database()
        self.session = connect(database=self.db)
        self._retired: list[dict] = []
        self.oracle = TpchOracle(plain_tables(self.db))
        self.q2_pairs = self.oracle.q2_pairs()
        self.params = ParamStream(seed, 4)

    def draw(self, u: list[float] | None = None) -> dict:
        """The next parameter draw, or the one at the point ``u``."""
        if u is None:
            u = self.params.next()
        return {
            "q1_count": scale(u[0], *COUNT_CUTOFFS),
            "q1_sum": scale(u[1], *SUM_CUTOFFS),
            "col_count": scale(u[2], *COUNT_CUTOFFS),
            "q2_min": self.q2_pairs[scale(u[3], 0, len(self.q2_pairs) - 1)],
        }

    def cache_stats(self) -> dict:
        """Distribution-cache counters summed over every session so far."""
        snapshots = self._retired + [self.session.cache.stats()]
        return {
            key: sum(snapshot[key] for snapshot in snapshots)
            for key in ("hits", "misses", "invalidations")
        }

    def _run(self, query):
        return self.session.run(query, engine="sprout")

    def execute(self, params: dict, timings: dict) -> dict:
        """Answer every template for one parameter draw, in a new session.

        A session per operation keeps each operation's cost a function of
        its parameters alone: a session shared by the whole run would
        compile less and less as its d-tree memo fills, so a faster run
        would get faster still.
        """
        self._retired.append(self.session.cache.stats())
        self.session = self._connect(database=self.db)
        answers = {}
        start = time.perf_counter()
        result = self._run(Q1_COUNT.format(cutoff=params["q1_count"]))
        answers["q1_count"] = {
            row.values[:2]: (row.probability(), _count_dist(row.value_distribution("n")))
            for row in result.rows
        }
        mark = time.perf_counter()
        timings["q1_count"] = mark - start
        result = self._run(Q1_SUM.format(cutoff=params["q1_sum"]))
        answers["q1_sum"] = {}
        for row in result.rows:
            dist = row.value_distribution("q")
            answers["q1_sum"][row.values[:2]] = (
                row.probability(), dist.expectation(), dist.total()
            )
        start, mark = mark, time.perf_counter()
        timings["q1_sum"] = mark - start
        result = self._run(COL_COUNT.format(cutoff=params["col_count"]))
        answers["col_count"] = {
            row.values[:1]: (row.probability(), _count_dist(row.value_distribution("n")))
            for row in result.rows
        }
        start, mark = mark, time.perf_counter()
        timings["col_count"] = mark - start
        result = self._run(self._tpch_q2(*params["q2_min"]))
        q2 = defaultdict(float)
        for row in result.rows:
            q2[row.values] += row.probability()
        answers["q2_min"] = dict(q2)
        timings["q2_min"] = time.perf_counter() - mark
        return answers

    def check(self, params: dict, answers: dict) -> list[str]:
        """Every answer against its oracle; returns the disagreements."""
        problems = []
        oracle = self.oracle

        groups = oracle.q1_groups(params["q1_count"])
        got = answers["q1_count"]
        if set(got) != set(groups):
            problems.append(f"q1_count groups {sorted(got)} != {sorted(groups)}")
        for key, (prob, dist) in got.items():
            ps = [p for p, _ in groups.get(key, ())]
            if not close(prob, oracles.presence(ps)):
                problems.append(f"q1_count {key}: P = {prob!r}, oracle {oracles.presence(ps)!r}")
            problems += compare_distribution(f"q1_count {key} COUNT", dist, _pb_dict(ps))

        groups = oracle.q1_groups(params["q1_sum"])
        got = answers["q1_sum"]
        if set(got) != set(groups):
            problems.append(f"q1_sum groups {sorted(got)} != {sorted(groups)}")
        for key, (prob, mean, mass) in got.items():
            pairs = groups.get(key, ())
            want = oracles.presence(p for p, _ in pairs)
            if not close(prob, want):
                problems.append(f"q1_sum {key}: P = {prob!r}, oracle {want!r}")
            # The library drops distribution entries below 1e-9, so a long
            # SUM distribution may miss a little mass (``1 − mass``), all
            # of it on values in [0, Σv]; E[SUM] may be low by that much.
            expected = oracles.expected_sum(pairs)
            lost = 1.0 - mass
            slack = max(lost, 0.0) * sum(v for _, v in pairs) + 1e-9 * max(1.0, expected)
            if not (-1e-9 <= lost <= MAX_LOST_MASS) or not close(mean, expected, slack):
                problems.append(
                    f"q1_sum {key}: E[SUM] = {mean!r} (mass {mass!r}), oracle {expected!r}"
                )

        segments = oracle.col_items(params["col_count"])
        got = answers["col_count"]
        if set(got) != set(segments):
            problems.append(f"col_count groups {sorted(got)} != {sorted(segments)}")
        for key, (prob, dist) in got.items():
            items = segments.get(key, [])
            want = oracles.chain_presence(items)
            if not close(prob, want):
                problems.append(f"col_count {key}: P = {prob!r}, oracle {want!r}")
            want_dist = dict(enumerate(oracles.chain_count(items)))
            problems += compare_distribution(f"col_count {key} COUNT", dist, want_dist)

        want = oracle.q2(*params["q2_min"])
        problems += compare_distribution(f"q2_min {params['q2_min']}", answers["q2_min"], want)
        return problems
