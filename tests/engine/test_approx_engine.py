"""The approx engine: anytime interval answers with deterministic bounds."""

import pytest

from repro import Var, connect
from repro.engine.approximate import ApproxAdapter
from repro.engine.base import Engine, create_engine
from repro.engine.spec import EvalSpec, ProbInterval
from repro.errors import QueryValidationError


@pytest.fixture
def hard_session():
    """A session whose query is outside Q_ind/Q_hie (correlated rows).

    The annotations are non-read-once (variables shared across factors),
    so the independence rules alone cannot resolve them: real Shannon
    expansions are needed and a tiny budget leaves genuine width.
    """
    s = connect(seed=7)
    for name, p in [("w1", 0.45), ("w2", 0.6), ("w3", 0.3), ("w4", 0.7)]:
        s.registry.bernoulli(name, p)
    w1, w2, w3, w4 = (Var(f"w{i}") for i in (1, 2, 3, 4))
    s.table("W", ["a"])
    s.db.insert("W", (1,), annotation=(w1 + w2) * (w1 + w3) * (w2 + w4))
    s.db.insert("W", (2,), annotation=(w2 + w3) * (w2 + w4) * (w3 + w1))
    s.db.insert("W", (3,), annotation=(w3 + w4) * (w3 + w1))
    return s


def hard_query(s):
    return s.table("W").select("a")


class TestAdapter:
    def test_satisfies_engine_protocol(self, hard_session):
        adapter = hard_session.engine("approx")
        assert isinstance(adapter, Engine)
        assert isinstance(adapter, ApproxAdapter)
        assert isinstance(create_engine("approx", hard_session.db), ApproxAdapter)

    def test_intervals_contain_the_oracle(self, hard_session):
        q = hard_query(hard_session)
        exact = hard_session.run(q, engine="naive").tuple_probabilities()
        result = hard_session.run(q, engine="approx", epsilon=0.01)
        assert result.engine == "approx"
        for row in result:
            interval = row.probability()
            assert isinstance(interval, ProbInterval)
            assert interval.contains(exact[row.values])
            assert interval.width <= 0.01 + 1e-9

    def test_stats_surface(self, hard_session):
        result = hard_session.run(hard_query(hard_session), engine="approx")
        for key in (
            "wall_seconds", "rows", "rounds", "expansions", "converged",
            "max_width", "epsilon",
        ):
            assert key in result.stats
        assert result.stats["converged"] is True
        assert result.timings["rewrite_seconds"] >= 0

    def test_budget_cap_is_honored_but_sound(self, hard_session):
        q = hard_query(hard_session)
        exact = hard_session.run(q, engine="naive").tuple_probabilities()
        result = hard_session.run(
            q, engine="approx", spec=EvalSpec(mode="approx", epsilon=0.0, budget=1)
        )
        assert result.stats["expansions"] <= 1
        assert not result.stats["converged"]
        for row in result:
            assert row.probability().contains(exact[row.values])

    def test_exact_mode_collapses_all_intervals(self, hard_session):
        q = hard_query(hard_session)
        exact = hard_session.run(q, engine="naive").tuple_probabilities()
        result = hard_session.run(q, engine="approx", spec=EvalSpec(mode="exact"))
        for row in result:
            interval = row.probability()
            assert interval.is_point
            assert interval.value == pytest.approx(exact[row.values])

    def test_rejects_sample_spec_and_options(self, hard_session):
        adapter = hard_session.engine("approx")
        q = hard_query(hard_session).build()
        with pytest.raises(QueryValidationError, match="montecarlo"):
            adapter.run(q, spec=EvalSpec(mode="sample"))
        with pytest.raises(QueryValidationError, match="run options"):
            adapter.run(q, compute_probabilities=True)

    def test_rows_keep_symbolic_accessors(self, hard_session):
        result = hard_session.run(hard_query(hard_session), engine="approx")
        exact = hard_session.run(
            hard_query(hard_session), engine="naive"
        ).tuple_probabilities()
        row = next(r for r in result if r.values == (1,))
        # The exact accessors still work (they compile on demand).
        dist = row.annotation_distribution()
        assert 1.0 - dist[False] == pytest.approx(exact[(1,)])


class TestRunIter:
    def test_snapshots_nest_monotonically(self, hard_session):
        q = hard_query(hard_session)
        exact = hard_session.run(q, engine="naive").tuple_probabilities()
        snapshots = list(
            hard_session.run_iter(q, engine="approx", epsilon=1e-6)
        )
        assert snapshots[-1].stats["converged"]
        previous = None
        for snapshot in snapshots:
            current = {
                row.values: row.probability() for row in snapshot
            }
            for values, interval in current.items():
                assert interval.contains(exact[values])
                if previous is not None:
                    assert interval.low >= previous[values].low - 1e-12
                    assert interval.high <= previous[values].high + 1e-12
            previous = current

    def test_snapshots_are_independent_objects(self, hard_session):
        snapshots = list(
            hard_session.run_iter(
                hard_query(hard_session), engine="approx", epsilon=1e-9
            )
        )
        if len(snapshots) > 1:
            first, last = snapshots[0], snapshots[-1]
            assert first.rows[0] is not last.rows[0]

    def test_exact_engine_yields_single_result(self, hard_session):
        snapshots = list(
            hard_session.run_iter(hard_query(hard_session), engine="naive")
        )
        assert len(snapshots) == 1
        assert snapshots[0].engine == "naive"

    def test_top_k_early_termination_loop(self, hard_session):
        q = hard_query(hard_session)
        exact = hard_session.run(q, engine="naive").tuple_probabilities()
        winner = max(exact, key=exact.get)
        for snapshot in hard_session.run_iter(q, engine="approx", epsilon=1e-9):
            top = snapshot.top_k(1)
            if top.stats["top_k_decided"]:
                break
        assert top.stats["top_k_decided"]
        assert top.rows[0].values == winner


def _rows(db, name):
    """``(attribute dict, P[row present])`` for each row of a base table."""
    table = db.tables[name]
    for row in table.rows:
        p = db.registry[row.annotation.name][True]
        yield dict(zip(table.schema.attributes, row.values)), p


def _chain_presence(db, top, mid, leaf, keep) -> dict:
    """Closed-form P[group non-empty] of a top⋈mid⋈leaf key–foreign-key chain.

    ``top`` is ``(table, key, group attribute)``, ``mid`` is ``(table,
    key, foreign key to top)``, ``leaf`` is ``(table, foreign key to
    mid)``; ``keep(mid_row, leaf_row)`` is the query's filter.  A group
    is non-empty when one of its top rows is present with a present mid
    row that has a present leaf row kept by the filter.
    """
    mids = {values[mid[1]]: values for values, _ in _rows(db, mid[0])}
    leaf_absent: dict = {}
    for values, p in _rows(db, leaf[0]):
        key = values[leaf[1]]
        if key in mids and keep(mids[key], values):
            leaf_absent[key] = leaf_absent.get(key, 1.0) * (1.0 - p)
    mid_absent: dict = {}
    for values, p in _rows(db, mid[0]):
        below = 1.0 - leaf_absent.get(values[mid[1]], 1.0)
        mid_absent[values[mid[2]]] = mid_absent.get(values[mid[2]], 1.0) * (1.0 - p * below)
    group_absent: dict = {}
    for values, p in _rows(db, top[0]):
        below = 1.0 - mid_absent.get(values[top[1]], 1.0)
        group = (values[top[2]],)
        group_absent[group] = group_absent.get(group, 1.0) * (1.0 - p * below)
    return {group: 1.0 - absent for group, absent in group_absent.items()}


class TestReadOnceChainJoins:
    """``auto`` bounds on read-once chain joins outside Q_hie are exact.

    The grouped COUNTs of the key–foreign-key chains customer⋈orders⋈
    lineitem and nation⋈supplier⋈lineitem have read-once annotations
    under their group guards, so the guard rule, independence and
    common-factor extraction decide them without one Shannon expansion.
    The expansion count is deterministic, so no timing noise moves it.
    """

    CHAINS = {
        "col_500": (
            "SELECT c_mktsegment, COUNT(*) AS n FROM customer, orders, lineitem "
            "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
            "AND o_orderdate <= 500 GROUP BY c_mktsegment",
            ("customer", "c_custkey", "c_mktsegment"),
            ("orders", "o_orderkey", "o_custkey"),
            ("lineitem", "l_orderkey"),
            lambda order, line: order["o_orderdate"] <= 500,
        ),
        "nsl_2400": (
            "SELECT n_name, COUNT(*) AS n FROM nation, supplier, lineitem "
            "WHERE n_nationkey = s_nationkey AND s_suppkey = l_suppkey "
            "AND l_shipdate <= 2400 GROUP BY n_name",
            ("nation", "n_nationkey", "n_name"),
            ("supplier", "s_suppkey", "s_nationkey"),
            ("lineitem", "l_suppkey"),
            lambda supplier, line: line["l_shipdate"] <= 2400,
        ),
    }

    @pytest.fixture(scope="class")
    def tpch(self):
        from repro.workloads.tpch import TPCHConfig, generate_tpch

        return generate_tpch(TPCHConfig(scale_factor=0.1, seed=7))

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_auto_bounds_need_no_expansion(self, tpch, chain):
        sql, *shape = self.CHAINS[chain]
        auto = connect(database=tpch).run(sql, engine="auto")
        exact = connect(database=tpch).run(sql, engine="sprout")
        assert auto.engine == "approx"
        assert auto.stats["expansions"] == 0
        truth = _chain_presence(tpch, *shape)
        sprout = {row.values[:1]: float(row.probability()) for row in exact.rows}
        got = {row.values[:1]: row.probability() for row in auto.rows}
        assert got.keys() == sprout.keys() and len(got) > 1
        for key, interval in got.items():
            assert interval.width == 0.0
            assert abs(interval.low - truth[key]) <= 1e-12
            # Exact compilation drops distribution entries ≤ 1e-9 (e.g. a
            # supplier's tiny P[no line item present]), so it agrees to
            # that cut-off only.
            assert abs(interval.low - sprout[key]) <= 1e-9
