"""Reference sweep: ``engine="auto"`` bounds against exact Sprout.

Usage (from the root of a checkout)::

    python3 perfbench/sweep.py [--cutoffs 200 300 400 500 600]

For the ``hard_anytime`` chain join (customer⋈orders⋈lineitem grouped
COUNT) at each order-date cutoff, times the default engine — which
routes this query outside Q_hie to the ε-bounds of ``core.approx`` —
and exact compilation (``engine="sprout"``) on fresh sessions, and
prints the Shannon expansions the bounds spent.  Both answers are
checked against the nested-product oracle.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import common, oracles  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cutoffs", type=int, nargs="+", default=[200, 300, 400, 500, 600])
    args = parser.parse_args(argv)
    common.use_source_tree()
    from repro import connect
    from perfbench.exact_tpch import COL_COUNT, TpchOracle

    db = common.tpch_database()
    oracle = TpchOracle(common.plain_tables(db))
    print(f"{'cutoff':>6} {'auto ms':>10} {'expansions':>10} {'sprout ms':>10} {'ratio':>7}")
    for cutoff in args.cutoffs:
        sql = COL_COUNT.format(cutoff=cutoff)
        want = {k: oracles.chain_presence(v) for k, v in oracle.col_items(cutoff).items()}
        timings = {}
        for engine in ("auto", "sprout"):
            session = connect(database=db)
            start = time.perf_counter()
            result = session.run(sql, engine=engine)
            got = {row.values[:1]: row.probability() for row in result.rows}
            timings[engine] = time.perf_counter() - start
            for key, truth in want.items():
                interval = got[key]
                if not interval.low - 1e-9 <= truth <= interval.high + 1e-9:
                    raise SystemExit(f"{engine} at {cutoff}: {key} {interval!r} vs {truth!r}")
            if engine == "auto":
                expansions = result.stats.get("expansions", 0)
        print(f"{cutoff:>6} {timings['auto'] * 1000:>10.1f} {expansions:>10} "
              f"{timings['sprout'] * 1000:>10.1f} {timings['auto'] / timings['sprout']:>6.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
