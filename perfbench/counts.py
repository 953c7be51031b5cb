"""Compare the deterministic work counts of two runs exactly.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exact_tpch --seed 1 --counts a.json
    python3 perfbench/run.py --workload exact_tpch --seed 1 --counts b.json
    python3 perfbench/counts.py a.json b.json

The count pass runs a fixed operation sequence on a fresh session (or
server), so with one seed every count — step-I rows, d-tree and mutex
nodes, approximation expansions, distinct worlds, cache hits, misses and
invalidations, rows changed — must repeat exactly.  A difference is a
fault to report, not noise to average: exits 1 and names every count
that differs; exits 0 when all agree.
"""

from __future__ import annotations

import argparse
import json
import sys


def differences(first: dict, second: dict) -> list[str]:
    """Human-readable differences between two count records."""
    problems = []
    for field in ("workload", "seed"):
        if first.get(field) != second.get(field):
            problems.append(f"{field}: {first.get(field)!r} != {second.get(field)!r}")
    a, b = first["counts"], second["counts"]
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            problems.append(f"{name}: {a.get(name)!r} != {b.get(name)!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first")
    parser.add_argument("second")
    args = parser.parse_args(argv)
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    problems = differences(first, second)
    for problem in problems:
        print(problem)
    if not problems:
        print(f"{len(first['counts'])} counts identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
