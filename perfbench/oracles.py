"""Answers computed apart from the library, for checking every operation.

Plain Python over plain ``(values, p)`` rows of tuple-independent tables:
nothing here imports ``repro``.  Each oracle is exact for the query
shapes the workloads issue:

* :func:`presence` — a group of independent rows is present with
  probability ``1 − Π(1 − pᵢ)``;
* :func:`poisson_binomial` — the COUNT of independent rows;
* :func:`expected_sum` and :func:`sum_distribution` — SUM over them;
* :func:`chain_presence` and :func:`chain_count` — key/foreign-key chain
  joins (customer⋈orders⋈lineitem, nation⋈supplier⋈lineitem).  Every
  lineitem has one order and every order one customer, so the lineage
  is read-once and factors into nested products and convolutions;
* :func:`enumerate_worlds` — brute force over a handful of variables,
  for Q2's nested MIN;
* :func:`hoeffding_radius` — the sampling-error bound for Monte-Carlo.
"""

from __future__ import annotations

import math

__all__ = [
    "presence",
    "poisson_binomial",
    "expected_sum",
    "sum_distribution",
    "chain_presence",
    "chain_count",
    "enumerate_worlds",
    "hoeffding_radius",
]


def presence(probabilities) -> float:
    """P[at least one of independent events], ``1 − Π(1 − pᵢ)``."""
    absent = 1.0
    for p in probabilities:
        absent *= 1.0 - p
    return 1.0 - absent


def poisson_binomial(probabilities) -> list[float]:
    """``dist[k] = P[exactly k of the independent events hold]``."""
    dist = [1.0]
    for p in probabilities:
        grown = [0.0] * (len(dist) + 1)
        for k, mass in enumerate(dist):
            grown[k] += mass * (1.0 - p)
            grown[k + 1] += mass * p
        dist = grown
    return dist


def expected_sum(pairs) -> float:
    """E[SUM] over independent rows ``(p, v)``: ``Σ pᵢ·vᵢ``."""
    return sum(p * v for p, v in pairs)


def sum_distribution(pairs) -> dict:
    """Distribution of ``Σ vᵢ·[row i present]`` over independent ``(p, v)``."""
    dist = {0: 1.0}
    for p, v in pairs:
        grown: dict = {}
        for total, mass in dist.items():
            grown[total] = grown.get(total, 0.0) + mass * (1.0 - p)
            grown[total + v] = grown.get(total + v, 0.0) + mass * p
        dist = grown
    return dist


def _convolve(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def chain_presence(items) -> float:
    """P[some complete chain is present] for a key/foreign-key chain join.

    ``items`` is a list of ``(p, children)``: a row with its presence
    probability and the rows that reference it one level down
    (``children=None`` at the last level).  A row contributes a chain
    when it is present and, below the last level, some child does.
    """
    absent = 1.0
    for p, children in items:
        below = 1.0 if children is None else chain_presence(children)
        absent *= 1.0 - p * below
    return 1.0 - absent


def _chain_count_item(p: float, children) -> list[float]:
    if children is None:
        return [1.0 - p, p]
    below = chain_count(children)
    out = [p * mass for mass in below]
    out[0] += 1.0 - p
    return out


def chain_count(items) -> list[float]:
    """``dist[k] = P[exactly k complete chains]`` (a chain join's COUNT).

    Same ``items`` shape as :func:`chain_presence`.  A row that is absent
    contributes no chain; a present one contributes the chains of its
    children, which are independent, so counts convolve.
    """
    dist = [1.0]
    for p, children in items:
        dist = _convolve(dist, _chain_count_item(p, children))
    return dist


def enumerate_worlds(variables: dict, answer) -> dict:
    """``P[t ∈ answer]`` by enumerating every world of ``variables``.

    ``variables`` maps a name to its presence probability; ``answer``
    maps the frozenset of present names to the set of answer tuples of
    that world.  Exponential: meant for ten-odd variables.
    """
    names = sorted(variables)
    totals: dict = {}
    for mask in range(1 << len(names)):
        weight = 1.0
        present = []
        for bit, name in enumerate(names):
            if mask >> bit & 1:
                weight *= variables[name]
                present.append(name)
            else:
                weight *= 1.0 - variables[name]
        if weight == 0.0:
            continue
        for row in answer(frozenset(present)):
            totals[row] = totals.get(row, 0.0) + weight
    return totals


def hoeffding_radius(samples: int, delta: float) -> float:
    """Two-sided Hoeffding radius: ``P[|mean − μ| > r] ≤ delta``.

    For the mean of ``samples`` independent draws of a 0/1 variable.
    """
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))
