"""Tests of the benchmark's own oracles and answer checks.

The oracles are checked on tiny cases computed by hand; the checks are
shown to count a perturbed answer as a failed operation.
"""

from __future__ import annotations

import math

import pytest

from perfbench import common, oracles
from perfbench.counts import differences
from perfbench.hard_anytime import EPSILON, check_bounds, check_sampled
from perfbench.serve_rw import StateOracle, check_history


def approx_list(values):
    return pytest.approx(values, abs=1e-12)


# -- oracles on hand-computed cases ---------------------------------------


def test_presence_is_one_minus_product_of_absences():
    assert oracles.presence([0.5, 0.5]) == pytest.approx(0.75)
    assert oracles.presence([0.2, 0.5, 1.0]) == pytest.approx(1.0)
    assert oracles.presence([]) == 0.0


def test_poisson_binomial_counts():
    assert oracles.poisson_binomial([0.5, 0.5]) == approx_list([0.25, 0.5, 0.25])
    # 0.2 → [.8, .2]; 0.5 → [.4, .5, .1]; 1.0 shifts by one.
    assert oracles.poisson_binomial([0.2, 0.5, 1.0]) == approx_list([0.0, 0.4, 0.5, 0.1])
    assert oracles.poisson_binomial([]) == [1.0]


def test_sum_oracles():
    assert oracles.expected_sum([(0.5, 10), (0.25, 4)]) == pytest.approx(6.0)
    dist = oracles.sum_distribution([(0.5, 1), (0.5, 2)])
    assert dist == pytest.approx({0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})
    assert sum(v * p for v, p in dist.items()) == pytest.approx(
        oracles.expected_sum([(0.5, 1), (0.5, 2)])
    )


def test_chain_join_nested_products_and_counts():
    # One customer (p=.5) with one order (p=.5) holding two lineitems (p=.5):
    # lines present with .75; order chain .5·.75; customer chain .5·.375.
    items = [(0.5, [(0.5, [(0.5, None), (0.5, None)])])]
    assert oracles.chain_presence(items) == pytest.approx(0.1875)
    # Lines count [.25, .5, .25]; order → [.625, .25, .125]; customer halves it.
    assert oracles.chain_count(items) == approx_list([0.8125, 0.125, 0.0625])
    assert 1.0 - oracles.chain_count(items)[0] == pytest.approx(oracles.chain_presence(items))
    assert oracles.chain_presence([]) == 0.0


def test_world_enumeration():
    def answer(world):
        rows = set()
        if {"a", "b"} <= world:
            rows.add(("both",))
        if world:
            rows.add(("any",))
        return rows

    result = oracles.enumerate_worlds({"a": 0.5, "b": 0.25}, answer)
    assert result == pytest.approx({("both",): 0.125, ("any",): 0.625})


def test_hoeffding_radius():
    # ln(2/δ) = 4 with δ = 2e^-4; sqrt(4 / (2·2)) = 1.
    assert oracles.hoeffding_radius(2, 2 * math.exp(-4)) == pytest.approx(1.0)
    assert oracles.hoeffding_radius(8, 2 * math.exp(-4)) == pytest.approx(0.5)


# -- checks count perturbed answers as failed -----------------------------


def tally_of(problem_lists):
    tally = common.Tally()
    for problems in problem_lists:
        tally.record(problems)
    return tally


def test_exact_tpch_answers_match_and_a_perturbed_one_fails():
    common.use_source_tree()
    from perfbench.exact_tpch import ExactTpch

    workload = ExactTpch(seed=3)
    params = workload.draw()
    answers = workload.execute(params, {})
    assert workload.check(params, answers) == []

    key = next(iter(answers["q1_count"]))
    prob, dist = answers["q1_count"][key]
    answers["q1_count"][key] = (prob + 1e-6, dist)
    problems = workload.check(params, answers)
    assert problems and "q1_count" in problems[0]
    tally = tally_of([[], problems])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)


def test_bounds_check():
    want = {("x",): 0.4}
    assert check_bounds("b", {("x",): (0.38, 0.42)}, want) == []
    assert check_bounds("b", {("x",): (0.41, 0.43)}, want)  # misses the truth
    assert check_bounds("b", {("x",): (0.39, 0.39 + EPSILON + 0.01)}, want)  # too wide
    assert check_bounds("b", {}, want)  # a group is missing


def test_sampled_check():
    radius = oracles.hoeffding_radius(512, 1e-6)
    want = {("x",): 0.5, ("rare",): radius / 2}
    assert check_sampled("s", {("x",): (0.45, 0.55)}, 512, want) == []
    far = 0.5 + radius + 0.06
    assert check_sampled("s", {("x",): (far, far + 0.05)}, 512, want)
    assert check_sampled("s", {}, 512, want)  # a likely tuple never sampled


# -- serve_rw: reads against the states between writes ---------------------


LINEITEMS = [
    ((1, 1, 1, 5, 0, "A", "F", 100), 0.5),
    ((2, 1, 1, 5, 0, "A", "F", 3000), 0.5),
]


def read(sent, reply, answer, statement=0):
    return {"kind": "read", "error": None, "statement": statement,
            "sent": sent, "reply": reply, "answer": answer}


def write(sent, reply, generation, change):
    return {"kind": "write", "error": None, "rows": 1, "generation": generation,
            "sent": sent, "reply": reply,
            "write": {"key": (2, 1, 1), **change}}


def test_state_oracle_applies_writes_in_order():
    writes = [{"key": (2, 1, 1), "set": {"l_shipdate": 50}},
              {"key": (1, 1, 1), "p": 0.9}]
    states = StateOracle(LINEITEMS, writes)
    assert states.answer(0, 0) == pytest.approx({("A", "F"): 0.5})
    assert states.answer(0, 1) == pytest.approx({("A", "F"): 0.75})
    assert states.answer(0, 2) == pytest.approx({("A", "F"): 1 - 0.1 * 0.5})


def test_history_check_accepts_any_state_in_the_window_only():
    moved = write(1.0, 2.0, 7, {"set": {"l_shipdate": 50}})
    before, after = {("A", "F"): 0.5}, {("A", "F"): 0.75}
    records = [
        moved,
        read(0.5, 0.9, before),   # finished before the write was sent
        read(1.5, 2.5, before),   # overlaps the write: either state
        read(1.5, 2.5, after),
        read(3.0, 3.5, after),    # sent after the write was acknowledged
        read(3.0, 3.5, before),   # stale: must fail
        read(0.5, 0.9, after),    # from the future: must fail
    ]
    problems = check_history(LINEITEMS, records)
    assert [bool(p) for p in problems] == [False, False, False, False, False, True, True]
    tally = tally_of(problems)
    assert (tally.attempted, tally.failed, tally.correct) == (7, 2, False)


def test_count_records_compare_exactly():
    a = {"workload": "w", "seed": 1, "counts": {"x": 1, "y": 2}}
    assert differences(a, a) == []
    b = {"workload": "w", "seed": 1, "counts": {"x": 1, "y": 3}}
    assert differences(a, b) == ["y: 2 != 3"]


def test_param_stream_is_seeded():
    assert common.ParamStream(5, 2).next() == common.ParamStream(5, 2).next()
    assert common.ParamStream(5, 2).next() != common.ParamStream(6, 2).next()
    stream = common.ParamStream(5, 1)
    draws = sorted(common.scale(stream.next()[0], 0, 9) for _ in range(100))
    assert draws[0] == 0 and draws[-1] == 9
    assert all(8 <= draws.count(v) <= 12 for v in range(10))  # evenly spread
