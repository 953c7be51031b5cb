"""Tests for budgeted approximate probability computation."""

import pytest

from repro.algebra.expressions import ONE, ZERO, Var, sprod, ssum
from repro.algebra.parser import parse_expr
from repro.algebra.semiring import BOOLEAN
from repro.core.approx import (
    ApproximateCompiler,
    ProbabilityBounds,
    approximate_probability,
)
from repro.core.compile import Compiler
from repro.errors import CompilationError
from repro.prob.variables import VariableRegistry


def registry_for(expr_vars, p=0.5):
    reg = VariableRegistry()
    for name in expr_vars:
        reg.bernoulli(name, p)
    return reg


class TestBoundsArithmetic:
    def test_exact_and_unknown(self):
        assert ProbabilityBounds.exact(0.5).width == 0
        assert ProbabilityBounds.unknown().width == 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(CompilationError):
            ProbabilityBounds(0.7, 0.3)
        with pytest.raises(CompilationError):
            ProbabilityBounds(-0.1, 0.5)

    def test_rounding_above_one_accepted(self):
        # A Shannon sum over a multi-valued variable whose weights add up
        # to 1 + 2⁻⁵² lands just above 1.
        assert ProbabilityBounds.exact(1.0000000000000002).width == 0
        with pytest.raises(CompilationError):
            ProbabilityBounds(0.5, 1.1)

    def test_disjunction_monotone(self):
        b1 = ProbabilityBounds(0.2, 0.4)
        b2 = ProbabilityBounds(0.1, 0.3)
        combined = b1.disjunction(b2)
        assert combined.low == pytest.approx(1 - 0.8 * 0.9)
        assert combined.high == pytest.approx(1 - 0.6 * 0.7)

    def test_conjunction(self):
        combined = ProbabilityBounds(0.2, 0.4).conjunction(
            ProbabilityBounds(0.5, 0.5)
        )
        assert combined.low == pytest.approx(0.1)
        assert combined.high == pytest.approx(0.2)

    def test_contains_and_midpoint(self):
        bounds = ProbabilityBounds(0.2, 0.6)
        assert bounds.contains(0.4)
        assert not bounds.contains(0.7)
        assert bounds.midpoint == pytest.approx(0.4)


class TestApproximateCompiler:
    def test_zero_budget_still_bounds(self):
        expr = parse_expr("(a+b)*(a+c)")
        reg = registry_for("abc")
        bounds = ApproximateCompiler(reg, budget=0).bounds(expr)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        assert bounds.contains(exact)

    def test_read_once_needs_no_budget(self):
        # Independent structure resolves exactly without Shannon steps.
        expr = parse_expr("a*b + c*d")
        reg = registry_for("abcd", p=0.3)
        bounds = ApproximateCompiler(reg, budget=0).bounds(expr)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        assert bounds.width == pytest.approx(0.0, abs=1e-12)
        assert bounds.low == pytest.approx(exact)

    def test_bounds_tighten_with_budget(self):
        expr = parse_expr("(a+b)*(a+c)*(b+d)*(c+d)")
        reg = registry_for("abcd", p=0.4)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        widths = []
        for budget in (0, 1, 2, 64):
            bounds = ApproximateCompiler(reg, budget).bounds(expr)
            assert bounds.contains(exact)
            widths.append(bounds.width)
        assert widths[0] >= widths[-1]
        assert widths[-1] == pytest.approx(0.0, abs=1e-12)

    def test_constants(self):
        reg = registry_for("")
        assert ApproximateCompiler(reg, 0).bounds(ONE).low == 1.0
        assert ApproximateCompiler(reg, 0).bounds(ZERO).high == 0.0

    def test_unsupported_expression_rejected(self):
        from repro.algebra.monoid import SUM
        from repro.algebra.semimodule import MConst, aggsum, tensor

        reg = registry_for("x")
        alpha = aggsum(SUM, [tensor(Var("x"), MConst(SUM, 1))])
        with pytest.raises(CompilationError, match="semimodule comparisons"):
            ApproximateCompiler(reg, 8).bounds(alpha)


class TestRefinementLoop:
    def test_epsilon_reached(self):
        expr = parse_expr("(a+b)*(a+c) + d*e")
        reg = registry_for("abcde", p=0.45)
        bounds = approximate_probability(expr, reg, epsilon=1e-6)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        assert bounds.width <= 1e-6
        assert bounds.contains(exact, tol=1e-6)

    def test_falls_back_to_exact(self):
        expr = parse_expr("(a+b)*(a+c)")
        reg = registry_for("abc")
        bounds = approximate_probability(
            expr, reg, epsilon=0.0, initial_budget=1, max_budget=1
        )
        exact = Compiler(reg, BOOLEAN).probability(expr)
        assert bounds.low == pytest.approx(exact)
        assert bounds.width == 0
