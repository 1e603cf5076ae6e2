import math

import numpy as np
import pytest

from compose_approx.expr import eval_scalar, parse
from compose_approx.minimax import (
    ChebPoly,
    RemezOptions,
    cheb_interpolant,
    favard_rhs,
    remez_from_values,
    remez_grid,
    weighted_remez,
)
from compose_approx.weighted import JacobiWeight, phi_eval, weight_eval

from oracles import dense_sup, rel_err

W0 = JacobiWeight(0.0, 0.0)
WH = JacobiWeight(0.5, 0.5)


def T3(x):
    return 4 * x**3 - 3 * x


def residual_at(report, f, w, x):
    return (f(x) - float(report.poly(x))) * float(weight_eval(w, x))


def assert_equioscillates(report, f, w, rel_tol=1e-8):
    assert len(report.extrema) >= report.m + 2
    xs = np.asarray(report.extrema)
    assert np.all(np.diff(xs) > 0)
    values = [residual_at(report, f, w, float(x)) for x in report.extrema]
    signs = [1 if v > 0 else -1 for v in values]
    assert all(a != b for a, b in zip(signs, signs[1:]))
    for v in values:
        assert abs(abs(v) - report.error) <= rel_tol * report.error


class TestChebPoly:
    def test_clenshaw_matches_direct(self):
        p = ChebPoly((0.5, -1.0, 0.25, 2.0))
        xs = np.linspace(-1, 1, 101)
        direct = 0.5 - xs + 0.25 * (2 * xs**2 - 1) + 2.0 * (4 * xs**3 - 3 * xs)
        assert np.allclose(p(xs), direct, atol=1e-14)

    def test_degree(self):
        assert ChebPoly((1.0, 2.0, 3.0)).degree == 2


class TestInterpolant:
    def test_reproduces_basis_element(self):
        p = cheb_interpolant(T3, 3)
        assert np.allclose(p.coeffs, (0, 0, 0, 1), atol=1e-14)

    def test_constant(self):
        p = cheb_interpolant(lambda x: 2.0 * np.ones_like(x), 5)
        assert p.coeffs[0] == pytest.approx(2.0, abs=1e-14)
        assert max(abs(c) for c in p.coeffs[1:]) < 1e-14

    def test_exp_degree_ten_residual(self):
        p = cheb_interpolant(np.exp, 10)
        xs = np.linspace(-1, 1, 20001)
        assert float(np.max(np.abs(np.exp(xs) - p(xs)))) <= 1e-9


class TestRemezExactness:
    def test_square_degree_one(self):
        rep = weighted_remez(lambda x: x**2, 1, W0)
        assert rep.converged
        assert rep.error == pytest.approx(0.5, abs=1e-8)
        # best linear approximation of x^2 is the constant 1/2
        assert rep.poly.coeffs[0] == pytest.approx(0.5, abs=1e-9)
        assert abs(rep.poly.coeffs[1]) < 1e-9
        assert np.allclose(sorted(rep.extrema), [-1.0, 0.0, 1.0], atol=1e-6)
        assert_equioscillates(rep, lambda x: x**2, W0)

    def test_chebyshev_degree_two(self):
        rep = weighted_remez(T3, 2, W0)
        assert rep.converged
        assert rep.error == pytest.approx(1.0, abs=1e-8)
        assert max(abs(c) for c in rep.poly.coeffs) < 1e-8
        assert_equioscillates(rep, T3, W0)

    def test_polynomial_input_is_exact(self):
        for f, m in [
            (lambda x: 2 * x**3 - x + 0.5, 3),
            (lambda x: x**2, 2),
            (lambda x: 7 * np.ones_like(np.asarray(x, dtype=float)), 0),
            (lambda x: x**4, 6),
        ]:
            rep = weighted_remez(f, m, W0)
            assert rep.converged
            assert rep.error <= 1e-13

    def test_sandwich(self):
        for f, m in [(np.exp, 6), (lambda x: np.sin(3 * x), 9), (T3, 2)]:
            rep = weighted_remez(f, m, W0)
            assert rep.converged
            assert rep.leveled_error <= rep.error * (1 + 1e-12)
            assert rep.error - rep.leveled_error <= max(
                1e-8 * rep.error, 64 * np.finfo(float).eps
            )

    def test_monotone_in_degree(self):
        f = lambda x: np.abs(np.sin(3 * (x + 0.1))) ** 2.5  # limited smoothness
        prev = None
        for m in range(2, 24):
            rep = weighted_remez(f, m, W0)
            if not rep.converged:
                prev = None
                continue
            if prev is not None:
                assert rep.error <= prev * (1 + 1e-10)
            prev = rep.error

    def test_near_best_interpolant_dominates(self):
        for f, m in [(np.exp, 8), (lambda x: 1.0 / (2 + x), 10)]:
            p = cheb_interpolant(f, m)
            xs = np.linspace(-1, 1, 50001)
            interp_residual = float(np.max(np.abs(f(xs) - p(xs))))
            rep = weighted_remez(f, m, W0)
            assert interp_residual >= rep.error - 1e-12


class TestWeightedRuns:
    def test_weighted_square(self):
        rep = weighted_remez(lambda x: x**2, 1, WH)
        assert rep.converged
        assert_equioscillates(rep, lambda x: x**2, WH)
        # weighted extrema stay strictly inside the interval
        assert all(-1 < x < 1 for x in rep.extrema)

    def test_weighted_singular_function(self):
        f = lambda x: (1.0 + x) ** 0.75
        rep = weighted_remez(f, 8, JacobiWeight(0.0, 0.5))
        assert rep.converged
        assert rep.error > 0
        assert_equioscillates(rep, f, JacobiWeight(0.0, 0.5), rel_tol=1e-6)

    def test_values_path_matches_callable_path(self):
        f = lambda x: np.exp(x) * np.sin(2 * x)
        xs = remez_grid(W0)
        rv = remez_from_values(xs, f(xs), 12, W0)
        rc = weighted_remez(f, 12, W0)
        assert rel_err(rv.error, rc.error) < 1e-6

    def test_nonconvergence_reported(self):
        opts = RemezOptions(max_iter=1)
        rep = weighted_remez(lambda x: (1 + x) ** 1.5, 40, W0, opts)
        assert not rep.converged
        assert rep.error > 0  # best-so-far, not a silent wrong answer


class TestFavardRhs:
    def test_vanishing_high_derivative(self):
        assert favard_rhs(parse("x^2-3*x", 1), 3, 5, W0) == 0.0

    def test_exp_first_order(self):
        got = favard_rhs(parse("exp(x)", 1), 1, 10, W0)
        oracle = dense_sup(np.exp, phi_eval) / 10.0
        assert rel_err(got, oracle) < 1e-8

    def test_homogeneity(self):
        base = favard_rhs(parse("exp(x)", 1), 2, 12, WH)
        scaled = favard_rhs(parse("-2.5*exp(x)", 1), 2, 12, WH)
        assert rel_err(scaled, 2.5 * base) < 1e-12

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            favard_rhs(parse("exp(x)", 1), 3, 2, W0)


class TestFavardBoundedness:
    def test_ratio_bounded_for_limited_smoothness(self):
        # light version of the acceptance run: r = 1, degrees to 64
        f = parse("(1+x)^1.5", 1)
        fn = lambda x: eval_scalar(f, x)
        seminorm = dense_sup(
            lambda x: 1.5 * 0.5 * (1 + x) ** -0.5, phi_eval, 200001
        )
        xs = remez_grid(W0)
        fvals = np.asarray(fn(xs), dtype=float)
        ratios = []
        for m in range(1, 65):
            rep = remez_from_values(xs, fvals, m, W0)
            assert rep.converged
            ratios.append(rep.error * m / seminorm)
        log_m = np.log(np.arange(1, 65))
        slope = float(np.polyfit(log_m, np.log(ratios), 1)[0])
        assert slope <= 0.1
        assert max(ratios) < math.inf
