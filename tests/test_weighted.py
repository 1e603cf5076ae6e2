import math
import random

import numpy as np
import pytest

from compose_approx.errors import EvaluationError
from compose_approx.expr import eval_scalar, parse
from compose_approx.weighted import (
    ENDPOINT_MARGIN,
    GridConfig,
    JacobiWeight,
    _peak_candidates,
    chained_lemma_constant,
    chebyshev_grid,
    derivative_fn,
    eval_samples,
    lemma_constant,
    multivariate_sobolev_norm,
    phi_eval,
    refine_max,
    sobolev_norm,
    weight_eval,
    weighted_sup_norm,
)

from oracles import dense_sup, rel_err

W0 = JacobiWeight(0.0, 0.0)
WH = JacobiWeight(0.5, 0.5)


class TestWeightAndPhi:
    def test_half_half_at_zero(self):
        assert weight_eval(WH, 0.0) == 1.0

    def test_trivial_weight(self):
        for x in (-1.0, -0.3, 0.0, 0.9, 1.0):
            assert weight_eval(W0, x) == 1.0

    def test_pythagorean_phi(self):
        assert phi_eval(0.6) == pytest.approx(0.8, abs=1e-15)

    def test_endpoint_decay(self):
        assert weight_eval(JacobiWeight(0.5, 0.0), 1.0) == 0.0
        assert weight_eval(JacobiWeight(0.0, 0.5), -1.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            weight_eval(WH, 1.5)
        with pytest.raises(ValueError):
            phi_eval(-1.01)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            JacobiWeight(-0.1, 0.0)

    def test_power_matches_pointwise_power(self):
        rng = random.Random(2)
        for _ in range(50):
            w = JacobiWeight(rng.uniform(0, 0.9), rng.uniform(0, 0.9))
            c = rng.uniform(0.2, 3.0)
            x = rng.uniform(-0.999, 0.999)
            assert rel_err(weight_eval(w.power(c), x), weight_eval(w, x) ** c) < 1e-14

    def test_root_of_power(self):
        w = JacobiWeight(0.6, 0.3)
        back = w.power(4).root(4)
        assert back.gamma == pytest.approx(0.6) and back.delta == pytest.approx(0.3)


class TestSupNorm:
    def test_constant(self):
        rep = weighted_sup_norm(lambda x: np.ones_like(x), W0, 0)
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_phi_alone(self):
        rep = weighted_sup_norm(lambda x: np.ones_like(x), W0, 1)
        assert rep.value == pytest.approx(1.0, abs=1e-10)
        assert abs(rep.argmax) < 1e-5

    def test_x_times_phi(self):
        rep = weighted_sup_norm(lambda x: x, WH, 0)
        assert rep.value == pytest.approx(0.5, abs=1e-10)
        assert abs(abs(rep.argmax) - math.sqrt(0.5)) < 1e-6

    def test_non_finite_sample_located(self):
        def bad(x):
            return np.where(np.abs(x) < 1e-3, np.nan, x)

        with pytest.raises(EvaluationError, match="x="):
            weighted_sup_norm(bad, W0, 0)

    def test_monotone_under_domination(self):
        pairs = [
            (parse("x^2", 1), parse("1", 1)),
            (parse("x/2", 1), parse("x", 1)),
            (parse("sin(x)", 1), parse("1", 1)),
        ]
        for small, big in pairs:
            for w in (W0, WH, JacobiWeight(0.75, 0.25)):
                lo = weighted_sup_norm(lambda x, e=small: eval_scalar(e, x), w, 0)
                hi = weighted_sup_norm(lambda x, e=big: eval_scalar(e, x), w, 0)
                assert lo.value <= hi.value * (1 + 1e-10)

    def test_against_dense_grid_oracle(self):
        srcs = [
            "exp(x)", "sin(3*x)", "cos(2*x)+x", "x^4-x^2+1", "1/(2+x)",
            "log(3+x)", "sqrt(2+x)", "(1+x)^2.5", "(1-x)^2.5", "(1-x^2)^2.5",
            "x", "x^2", "exp(x)*sin(2*x)", "x^3-x", "1/(3-x)",
            "exp(-x)", "sin(x)*cos(x)", "(2+x)^0.5*x", "x^5", "cos(x)^2",
        ]
        weights = [W0, WH, JacobiWeight(0.25, 0.75)]
        rng = random.Random(8)
        for src in srcs:
            ast = parse(src, 1)
            fn = lambda x, e=ast: eval_scalar(e, x)
            w = rng.choice(weights)
            p = rng.choice([0, 1, 2])
            est = weighted_sup_norm(fn, w, p, GridConfig()).value
            oracle = dense_sup(fn, lambda x: np.asarray(weight_eval(w, x)) * phi_eval(x) ** p)
            assert rel_err(est, oracle) < 1e-6, src


def _sup_refining_every_candidate(fn, w, p, grid):
    """The sup norm with every tied sample refined, plateau interiors too."""
    xs = chebyshev_grid(grid.points, ENDPOINT_MARGIN, ENDPOINT_MARGIN)
    uvals = weight_eval(w, xs) * phi_eval(xs) ** p
    vals = np.abs(eval_samples(fn, xs)) * uvals

    def product(x):
        return abs(float(fn(x))) * (weight_eval(w, x) * phi_eval(x) ** p)

    grid_max = float(np.max(vals))
    best = (grid_max, float(xs[int(np.argmax(vals))]), False)
    for i in _peak_candidates(vals, grid_max * (1.0 - 1e-3) - 1e-300).tolist():
        if 0 < i < len(xs) - 1:
            x_ref, v_ref = refine_max(
                product, float(xs[i - 1]), float(xs[i]), float(xs[i + 1]), grid.rel_tol
            )
            refined = best[2] or bool(v_ref > vals[i])
            best = (v_ref, x_ref, refined) if v_ref > best[0] else (*best[:2], refined)
    return best


class TestPlateau:
    GRID = GridConfig(points=257)

    def test_flat_product_needs_no_scalar_search(self):
        calls = []
        zero = derivative_fn(parse("x^4-x^2+1", 1), 5)

        def fn(x):
            if not isinstance(x, np.ndarray):
                calls.append(x)
            return zero(x)

        rep = weighted_sup_norm(fn, WH, 5)
        assert rep.value == 0.0 and not rep.refined
        assert calls == []

    def test_run_ends_are_still_refined(self):
        xs = chebyshev_grid(self.GRID.points, 1e-12, 1e-12)
        k = 150  # the plateau 1 ends at xs[k + 1]; a bump sits just left of it
        a, b = float(xs[k]), float(xs[k + 1])

        def fn(x):
            x = np.asarray(x, dtype=float)
            bump = 1.0 + 0.01 * np.clip((x - a) * (b - x), 0.0, None) / (b - a) ** 2
            out = np.where(x <= a, 1.0, np.where(x <= b, bump, 1.0 - (x - b)))
            return out if out.ndim else float(out)

        rep = weighted_sup_norm(fn, W0, 0, self.GRID)
        assert rep.refined and rep.value > 1.0 + 0.002
        assert a < rep.argmax < b

    def test_same_report_as_refining_every_candidate(self):
        for src in ("x^4-x^2+1", "exp(x)", "sin(3*x)", "(1-x^2)^2.5", "1", "x^2"):
            f = parse(src, 1)
            for order in range(6):
                for w in (W0, WH, JacobiWeight(0.25, 0.75)):
                    fn = derivative_fn(f, order)
                    rep = weighted_sup_norm(fn, w, order, self.GRID)
                    expected = _sup_refining_every_candidate(fn, w, order, self.GRID)
                    assert (rep.value, rep.argmax, rep.refined) == expected, (src, order, w)


class TestRefineMax:
    @staticmethod
    def bump(x):
        return 1.0 - (x - 0.3) ** 2 + 0.1 * math.sin(4 * x)

    def test_value_and_bracket_rules_agree(self):
        x_value, v_value = refine_max(self.bump, -1.0, 0.0, 1.0, 1e-12)
        x_width, v_width = refine_max(self.bump, -1.0, 0.0, 1.0, 1e-12, width=1e-6)
        assert v_value == pytest.approx(v_width, rel=1e-12)
        assert abs(x_width - x_value) < 1e-5


class TestSobolevNorms:
    def test_constant_any_order(self):
        assert sobolev_norm(parse("1", 1), 3, W0) == pytest.approx(1.0, abs=1e-11)

    def test_identity_order_one(self):
        assert sobolev_norm(parse("x", 1), 1, W0) == pytest.approx(2.0, abs=1e-9)

    def test_exp_order_two_against_oracle(self):
        got = sobolev_norm(parse("exp(x)", 1), 2, W0)
        xs = np.linspace(-1, 1, 1_000_001)
        expected = math.e + float(np.max(np.exp(xs) * (1 - xs * xs)))
        assert rel_err(got, expected) < 1e-8

    def test_multivariate_constant(self):
        assert multivariate_sobolev_norm(parse("-5", 1, ["y1"]), 2, [(-1, 1)]) == 5.0

    def test_multivariate_identity(self):
        assert multivariate_sobolev_norm(parse("y1", 1, ["y1"]), 1, [(-1, 1)]) == 2.0

    def test_multivariate_product(self):
        got = multivariate_sobolev_norm(parse("y1*y2", 2), 2, [(-1, 1), (-1, 1)])
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="axes"):
            multivariate_sobolev_norm(parse("y1", 5), 1, [(-1, 1)] * 5)


class TestLemmaConstants:
    def test_unweighted_first_order(self):
        assert lemma_constant(1, W0) == pytest.approx(2.0**2.5, rel=1e-13)

    def test_beta_accuracy_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        from compose_approx.weighted import _beta

        for g in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            oracle = float(mpmath.beta(1 - g, 0.5))
            assert abs(_beta(1 - g, 0.5) - oracle) <= 1e-13 * oracle

    def test_single_step_chain(self):
        for k in (1, 2, 3, 4):
            for w in (W0, WH):
                assert chained_lemma_constant(k + 1, k, w) == pytest.approx(
                    lemma_constant(k, w), rel=1e-14
                )

    def test_chain_grows_with_span(self):
        w = JacobiWeight(0.25, 0.5)
        assert chained_lemma_constant(3, 1, w) > chained_lemma_constant(2, 1, w)

    def test_weight_exponent_guard(self):
        with pytest.raises(ValueError):
            lemma_constant(1, JacobiWeight(1.0, 0.0))
        with pytest.raises(ValueError):
            chained_lemma_constant(3, 1, JacobiWeight(0.0, 1.2))

    def test_inequality_on_sample(self):
        # a slice of the full acceptance corpus
        for src in ("exp(x)", "(1+x)^2.5", "x^4-x^2+1"):
            f = parse(src, 1)
            for w in (W0, WH):
                for r in (2, 4):
                    for k in range(1, r):
                        lhs = weighted_sup_norm(derivative_fn(f, k), w, k).value
                        plain = weighted_sup_norm(derivative_fn(f, 0), w, 0).value
                        high = weighted_sup_norm(derivative_fn(f, r), w, r).value
                        c = chained_lemma_constant(r, k, w)
                        assert lhs <= c * (plain + high) * (1 + 1e-9)
