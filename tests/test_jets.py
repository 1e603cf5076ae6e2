import math
import operator
import random

import numpy as np
import pytest

from compose_approx.errors import EvalDomainError, ResourceLimitError
from compose_approx.expr import eval_jet1, eval_scalar, parse
from compose_approx.jets import Jet1, JetN, jet_compose, jet_lift, jetn_partials

from oracles import central_diff_1, central_diff_2, rel_err


class TestJet1Basics:
    def test_lift_examples(self):
        assert jet_lift(0.0, 2).coeffs == (0.0, 1.0, 0.0)
        assert jet_lift(1.0, 0).coeffs == (1.0,)
        assert jet_lift(-0.5, 3).coeffs == (-0.5, 1.0, 0.0, 0.0)

    def test_square_at_one(self):
        j = jet_lift(1.0, 2)
        assert (j * j).coeffs == (1.0, 2.0, 1.0)

    def test_exp_series(self):
        j = jet_lift(0.0, 3).exp()
        assert np.allclose(j.coeffs, (1.0, 1.0, 0.5, 1.0 / 6.0), rtol=0, atol=1e-15)

    def test_self_division_is_one(self):
        rng = random.Random(3)
        for _ in range(20):
            coeffs = [rng.uniform(0.5, 2.0)] + [rng.uniform(-1, 1) for _ in range(4)]
            a = Jet1(coeffs)
            q = a / a
            assert q.coeffs[0] == pytest.approx(1.0, abs=1e-15)
            assert max(abs(c) for c in q.coeffs[1:]) < 1e-14

    def test_derivative_extraction(self):
        j = eval_jet1(parse("x^3", 1), jet_lift(2.0, 3))
        assert j.derivatives() == pytest.approx([8.0, 12.0, 12.0, 6.0])

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order"):
            jet_lift(0.0, 2) + jet_lift(0.0, 3)

    def test_division_by_zero_constant(self):
        with pytest.raises(EvalDomainError):
            jet_lift(1.0, 2) / jet_lift(0.0, 2)

    def test_log_domain(self):
        with pytest.raises(EvalDomainError, match="log"):
            jet_lift(-1.0, 2).log()

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError, match="sqrt"):
            jet_lift(-0.5, 2).sqrt()

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalDomainError):
            jet_lift(-2.0, 2) ** 1.5

    def test_negative_integer_power(self):
        j = jet_lift(2.0, 2) ** -2
        assert j.value == pytest.approx(0.25)
        assert j.derivative(1) == pytest.approx(-2 * 2.0**-3)


class TestCompose:
    def test_power_chain(self):
        # f = y^3 at 1 composed with g = x^2 at 1 is x^6 at 1
        inner = eval_jet1(parse("x^2", 1), jet_lift(1.0, 6))
        outer = eval_jet1(parse("x^3", 1), jet_lift(float(inner.value), 6))
        got = jet_compose(outer, inner).derivatives()
        assert got == pytest.approx([1, 6, 30, 120, 360, 720, 720], rel=1e-12)

    def test_identity_inner(self):
        outer = eval_jet1(parse("exp(x)*cos(x)", 1), jet_lift(0.3, 5))
        comp = jet_compose(outer, jet_lift(0.3, 5))
        assert comp.coeffs == pytest.approx(outer.coeffs, rel=1e-14)

    def test_exp_of_sin(self):
        inner = eval_jet1(parse("sin(x)", 1), jet_lift(0.0, 3))
        outer = eval_jet1(parse("exp(x)", 1), jet_lift(float(inner.value), 3))
        got = jet_compose(outer, inner).derivatives()
        assert got == pytest.approx([1.0, 1.0, 1.0, 0.0], abs=1e-14)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            jet_compose(jet_lift(0.0, 2), jet_lift(0.0, 3))

    def test_associativity_on_random_triples(self):
        # bounded ranges keep every intermediate value inside every domain
        exprs = ["exp(x/4)", "sin(x)+2", "x^2/4", "1/(5+x)", "cos(x)-x/2"]
        rng = random.Random(11)
        for _ in range(30):
            f, g, h = (parse(rng.choice(exprs), 1) for _ in range(3))
            x0 = rng.uniform(-0.8, 0.8)
            r = rng.randint(1, 6)
            jh = eval_jet1(h, jet_lift(x0, r))
            jg_at_h = eval_jet1(g, jet_lift(float(jh.value), r))
            jf_at_gh = eval_jet1(
                f, jet_lift(float(jg_at_h.value), r)
            )
            left = jet_compose(jf_at_gh, jet_compose(jg_at_h, jh))
            right = jet_compose(jet_compose(jf_at_gh, jg_at_h), jh)
            for a, b in zip(left.coeffs, right.coeffs):
                assert rel_err(float(a), float(b)) < 1e-10

    def test_linearity(self):
        f = parse("exp(x)", 1)
        h = parse("sin(x)", 1)
        g = parse("x^2", 1)
        a, b = 2.5, -1.25
        x0, r = 0.4, 5
        jg = eval_jet1(g, jet_lift(x0, r))
        y0 = float(jg.value)
        jf = eval_jet1(f, jet_lift(y0, r))
        jh = eval_jet1(h, jet_lift(y0, r))
        combo = Jet1(tuple(a * u + b * v for u, v in zip(jf.coeffs, jh.coeffs)))
        lhs = jet_compose(combo, jg)
        rhs = a * jet_compose(jf, jg) + b * jet_compose(jh, jg)
        for u, v in zip(lhs.coeffs, rhs.coeffs):
            assert rel_err(float(u), float(v)) < 1e-12


class TestFiniteDifferences:
    @pytest.mark.parametrize(
        "src,x0",
        [("exp(x)", 0.3), ("sin(x)*cos(x)", -0.2), ("1/(2+x)", 0.5), ("sqrt(2+x)", 0.1)],
    )
    def test_low_orders_match_central_differences(self, src, x0):
        ast = parse(src, 1)
        jet = eval_jet1(ast, jet_lift(x0, 2))
        fn = lambda x: eval_scalar(ast, x)
        d1 = central_diff_1(fn, x0)
        d2 = central_diff_2(fn, x0)
        assert rel_err(float(jet.derivative(1)), d1) < 1e-5
        # the difference quotient itself carries eps/h^2 ~ 2e-6 absolute noise
        assert abs(float(jet.derivative(2)) - d2) < 1e-5 * max(1.0, abs(d2))


class TestJetN:
    def test_product_partials(self):
        jn = jetn_partials(parse("y1*y2", 2), (2.0, 3.0), 2)
        partials = jn.partials_map()
        assert partials[(0, 0)] == 6.0
        assert partials[(1, 0)] == 3.0
        assert partials[(0, 1)] == 2.0
        assert partials[(1, 1)] == 1.0
        assert partials[(2, 0)] == 0.0
        assert partials[(0, 2)] == 0.0

    def test_constant(self):
        jn = jetn_partials(parse("5", 2), (0.1, 0.2), 3)
        for ix, v in jn.partials_map().items():
            assert v == (5.0 if sum(ix) == 0 else 0.0)

    def test_exp_first_variable(self):
        jn = jetn_partials(parse("exp(y1)", 2), (0.0, 0.0), 3)
        for ix, v in jn.partials_map().items():
            if ix[1] > 0:
                assert v == 0.0
            else:
                assert v == pytest.approx(1.0, rel=1e-14)

    def test_dim_one_matches_jet1_bitwise(self):
        for src in ("exp(x)*sin(x)", "sqrt(2+x)/(3-x)", "(1+x)^2.5"):
            ast = parse(src, 1)
            for x0 in (-0.5, 0.0, 0.7):
                j1 = eval_jet1(ast, jet_lift(x0, 5))
                jn = jetn_partials(ast, (x0,), 5)
                for i, c in enumerate(j1.coeffs):
                    assert jn.coeff((i,)) == c

    def test_mixed_partials_symmetric_function(self):
        jn = jetn_partials(parse("sin(y1*y2)", 2), (0.5, 0.25), 4)
        p = jn.partials_map()
        # d/dy1 sin(y1 y2) = y2 cos(y1 y2)
        assert p[(1, 0)] == pytest.approx(0.25 * math.cos(0.125), rel=1e-13)
        assert p[(0, 1)] == pytest.approx(0.5 * math.cos(0.125), rel=1e-13)

    def test_division_and_power(self):
        jn = jetn_partials(parse("y1/(1+y2^2)", 2), (2.0, 1.0), 3)
        p = jn.partials_map()
        assert p[(0, 0)] == pytest.approx(1.0)
        assert p[(1, 0)] == pytest.approx(0.5)
        # d/dy2 [2 (1+y2^2)^-1] at y2=1: -2*2y2/(1+y2^2)^2 = -1
        assert p[(0, 1)] == pytest.approx(-1.0, rel=1e-13)

    def test_caps(self):
        with pytest.raises(ResourceLimitError):
            jetn_partials(parse("y1+y2", 2), (0.0, 0.0), 11)

    def test_dimension_cap(self):
        src = "y1+y2+y3+y4+y5+y6+y7"
        ast = parse(src, 7)
        with pytest.raises(ResourceLimitError):
            jetn_partials(ast, (0.0,) * 7, 2)


class TestVectorizedCoefficients:
    def test_array_jets_match_scalar_loop(self):
        ast = parse("exp(x)*sin(x)+x^3", 1)
        xs = np.linspace(-0.9, 0.9, 17)
        batched = eval_jet1(ast, jet_lift(xs, 4))
        for i, x in enumerate(xs):
            single = eval_jet1(ast, jet_lift(float(x), 4))
            for k in range(5):
                assert rel_err(float(np.asarray(batched.coeffs[k])[i]),
                               float(single.coeffs[k])) < 1e-14

    def test_array_jetn(self):
        ast = parse("y1*exp(y2)", 2)
        y1 = np.array([0.5, 1.0, 2.0])
        y2 = np.array([0.0, 0.1, -0.2])
        jn = jetn_partials(ast, (y1, y2), 2)
        p = jn.partials_map()
        assert np.allclose(p[(0, 0)], y1 * np.exp(y2))
        assert np.allclose(p[(1, 1)], np.exp(y2))


class TestArrayOnTheLeft:
    """numpy defers `ndarray (op) jet` to the jet's reflected operator, so an
    array on the left gives the same jet as a constant jet on the left."""

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_matches_jet_on_the_left(self, op):
        xs = np.array([0.1, 0.2, 0.3])
        cs = np.array([2.0, 3.0, 4.0])
        jn = jetn_partials(parse("exp(y1)*y2+1", 2), (xs, xs + 1.0), 2)
        for jet, constant in (
            (jet_lift(xs, 2), Jet1.constant(cs, 2)),
            (jn, JetN.constant(cs, 2, 2)),
        ):
            got, want = op(cs, jet), op(constant, jet)
            assert type(got) is type(jet)
            if isinstance(jet, Jet1):
                pairs = zip(got.coeffs, want.coeffs)
            else:
                assert got.coeffs.keys() == want.coeffs.keys()
                pairs = ((got.coeffs[ix], want.coeffs[ix]) for ix in want.coeffs)
            for a, b in pairs:
                assert np.array_equal(a, b)
