import math
import random

import numpy as np
import pytest

from compose_approx.combinatorics import bell_number, incomplete_bell
from compose_approx.errors import ResourceLimitError
from compose_approx.expr import eval_expr, eval_jet1, parse
from compose_approx.faadibruno import (
    compile_expansion,
    composite_derivative_1d,
    composite_derivative_nd,
    composite_jet,
)
from compose_approx.jets import jet_lift

from oracles import composite_derivative_loop, rel_err

EXP_SIN_F = [1.0, 1.0, 1.0, 1.0]  # exp derivatives at sin(0) = 0
EXP_SIN_G = [0.0, 1.0, 0.0, -1.0]  # sin derivatives at 0


class TestUnivariate:
    def test_chain_rule(self):
        assert composite_derivative_1d([0.0, 2.0], [0.0, 3.0], 1) == 6.0

    def test_exp_sin_second(self):
        assert composite_derivative_1d(EXP_SIN_F[:3], EXP_SIN_G[:3], 2) == 1.0

    def test_exp_sin_third(self):
        assert composite_derivative_1d(EXP_SIN_F, EXP_SIN_G, 3) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            composite_derivative_1d([1.0, 1.0], [0.0, 1.0, 0.0], 2)

    def test_partition_and_bell_forms_agree(self):
        # the Bell form: sum over k of f^(k) B_{r,k}(g', ..., g^(r-k+1))
        rng = random.Random(7)
        for r in range(1, 11):
            f = [rng.uniform(-2, 2) for _ in range(r + 1)]
            g = [rng.uniform(-2, 2) for _ in range(r + 1)]
            a = composite_derivative_1d(f, g, r)
            b = math.fsum(
                f[k] * incomplete_bell(r, k, g[1 : r - k + 2]) for k in range(1, r + 1)
            )
            assert rel_err(a, b) < 1e-12

    def test_bell_number_identity(self):
        # with all outer and inner derivatives 1, the expansion counts set
        # partitions
        for r in range(1, 13):
            f = [1.0] * (r + 1)
            g = [0.0] + [1.0] * r
            value = composite_derivative_1d(f, g, r)
            assert rel_err(value, float(bell_number(r))) < 1e-10


class TestMultivariate:
    def test_chain_rule_two_vars(self):
        partials = {(0, 0): 99.0, (1, 0): 3.0, (0, 1): 2.0}
        assert composite_derivative_nd(partials, [[0.0, 1.0], [0.0, 2.0]], 1, 2) == 7.0

    def test_product_of_powers(self):
        # f = y1*y2, g = (x, x^2) at x0=1: composite is x^3, second derivative 6
        partials = {
            (0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0,
            (2, 0): 0.0, (1, 1): 1.0, (0, 2): 0.0,
        }
        g = [[1.0, 1.0, 0.0], [1.0, 2.0, 2.0]]
        assert composite_derivative_nd(partials, g, 2, 2) == 6.0

    def test_reduction_to_univariate_is_bitwise(self):
        rng = random.Random(21)
        for _ in range(200):
            r = rng.randint(1, 10)
            f = [rng.uniform(-3, 3) for _ in range(r + 1)]
            g = [rng.uniform(-3, 3) for _ in range(r + 1)]
            a = composite_derivative_1d(f, g, r)
            b = composite_derivative_loop({(k,): f[k] for k in range(r + 1)}, [g], r, 1)
            assert a == b

    def test_missing_partial_names_index(self):
        partials = {(0, 0): 1.0, (1, 0): 1.0}  # (0, 1) absent
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            composite_derivative_nd(partials, [[0.0, 1.0], [0.0, 1.0]], 1, 2)

    def test_inner_length_checked(self):
        with pytest.raises(ValueError, match="inner sequence"):
            composite_derivative_nd({(0,): 1.0, (1,): 1.0}, [[0.0]], 1, 1)


class TestCompositeJet:
    def test_identity(self):
        got = composite_jet(parse("y1", 1, ["y1"]), [parse("x", 1)], 0.7, 3)
        assert got == pytest.approx([0.7, 1.0, 0.0, 0.0])

    def test_cubic(self):
        got = composite_jet(
            parse("y1*y2", 2), [parse("x", 1), parse("x^2", 1)], 1.0, 3
        )
        assert got == pytest.approx([1.0, 3.0, 6.0, 6.0])

    def test_exp_sin(self):
        got = composite_jet(parse("exp(y1)", 1, ["y1"]), [parse("sin(x)", 1)], 0.0, 3)
        assert np.allclose(got, [1.0, 1.0, 1.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("shape", [(0,), (0, 2)])
    def test_empty_grid(self, shape):
        f = parse("exp(y1)*y2", 2, ["y1", "y2"])
        got = composite_jet(f, [parse("sin(x)", 1), parse("cos(x)", 1)], np.empty(shape), 3)
        assert len(got) == 4
        assert all(d.shape == shape for d in got)

    def test_against_jet_oracle_random_pairs(self):
        # formula path (partition/composition enumeration) vs jet composition
        rng = random.Random(42)
        outer_pool = {
            1: ["exp(y1/4)", "sin(y1)+y1^2", "1/(5+y1)", "cos(y1)"],
            2: ["y1*y2", "exp((y1+y2)/8)", "y1^2-y2^2+1", "sin(y1)*cos(y2)"],
            3: ["y1*y2*y3", "exp(y1/8)+y2*y3", "y1^2+y2^2+y3^2"],
        }
        inner_pool = ["sin(x)", "cos(x)", "x^2/2", "exp(x/4)", "1/(3+x)", "x-x^3/6"]
        for _ in range(15):
            n = rng.choice([1, 2, 3])
            f = parse(rng.choice(outer_pool[n]), n, [f"y{j + 1}" for j in range(n)])
            gs = [parse(rng.choice(inner_pool), 1) for _ in range(n)]
            x0 = rng.uniform(-0.8, 0.8)
            r = rng.randint(1, 6)
            formula = composite_jet(f, gs, x0, r)
            inner_jets = [eval_jet1(g_j, jet_lift(x0, r)) for g_j in gs]
            oracle = eval_expr(f, inner_jets).derivatives()
            for a, b in zip(formula, oracle):
                a, b = float(a), float(b)
                if max(abs(a), abs(b)) < 1e-6:
                    assert abs(a - b) < 1e-12
                else:
                    assert rel_err(a, b) < 1e-9


class TestCompiledExpansion:
    def test_table_arrays_are_read_only(self):
        table = compile_expansion(4, 2)
        for arr in (table.coeffs, table.partial_of, table.factors, table.powers):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_cache_is_bounded_and_reused(self):
        assert compile_expansion.cache_info().maxsize is not None
        assert compile_expansion(5, 3) is compile_expansion(5, 3)

    def test_table_layout(self):
        # r = 2, n = 1: f' g'' (k = (0, 1)) + f'' g'^2 (k = (2, 0))
        table = compile_expansion(2, 1)
        assert table.partials == ((1,), (2,))
        assert table.coeffs.tolist() == [1.0, 1.0]
        assert table.powers.tolist() == [[0, 0, 0], [2, 0, 1], [1, 0, 2]]
        assert table.factors.tolist() == [[1], [2]]

    def test_term_cap_checked_before_enumeration(self):
        # p(20) = 627 partition vectors, but the matrices number in the
        # hundreds of millions: the count is rejected before any is built
        with pytest.raises(ResourceLimitError, match="max_matrices"):
            compile_expansion(20, 40)


class TestOrderRange:
    def test_start_keeps_the_top_orders(self):
        f = parse("exp(y1/8)+y2*y3", 3, ["y1", "y2", "y3"])
        g = [parse(s, 1) for s in ("sin(x)", "1/(3+x)", "cos(x)")]
        xs = np.linspace(-0.9, 0.9, 5)
        for x0 in (0.3, xs):
            full = composite_jet(f, g, x0, 6)
            for start in (0, 1, 4, 6):
                tail = composite_jet(f, g, x0, 6, start=start)
                assert len(tail) == 7 - start
                for a, b in zip(tail, full[start:]):
                    np.testing.assert_array_equal(a, b)

    def test_start_out_of_range(self):
        with pytest.raises(ValueError, match="start"):
            composite_jet(parse("y1", 1, ["y1"]), [parse("x", 1)], 0.1, 2, start=3)
