import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compose_approx.errors import EvalDomainError
from compose_approx.expr import parse
from compose_approx.harness import (
    degree_ladder,
    favard_corpus,
    lemma_corpus,
    lemma_weights,
    measured_box,
    rate_case,
    report_basename,
    select_exponents,
    verify_composite_bound,
    verify_lemma,
    verify_rate,
    write_json_report,
    write_rate_csv,
)
from compose_approx.weighted import GridConfig, JacobiWeight

from oracles import rel_err

W0 = JacobiWeight(0.0, 0.0)
FAST_GRID = GridConfig(points=1025)


class TestSelectExponents:
    def test_below_threshold(self):
        assert select_exponents([0.5], 3).exponents == (0,)

    def test_above_threshold(self):
        assert select_exponents([2.0], 3).exponents == (3,)

    def test_boundary_and_mixed(self):
        assert select_exponents([1.0, 1.5], 2).exponents == (0, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            select_exponents([-0.1], 2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=6),
    )
    def test_rule_properties(self, norms, r):
        sel = select_exponents(norms, r)
        assert all(s in (0, r) for s in sel.exponents)
        for norm, s in zip(sel.norms, sel.exponents):
            assert s == (0 if norm <= 1.0 else r)
        assert sel.norm_product >= 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=20, allow_nan=False), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=1.0, max_value=10.0),
    )
    def test_scale_consistency(self, norms, r, c):
        # exponents depend only on the comparison with 1
        base = select_exponents(norms, r)
        pushed = select_exponents([max(v, 1.0000001) * c for v in norms], r)
        assert all(s == r for s in pushed.exponents)
        assert base.norm_product >= 1.0

    def test_unit_margin_recorded(self):
        sel = select_exponents([1.0 + 1e-9, 2.0], 2)
        margins = sel.unit_margins()
        assert len(margins) == 1 and margins[0]["j"] == 1


class TestVerifyLemma:
    def test_constant_function(self):
        chk = verify_lemma(parse("3", 1), 3, 1, W0, FAST_GRID)
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)
        assert chk.holds

    def test_exponential(self):
        chk = verify_lemma(parse("exp(x)", 1), 2, 1, W0, FAST_GRID)
        assert chk.holds
        assert 0 < chk.ratio < 1

    def test_singular_with_weight(self):
        chk = verify_lemma(
            parse("(1+x)^2.5", 1), 2, 1, JacobiWeight(0.5, 0.5), FAST_GRID
        )
        assert chk.holds

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            verify_lemma(parse("x", 1), 2, 2, W0)

    def test_weight_guard(self):
        with pytest.raises(ValueError):
            verify_lemma(parse("x", 1), 2, 1, JacobiWeight(1.0, 0.0))

    def test_corpus_and_weights_shapes(self):
        assert len(lemma_corpus()) == 10
        assert len(lemma_weights()) == 16

    def test_corpus_slice_holds(self):
        (_, f), (_, g) = lemma_corpus()[0], lemma_corpus()[7]
        for expr in (f, g):
            for w in (W0, JacobiWeight(0.75, 0.25)):
                chk = verify_lemma(expr, 5, 2, w, FAST_GRID)
                assert chk.holds


class TestVerifyComposite:
    def test_identity_composite(self):
        chk = verify_composite_bound(
            parse("y1", 1, ["y1"]), [parse("x", 1)], 2, W0, FAST_GRID
        )
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)

    def test_product_case_hand_value(self):
        chk = verify_composite_bound(
            parse("y1*y2", 2), [parse("x", 1), parse("x^2", 1)], 2, W0, FAST_GRID
        )
        # composite x^3 has second derivative 6x; sup of |6x| phi^2 is 4/sqrt(3)
        assert chk.lhs == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-9)
        assert chk.bell == 2
        assert chk.exponents == (0, 2)
        assert chk.ratio <= 1.0
        assert chk.rhs_sans_c == pytest.approx(
            2.0**2 * 2 * chk.f_norm * chk.g_norms[1] ** 2, rel=1e-12
        )

    def test_scaling_of_norm_product(self):
        g1 = parse("3*exp(x)", 1)
        g1_scaled = parse("6*exp(x)", 1)
        g2 = parse("2+x", 1)
        f = parse("y1+y2", 2)
        a = verify_composite_bound(f, [g1, g2], 2, W0, FAST_GRID)
        b = verify_composite_bound(f, [g1_scaled, g2], 2, W0, FAST_GRID)
        assert a.exponents == (2, 2) and b.exponents == (2, 2)
        got = (b.g_norms[0] / a.g_norms[0]) ** 2
        product_ratio = (b.rhs_sans_c / b.f_norm) / (a.rhs_sans_c / a.f_norm)
        assert rel_err(product_ratio, got) < 1e-12

    def test_box_escape_raises(self):
        with pytest.raises(EvalDomainError, match="box"):
            verify_composite_bound(
                parse("y1", 1, ["y1"]),
                [parse("2*x", 1)],
                2,
                W0,
                FAST_GRID,
                box=[(-1.0, 1.0)],
            )

    @pytest.mark.parametrize(
        "box, message",
        [
            ([(-2.0, 2.0), (-3.0, 3.0)], "2 axes for 1 inner"),
            ([(-2.0, 2.0, 5.0)], "lo:hi"),
            ([(-2.0, math.nan)], "finite"),
            ([(-math.inf, 2.0)], "finite"),
            ([(2.0, -2.0)], "lo < hi"),
        ],
        ids=["count", "three-ends", "nan", "inf", "reversed"],
    )
    def test_malformed_box_rejected(self, box, message):
        with pytest.raises(ValueError, match=message):
            verify_composite_bound(
                parse("y1", 1, ["y1"]), [parse("x", 1)], 2, W0, FAST_GRID, box=box
            )

    def test_measured_box_covers_image(self):
        xs = np.linspace(-1, 1, 1001)
        box = measured_box([parse("x^2", 1)], xs)
        (lo, hi), = box
        assert lo < 0 < 1 < hi

    def test_ratio_finite_and_reported_across_cases(self):
        cases = [
            (parse("exp(y1)", 1, ["y1"]), [parse("sin(x)", 1)], 3),
            (parse("y1*y2", 2), [parse("x", 1), parse("x^2", 1)], 2),
            (
                parse("y1+y2*y3", 3),
                [parse("sin(x)", 1), parse("cos(x)", 1), parse("x^2/2", 1)],
                2,
            ),
        ]
        for f, gs, r in cases:
            chk = verify_composite_bound(f, gs, r, W0, FAST_GRID)
            assert math.isfinite(chk.ratio)
            assert chk.ratio >= 0
            assert "ratio" in chk.to_dict()


class TestVerifyRate:
    def test_polynomial_composite_flagged_at_floor(self):
        rep = verify_rate(
            parse("y1", 1, ["y1"]),
            [parse("x^2+x", 1)],
            1,
            W0,
            [2, 3, 4, 5],
            FAST_GRID,
        )
        assert all(rep.at_noise_floor)
        assert all(e >= 0 for e in rep.errors)
        assert math.isnan(rep.slope)

    def test_rate_slope_for_singular_inner(self):
        case = rate_case()
        rep = verify_rate(
            case["f"], case["g"], case["r"], case["w"],
            [8, 12, 16, 24, 32], FAST_GRID, case="smoke",
        )
        assert rep.slope <= -2.85
        assert math.isfinite(rep.ratio_sup)
        assert rep.bell == 5
        assert rep.exponents == (3,)

    def test_exact_smoothness_slope_matches_order(self):
        # inner function with exactly third-order smoothness: the measured
        # decay must reach the guaranteed m^-3 rate
        rep = verify_rate(
            parse("y1", 1, ["y1"]),
            [parse("(1+x)^1.5", 1)],
            3,
            W0,
            degree_ladder(4, 64),
            FAST_GRID,
        )
        assert rep.slope <= -3 + 0.15
        assert math.isfinite(rep.ratio_sup)

    def test_degree_list_validation(self):
        f, g = parse("y1", 1, ["y1"]), [parse("x", 1)]
        with pytest.raises(ValueError):
            verify_rate(f, g, 2, W0, [5, 5], FAST_GRID)
        with pytest.raises(ValueError):
            verify_rate(f, g, 3, W0, [2, 4], FAST_GRID)

    def test_report_serialization_deterministic(self, tmp_path):
        case = rate_case()
        kwargs = dict(grid=FAST_GRID, case="det", seed=11)
        rep1 = verify_rate(case["f"], case["g"], 3, case["w"], [8, 12, 16], **kwargs)
        rep2 = verify_rate(case["f"], case["g"], 3, case["w"], [8, 12, 16], **kwargs)
        p1 = write_json_report(rep1.to_dict(), tmp_path / "a.json")
        p2 = write_json_report(rep2.to_dict(), tmp_path / "b.json")
        assert p1.read_bytes() == p2.read_bytes()
        assert rep1.seed == 11

    def test_csv_columns(self, tmp_path):
        case = rate_case()
        rep = verify_rate(
            case["f"], case["g"], 3, case["w"], [8, 12], FAST_GRID,
        )
        path = write_rate_csv(rep, tmp_path / "r.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,error,bound"
        assert len(lines) == 3
        m, err, bound = lines[1].split(",")
        assert int(m) == 8
        assert float(bound) == pytest.approx(rep.bound_rhs / 8**3)


class TestCorpusAndHelpers:
    def test_favard_corpus_shape(self):
        corpus = favard_corpus()
        assert len(corpus) == 5
        assert all(max_r >= 3 for _, _, max_r in corpus)

    def test_degree_ladder(self):
        ladder = degree_ladder(3, 200)
        assert ladder[0] == 3 and ladder[-1] == 200
        assert all(b > a for a, b in zip(ladder, ladder[1:]))
        assert set(range(3, 41)) <= set(ladder)

    def test_basename(self):
        assert report_basename("demo", 3, 0.5, 0.0) == "demo-3-0.5-0"
