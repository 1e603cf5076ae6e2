import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from compose_approx import minimax
from compose_approx.expr import eval_scalar, parse
from compose_approx.harness import favard_corpus
from compose_approx.minimax import (
    ChebPoly,
    _cheb_basis,
    _cheb_on_grid,
    remez_from_values,
    remez_grid,
    weighted_remez,
)
from compose_approx.weighted import (
    DEFAULT_GRID,
    GridConfig,
    JacobiWeight,
    chebyshev_grid,
    derivative_fn,
    phi_eval,
    weight_eval,
    weighted_sup_norm,
)

from oracles import dense_sup, polish_scalar, rel_err

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
EPS = np.finfo(float).eps

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


@st.composite
def _series_on_grid(draw):
    """(xs, coeffs): a grid of 32..8193 points, pulled ends, and m <= n - 2."""
    n = draw(st.integers(32, 8193))
    m = draw(st.integers(0, n - 2))
    margins = draw(st.sampled_from([(0.0, 0.0), (1e-12, 0.0), (1e-12, 1e-12)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decay = draw(st.floats(0.0, 3.0))
    coeffs = rng.standard_normal(m + 1) / (1.0 + np.arange(m + 1)) ** decay
    return chebyshev_grid(n, *margins), coeffs


class TestGridTransform:
    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(_series_on_grid(), st.integers(0, 2**32 - 1))
    def test_matches_exact_lobatto_sums(self, case, seed):
        # interior: sum_k (-1)^k c_k cos(pi k j / (n-1)), with the angle
        # reduced exactly in integers and the sum taken by fsum
        xs, coeffs = case
        n, m = len(xs), len(coeffs) - 1
        got = _cheb_on_grid(xs, coeffs)
        k = np.arange(m + 1)
        signed = coeffs * (-1.0) ** k
        rows = np.random.default_rng(seed).integers(1, n - 1, size=48)
        tol = 4e-15 * float(np.sum(np.abs(coeffs)))
        for j in rows.tolist():
            angle = np.pi * ((k * j) % (2 * (n - 1))) / (n - 1)
            assert abs(got[j] - math.fsum(signed * np.cos(angle))) <= tol, (n, m, j)
        assert np.array_equal(got[[0, -1]], npcheb.chebval(xs[[0, -1]], coeffs))

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(_series_on_grid())
    def test_matches_clenshaw(self, case):
        # Clenshaw at the rounded abscissae also carries the series' own
        # conditioning near +-1, bounded by |dx| sum k^2 |c_k| (Markov)
        xs, coeffs = case
        k = np.arange(len(coeffs))
        tol = 4e-15 * np.sum(np.abs(coeffs)) + EPS * np.sum(k**2 * np.abs(coeffs))
        diff = np.abs(_cheb_on_grid(xs, coeffs) - npcheb.chebval(xs, coeffs))
        assert float(np.max(diff)) <= tol

    def test_exchange_needs_a_lobatto_grid(self):
        xs = np.linspace(-1.0, 1.0, 257)
        with pytest.raises(ValueError, match="Chebyshev-Lobatto"):
            remez_from_values(xs, np.exp(xs), 4, W0)


class TestChebBasis:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_low_degrees_match_the_recurrence(self, m):
        x = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
        got = _cheb_basis(x, m)
        assert got.shape == (5, m + 1)
        assert np.array_equal(got, npcheb.chebvander(x, m))

    def test_single_point(self):
        got = _cheb_basis(np.array([0.3]), 9)
        k = np.arange(10)
        assert got.shape == (1, 10)
        assert np.all(np.abs(got[0] - np.cos(k * math.acos(0.3))) <= 4 * (k + 1) * EPS)

    def test_ends_are_exact(self):
        # 2 T_K T_j - T_(K-j) is exact at +-1, so no rounding ever enters there
        got = _cheb_basis(np.array([1.0, -1.0]), 1000)
        assert np.array_equal(got[0], np.ones(1001))
        assert np.array_equal(got[1], (-1.0) ** np.arange(1001))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8), st.integers(0, 500))
    def test_matches_chebvander(self, xs, m):
        # each doubling step can scale an earlier rounding error by up to
        # 2|T_K| + 2|T_j| + 1, so column k drifts like k^2 eps, not k eps:
        # measured at most 0.22 k (k+1) eps for k <= 500, near 0 and +-1
        x = np.array(xs)
        k = np.arange(m + 1)
        diff = np.abs(_cheb_basis(x, m) - npcheb.chebvander(x, m))
        assert np.all(diff <= (k + 1) * (4 + k / 2) * EPS)

    def test_decaying_series_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(18)
        xs = np.concatenate([rng.uniform(-1.0, 1.0, 6), [3e-4, -1e-5, 1 - 1e-7, -1 + 1e-9]])
        with mpmath.workdps(40):
            for m in (8, 50, 200, 500):
                c = rng.standard_normal(m + 1) / (1.0 + np.arange(m + 1)) ** 2
                got = _cheb_basis(xs, m) @ c
                for x, value in zip(xs.tolist(), got.tolist()):
                    angle = mpmath.acos(x)
                    exact = mpmath.fsum(ck * mpmath.cos(k * angle) for k, ck in enumerate(c.tolist()))
                    assert abs(value - float(exact)) <= 8 * EPS * float(np.sum(np.abs(c))), (m, x)


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
            # interpolant at the Chebyshev points of the first kind
            p = ChebPoly(tuple(npcheb.chebinterpolate(f, m)))
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
        rep = weighted_remez(lambda x: (1 + x) ** 1.5, 40, W0, GridConfig(max_iter=1))
        assert not rep.converged
        assert rep.error > 0  # best-so-far, not a silent wrong answer


class TestPolish:
    WEIGHTS = (W0, JacobiWeight(0.5, 0.25), JacobiWeight(0.0, 0.75))

    def test_batched_polish_matches_scalar_polish(self, monkeypatch):
        cases = [(src, f) for src, f, _ in favard_corpus()]
        batched, scalar = [], []
        for polish, out in ((minimax._polish, batched), (polish_scalar, scalar)):
            monkeypatch.setattr(minimax, "_polish", polish)
            for _, f in cases:
                for w in self.WEIGHTS:
                    for m in (8, 24, 40):
                        out.append(weighted_remez(lambda x: eval_scalar(f, x), m, w))
        for a, b in zip(batched, scalar):
            # the solver's absolute noise floor; |f u| <= 2^2.5 on the corpus
            noise = 16.0 * EPS * 2.0**2.5
            assert abs(a.error - b.error) <= noise
            assert abs(a.leveled_error - b.leveled_error) <= noise
            assert a.converged and b.converged

    def test_converged_means_the_printed_bracket(self, monkeypatch):
        # one polish round relocates the references but cannot level them: the
        # grid verdict must not survive a polished bracket wider than --tol
        monkeypatch.setattr(minimax, "POLISH_MAX_ITER", 1)
        tol = DEFAULT_GRID.rel_tol
        for src in ("(1+x)^1.5", "1/(2+x)", "exp(x)"):
            f = parse(src, 1)
            for w in (W0, JacobiWeight(0.5, 0.25)):
                rep = weighted_remez(lambda x: eval_scalar(f, x), 8, w)
                assert rep.error - rep.leveled_error > tol * rep.error
                assert not rep.converged, (src, w)

    @pytest.mark.parametrize("src", ["(1+x)^1.5", "1/(2+x)", "exp(x)"])
    def test_converged_bracket_within_tol(self, src):
        f = parse(src, 1)
        for m in (8, 24):
            rep = weighted_remez(lambda x: eval_scalar(f, x), m, JacobiWeight(0.5, 0.25))
            assert rep.converged
            assert rep.error - rep.leveled_error <= max(1e-10 * rep.error, 1e-13)


# (m, gamma, delta) of (1+x)^2.5 whose exchange stalls at iteration 1: the
# initial reference includes an end where the weight vanishes, which pins h
# near 1e-16, and the grid residual then has fewer than m+2 sign runs. From
# there the off-grid polish levels some of them and loses alternation on the
# rest. Rounding decides which (h is below an ulp of f), so a change to the
# alternation or residual arithmetic moves cases between the two lists.
STALLED_START = [(m, 0.0, 0.75) for m in (29, 30, 31, 32, 35, 36, 42, 51, 52)]
STALLED_START += [(m, 0.75, 0.0) for m in (47, 52)]
RESCUED_START = [(m, 0.0, 0.75) for m in (44, 46, 50)]
RESCUED_START += [(m, 0.75, 0.0) for m in (36, 42, 44, 46, 48, 53)]


@pytest.mark.xfail(strict=True, reason="initial reference at a vanishing end of the weight")
@pytest.mark.parametrize("m, gamma, delta", STALLED_START)
def test_stalled_start_converges(m, gamma, delta):
    f = parse("(1+x)^2.5", 1)
    rep = weighted_remez(lambda x: eval_scalar(f, x), m, JacobiWeight(gamma, delta))
    assert rep.converged


@pytest.mark.parametrize("m, gamma, delta", RESCUED_START)
def test_rescued_start_is_certified(m, gamma, delta):
    # the printed error is the weighted residual's maximum: a dense scan of the
    # report's own polynomial finds it to within the solver's noise floor
    f, w = parse("(1+x)^2.5", 1), JacobiWeight(gamma, delta)
    rep = weighted_remez(lambda x: eval_scalar(f, x), m, w)
    assert rep.converged
    xs = -np.cos(np.pi * np.arange(200_001) / 200_000)
    scan = float(np.max(np.abs((eval_scalar(f, xs) - rep.poly(xs)) * weight_eval(w, xs))))
    assert abs(scan - rep.error) <= 16.0 * EPS * 2.0**2.5


class TestFavardRhs:
    """||f^(r) phi^r u|| / m^r, the smoothness side of the Favard bound, as a
    weighted sup norm of `derivative_fn`."""

    @staticmethod
    def rhs(src, r, m, w):
        return weighted_sup_norm(derivative_fn(parse(src, 1), r), w, r).value / m**r

    def test_vanishing_high_derivative(self):
        assert self.rhs("x^2-3*x", 3, 5, W0) == 0.0

    def test_exp_first_order(self):
        oracle = dense_sup(np.exp, phi_eval) / 10.0
        assert rel_err(self.rhs("exp(x)", 1, 10, W0), oracle) < 1e-8

    def test_homogeneity(self):
        base = self.rhs("exp(x)", 2, 12, WH)
        assert rel_err(self.rhs("-2.5*exp(x)", 2, 12, WH), 2.5 * base) < 1e-12


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
