"""The compiled Faà di Bruno expansion against the term-by-term loop.

The loop in `oracles.composite_derivative_loop` enumerates partition vectors
and composition matrices itself and adds the terms with Kahan compensation in
the same order, so the two must agree bit for bit: on scalars, on arrays
(up to 65,537 points, which takes several blocks of points), and on entries
that mix both. Array entries are read-only, so the evaluation may share but
never write them.
"""

import tracemalloc

import numpy as np
import pytest

from compose_approx.faadibruno import (
    _BLOCK_ENTRIES,
    compile_expansion,
    composite_derivative_nd,
)
from compose_approx.jets import multi_indices

from oracles import composite_derivative_loop

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _entry(rng, kind: str, points: int):
    if kind == "mixed":
        kind = ("float", "float64", "array")[rng.integers(3)]
    value = rng.choice([0.0, 1.0, -2.0, rng.uniform(-3, 3), rng.uniform(-1e3, 1e3)])
    if kind == "float":
        return float(value)
    if kind == "float64":
        return np.float64(value)
    out = rng.uniform(-3, 3, points)
    out[rng.random(points) < 0.2] = 0.0
    out.flags.writeable = False
    return out


def _arrays(r, n, points):
    rng = np.random.default_rng(0)
    f_partials = {ix: _entry(rng, "array", points) for ix in multi_indices(n, r)}
    g_derivs = [[_entry(rng, "array", points) for _ in range(r + 1)] for _ in range(n)]
    return f_partials, g_derivs


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    st.integers(1, 8),
    st.integers(1, 3),
    st.sampled_from(("float", "array", "mixed")),
    st.sampled_from((1, 7, 700, 20000)),
    st.integers(0, 2**32 - 1),
)
def test_compiled_matches_loop(r, n, kind, points, seed):
    rng = np.random.default_rng(seed)
    f_partials = {ix: _entry(rng, kind, points) for ix in multi_indices(n, r)}
    g_derivs = [[_entry(rng, kind, points) for _ in range(r + 1)] for _ in range(n)]
    got = composite_derivative_nd(f_partials, g_derivs, r, n)
    want = composite_derivative_loop(f_partials, g_derivs, r, n)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(got, want)


def test_constant_partials_next_to_array_inner_derivatives():
    r, n = 5, 2
    xs = np.linspace(-0.9, 0.9, 5000)  # several blocks of points
    f_partials = {ix: float(sum(ix) + 1) for ix in multi_indices(n, r)}
    g_derivs = [[np.sin(xs + i + j) for i in range(r + 1)] for j in range(n)]
    got = composite_derivative_nd(f_partials, g_derivs, r, n)
    assert got.shape == xs.shape
    np.testing.assert_array_equal(got, composite_derivative_loop(f_partials, g_derivs, r, n))


def test_grid_shape_is_kept():
    grid = np.linspace(-1, 1, 12).reshape(3, 4)
    f_partials = {ix: 1.5 for ix in multi_indices(2, 3)}
    g_derivs = [[grid * (i + 1) for i in range(4)], [0.5, grid[0], 2.0, grid]]
    got = composite_derivative_nd(f_partials, g_derivs, 3, 2)
    assert got.shape == (3, 4)
    np.testing.assert_array_equal(got, composite_derivative_loop(f_partials, g_derivs, 3, 2))


def test_many_blocks_match_loop():
    r, n, points = 8, 3, 65537
    assert points * len(compile_expansion(r, n).powers) > 4 * _BLOCK_ENTRIES
    f_partials, g_derivs = _arrays(r, n, points)
    got = composite_derivative_nd(f_partials, g_derivs, r, n)
    np.testing.assert_array_equal(got, composite_derivative_loop(f_partials, g_derivs, r, n))


def test_memory_is_about_one_power_table():
    # A (terms, points) matrix at (3, 8) on 4,097 points would take 26 MB;
    # the power table of its 36 powers with q > 1 takes 1.2 MB.
    r, n = 8, 3
    compile_expansion(r, n)
    f_partials, g_derivs = _arrays(r, n, 4097)
    tracemalloc.start()
    try:
        composite_derivative_nd(f_partials, g_derivs, r, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
