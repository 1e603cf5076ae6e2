"""The vectorised candidate scans against their one-sample-at-a-time loops.

Arrays are drawn from a few repeated magnitudes so that zeros, ties with a
neighbour, plateaus and runs of one sign all occur often.
"""

import numpy as np
import pytest

from compose_approx.minimax import _extrema_candidates
from compose_approx.weighted import _peak_candidates

from oracles import extrema_candidates_loop, peak_candidates_loop

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

LEVELS = (0.0, 0.5, 1.0, 1.0, 2.0, 3.5)

magnitudes = st.lists(st.sampled_from(LEVELS), min_size=1, max_size=60)
signed = st.lists(
    st.sampled_from(LEVELS + tuple(-v for v in LEVELS)), min_size=0, max_size=60
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(magnitudes, st.sampled_from((0.0, 0.9, 1.0, 2.0, 3.5, 4.0)))
def test_peak_candidates_match_loop(vals, cutoff):
    arr = np.array(vals)
    got = _peak_candidates(arr, cutoff)
    assert got.tolist() == peak_candidates_loop(arr, cutoff)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(signed)
def test_extrema_candidates_match_loop(vals):
    arr = np.array(vals, dtype=float)
    got = _extrema_candidates(arr)
    assert got == extrema_candidates_loop(arr)
    assert all(type(i) is int for i in got)


def test_scans_on_a_plateau():
    flat = np.ones(9)
    assert _peak_candidates(flat, 0.5).tolist() == list(range(9))
    assert _extrema_candidates(np.array([0.0, 1.0, 1.0, 0.0, -2.0, -2.0])) == [1, 4]
