import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compose_approx.combinatorics import (
    DEFAULT_MAX_ORDER,
    CompositionMatrix,
    PartitionVector,
    _bell_terms,
    bell_number,
    enumerate_composition_matrices,
    enumerate_partition_vectors,
    incomplete_bell,
    incomplete_bell_ones,
    multinomial,
)
from compose_approx.errors import ResourceLimitError

from oracles import (
    bell_count,
    bell_terms_filtered,
    partition_count_brute,
    set_partition_count_enum,
    stirling_by_partition_sum,
)


class TestPartitionVectors:
    def test_order_one(self):
        assert [p.counts for p in enumerate_partition_vectors(1)] == [(1,)]

    def test_order_three(self):
        got = {p.counts for p in enumerate_partition_vectors(3)}
        assert got == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}

    def test_order_five_length(self):
        assert len(enumerate_partition_vectors(5)) == 7

    def test_lexicographic_and_valid(self):
        for r in range(1, 10):
            pvs = enumerate_partition_vectors(r)
            counts = [p.counts for p in pvs]
            assert counts == sorted(counts)
            assert len(set(counts)) == len(counts)
            for p in pvs:
                assert sum(i * k for i, k in enumerate(p.counts, 1)) == r
                assert 1 <= p.block_count <= r

    def test_counts_match_partition_function(self):
        for r in range(1, 13):
            assert len(enumerate_partition_vectors(r)) == partition_count_brute(r)

    def test_cap(self):
        with pytest.raises(ResourceLimitError, match="max_order"):
            enumerate_partition_vectors(65)

    def test_invalid_vector_rejected(self):
        with pytest.raises(ValueError):
            PartitionVector((2, 1))  # 2*1 + 1*2 = 4 != 2


class TestCompositionMatrices:
    def test_unit_row_split(self):
        p = PartitionVector((1,))
        rows = [c.rows for c in enumerate_composition_matrices(p, 2)]
        assert rows == [((0, 1),), ((1, 0),)]

    def test_two_zero_row(self):
        p = PartitionVector((2, 0))
        mats = enumerate_composition_matrices(p, 2)
        assert len(mats) == 3
        assert {m.rows[0] for m in mats} == {(2, 0), (1, 1), (0, 2)}
        assert all(m.rows[1] == (0, 0) for m in mats)

    def test_n_one_forced(self):
        for r in range(1, 7):
            for p in enumerate_partition_vectors(r):
                mats = enumerate_composition_matrices(p, 1)
                assert len(mats) == 1
                assert mats[0].rows == tuple((k,) for k in p.counts)

    def test_family_size_formula(self):
        for r in range(1, 7):
            for p in enumerate_partition_vectors(r):
                for n in (2, 3, 4):
                    expected = math.prod(
                        math.comb(k + n - 1, n - 1) for k in p.counts
                    )
                    assert len(enumerate_composition_matrices(p, n)) == expected

    def test_column_sums(self):
        p = PartitionVector((1, 2, 0, 0, 0))  # r = 5, k = 3
        for m in enumerate_composition_matrices(p, 3):
            assert sum(m.column_sums) == p.block_count

    def test_cap(self):
        p = PartitionVector((40,) + (0,) * 39)  # k_1 = 40, r = 40
        with pytest.raises(ResourceLimitError, match="max_matrices"):
            enumerate_composition_matrices(p, 10)  # C(49, 9) ~ 2e9 matrices

    def test_bad_rows_rejected(self):
        p = PartitionVector((2, 0))
        with pytest.raises(ValueError):
            CompositionMatrix(p, ((1, 0), (0, 0)))  # row 1 sums to 1, not 2


class TestIncompleteBell:
    def test_single_block(self):
        # B_{r,1} picks out the top argument with coefficient 1
        assert incomplete_bell(3, 1, [2.0, -7.0, 11.5]) == 11.5

    def test_three_two(self):
        assert incomplete_bell(3, 2, [2.0, 5.0]) == 30.0

    def test_stirling_value(self):
        assert incomplete_bell(4, 2, [1.0, 1.0, 1.0]) == 7.0

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="arguments"):
            incomplete_bell(4, 2, [1.0, 1.0])

    def test_all_ones_counts_set_partitions(self):
        for r in range(1, 10):
            for k in range(1, r + 1):
                assert incomplete_bell_ones(r, k) == set_partition_count_enum(r, k)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=-4, max_value=4, allow_nan=False),
        st.data(),
    )
    def test_homogeneity(self, r, c, data):
        k = data.draw(st.integers(min_value=1, max_value=r))
        x = data.draw(
            st.lists(
                st.floats(min_value=-3, max_value=3, allow_nan=False),
                min_size=r - k + 1,
                max_size=r - k + 1,
            )
        )
        scaled = incomplete_bell(r, k, [c * v for v in x])
        direct = (c**k) * incomplete_bell(r, k, x)
        assert abs(scaled - direct) <= 1e-12 * max(1.0, abs(scaled), abs(direct))


class TestBellTerms:
    def test_match_filtered_enumeration(self):
        for r in range(1, 21):
            for k in range(1, r + 1):
                assert list(_bell_terms(r, k)) == bell_terms_filtered(r, k)

    def test_cap_checked_before_the_first_term(self):
        with pytest.raises(ResourceLimitError):
            _bell_terms(DEFAULT_MAX_ORDER + 1, 3)


class TestBellNumbers:
    def test_small_values(self):
        assert bell_number(1) == 1
        assert bell_number(3) == 5
        assert bell_number(4) == 15

    def test_sum_identity_exact(self):
        for r in range(1, 13):
            assert sum(incomplete_bell_ones(r, k) for k in range(1, r + 1)) == bell_number(r)

    def test_against_count_oracle(self):
        for r in range(1, 13):
            assert bell_number(r) == bell_count(r)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            bell_number(65)

    def test_recurrences_match_partition_sums(self):
        for r in range(1, 21):
            stirling = [stirling_by_partition_sum(r, k) for k in range(1, r + 1)]
            assert [incomplete_bell_ones(r, k) for k in range(1, r + 1)] == stirling
            assert bell_number(r) == sum(stirling)

    def test_largest_allowed_order_is_fast(self):
        t0 = time.perf_counter()
        value = bell_number(DEFAULT_MAX_ORDER)
        assert time.perf_counter() - t0 < 0.25
        assert value == bell_count(DEFAULT_MAX_ORDER)


class TestMultinomial:
    def test_empty(self):
        assert multinomial(0, ()) == 1

    def test_pair(self):
        assert multinomial(2, (1, 1)) == 2

    def test_four(self):
        assert multinomial(4, (2, 1, 1)) == 12

    def test_mismatch(self):
        with pytest.raises(ValueError, match="sum"):
            multinomial(4, (2, 1))

    def test_composition_identity(self):
        # sum over a composition family of multinomial products is n^k
        for r in range(1, 7):
            for p in enumerate_partition_vectors(r):
                for n in (1, 2, 3, 4):
                    total = 0
                    for mat in enumerate_composition_matrices(p, n):
                        prod = 1
                        for k_i, row in zip(p.counts, mat.rows):
                            prod *= multinomial(k_i, row)
                        total += prod
                    assert total == n**p.block_count
