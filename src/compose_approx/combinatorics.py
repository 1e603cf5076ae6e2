"""Exact integer combinatorics for derivative expansions of composite functions.

Everything here is exact: partition vectors and composition matrices are
enumerated as integer tuples, and the coefficients of incomplete exponential
Bell polynomials are computed with big-integer arithmetic (r! overflows 64-bit
machine words already at r=21). Floating point enters only when a Bell
polynomial is evaluated at real arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import ResourceLimitError

# Enumeration is exponential in the order; these caps keep worst-case runs at
# desk scale.
DEFAULT_MAX_ORDER = 64
DEFAULT_MAX_MATRICES = 10_000_000


@dataclass(frozen=True)
class PartitionVector:
    """Multiplicity vector (k_1, ..., k_r) with sum(i * k_i) == r.

    Entry k_i counts the blocks of size i in a partition of an r-element set,
    so the derived block count k = sum(k_i) always lies in 1..r.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        r = len(self.counts)
        if r == 0:
            raise ValueError("partition vector must have at least one entry")
        if any(k < 0 for k in self.counts):
            raise ValueError(f"negative multiplicity in {self.counts}")
        weighted = sum(i * k for i, k in enumerate(self.counts, start=1))
        if weighted != r:
            raise ValueError(
                f"sum(i*k_i)={weighted} does not equal the order r={r}"
            )

    @property
    def order(self) -> int:
        return len(self.counts)

    @property
    def block_count(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class CompositionMatrix:
    """Nonnegative integers q_ij distributing each k_i over n coordinates.

    Row i sums to base.counts[i-1]; the column sums p_j therefore add up to
    the block count k of the base partition vector.
    """

    base: PartitionVector
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.base.order:
            raise ValueError("one row per derivative order is required")
        width = len(self.rows[0]) if self.rows else 0
        for i, (row, k_i) in enumerate(zip(self.rows, self.base.counts), start=1):
            if len(row) != width:
                raise ValueError("ragged composition matrix")
            if any(q < 0 for q in row):
                raise ValueError(f"negative entry in row {i}")
            if sum(row) != k_i:
                raise ValueError(f"row {i} sums to {sum(row)}, expected {k_i}")

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    @property
    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.rows))

    @property
    def block_count(self) -> int:
        return self.base.block_count


def _check_order(r: int) -> None:
    if r > DEFAULT_MAX_ORDER:
        raise ResourceLimitError(
            f"order {r} exceeds the enumeration cap max_order={DEFAULT_MAX_ORDER}"
        )


def _partition_counts(r: int, parts: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield (k_1..k_r) with sum(i*k_i)=r in ascending lexicographic order;
    with `parts`, only those with sum(k_i) == parts.

    A branch is entered only if its remainder can still be made of larger
    parts (with `parts`: of exactly as many as are still owed), so every
    branch ends in an output and pruning keeps the order.
    """

    def rec(prefix: list[int], i: int, remaining: int, left: int | None):
        if remaining == 0:
            yield tuple(prefix) + (0,) * (r - len(prefix))
            return
        for k in range(remaining // i + 1):
            rest = remaining - i * k
            if left is None:
                if rest == 0 or rest > i:
                    yield from rec(prefix + [k], i + 1, rest, None)
            elif rest == left - k == 0 or 0 < (left - k) * (i + 1) <= rest:
                yield from rec(prefix + [k], i + 1, rest, left - k)

    yield from rec([], 1, r, parts)


def enumerate_partition_vectors(r: int) -> list[PartitionVector]:
    """All multiplicity vectors of order r, lexicographically ascending.

    The list length equals the partition function p(r).
    """
    if r < 1:
        raise ValueError(f"order must be positive, got {r}")
    _check_order(r)
    return [PartitionVector(c) for c in _partition_counts(r)]


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All weak compositions of `total` into `parts` parts, lexicographic."""
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def enumerate_composition_matrices(
    p: PartitionVector, n: int
) -> list[CompositionMatrix]:
    """All matrices distributing each multiplicity k_i over n columns.

    The family has exactly prod_i C(k_i + n - 1, n - 1) members; row choices
    vary in lexicographic order, slowest index first.
    """
    if n < 1:
        raise ValueError(f"outer dimension must be positive, got {n}")
    count = 1
    for k_i in p.counts:
        count *= math.comb(k_i + n - 1, n - 1)
        if count > DEFAULT_MAX_MATRICES:
            raise ResourceLimitError(
                f"composition family larger than max_matrices={DEFAULT_MAX_MATRICES}"
            )
    row_choices = [_compositions(k_i, n) for k_i in p.counts]
    return [CompositionMatrix(p, rows) for rows in product(*row_choices)]


def _bell_terms(r: int, k: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Integer coefficient and multiplicities for each term of B_{r,k}.

    The coefficient r! / (prod k_i! * prod (i!)^k_i) counts set partitions of
    an r-set with the given block-size multiplicities, hence is exact. The
    order cap is checked on the call, before any term is enumerated.
    """
    _check_order(r)
    r_fact = math.factorial(r)

    def coefficient(pv: tuple[int, ...]) -> int:
        denom = 1
        for i, k_i in enumerate(pv, start=1):
            if k_i:
                denom *= math.factorial(k_i) * math.factorial(i) ** k_i
        coeff, rem = divmod(r_fact, denom)
        if rem:  # cannot happen: the quotient is a partition count
            raise ArithmeticError("non-integer Bell coefficient")
        return coeff

    return ((coefficient(pv), pv) for pv in _partition_counts(r, k))


def incomplete_bell(r: int, k: int, x: Sequence[float]) -> float:
    """Evaluate the incomplete exponential Bell polynomial B_{r,k}(x_1..x_{r-k+1}).

    Coefficients are computed exactly; only the final products over the real
    arguments use floating point.
    """
    if not 1 <= k <= r:
        raise ValueError(f"need 1 <= k <= r, got k={k}, r={r}")
    if len(x) != r - k + 1:
        raise ValueError(
            f"expected {r - k + 1} arguments for B_{{{r},{k}}}, got {len(x)}"
        )
    total = 0.0
    for coeff, pv in _bell_terms(r, k):
        term = float(coeff)
        for i, k_i in enumerate(pv, start=1):
            if k_i:
                term *= x[i - 1] ** k_i
        total += term
    return total


def incomplete_bell_ones(r: int, k: int) -> int:
    """Exact integer value of B_{r,k}(1,...,1), i.e. the Stirling number S(r,k).

    Uses S(m, j) = j S(m-1, j) + S(m-1, j-1), one row at a time.
    """
    if not 1 <= k <= r:
        raise ValueError(f"need 1 <= k <= r, got k={k}, r={r}")
    row = [1] + [0] * k  # S(0, 0..k)
    for m in range(1, r + 1):
        for j in range(min(m, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def bell_number(r: int) -> int:
    """Number of set partitions of an r-element set, exactly.

    Built with the Bell triangle: each row starts with the last entry of the
    row before and adds that row's entries one by one; B_r ends row r-1.
    """
    if r < 1:
        raise ValueError(f"order must be positive, got {r}")
    _check_order(r)
    row = [1]
    for _ in range(r - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def multinomial(k: int, parts: Sequence[int]) -> int:
    """k! / prod(parts_j!), exact; requires sum(parts) == k."""
    if k < 0 or any(p < 0 for p in parts):
        raise ValueError("multinomial arguments must be nonnegative")
    if sum(parts) != k:
        raise ValueError(f"parts {tuple(parts)} do not sum to k={k}")
    out = math.factorial(k)
    for p in parts:
        out //= math.factorial(p)
    return out
