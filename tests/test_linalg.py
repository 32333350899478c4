"""The integer elimination behind HNF and ranks, and the reference integer
kernel in `oracles` that `intersect_with_M`'s closed form is checked against."""

import random

from oracles import integer_kernel, rational_rank
from thompson_sigma._linalg import rank


def seeded_matrices(count=3000, seed=5):
    """Integer matrices, n = 2..5 columns, 1-7 rows, entries -9..9.

    Every third matrix gets a zero row, every other one a repeated row and
    every eleventh is all zero, so rank-deficient cases are common.
    """
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, 7))]
        if k % 11 == 0:
            rows = [[0] * n for _ in rows]
        if k % 3 == 0:
            rows.insert(rng.randrange(len(rows) + 1), [0] * n)
        if k % 2 == 0:
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
        yield n, rows


def test_rank_matches_rational_rref():
    ranks = set()
    for n, rows in seeded_matrices():
        expected = rational_rank(rows)
        assert rank(rows, n) == expected, rows
        ranks.add((n, expected))
    assert ranks == {(n, r) for n in range(2, 6) for r in range(n + 1)}


def test_kernel_annihilates_and_has_full_size():
    for n, rows in seeded_matrices():
        kernel = integer_kernel(rows)
        assert len(kernel) == len(rows) - rational_rank(rows), rows
        for v in kernel:
            assert len(v) == len(rows)
            assert all(sum(c * r[j] for c, r in zip(v, rows)) == 0 for j in range(n)), (rows, v)
        assert rational_rank(kernel) == len(kernel)


def test_empty_rows():
    assert integer_kernel([]) == []
    assert rank([], 3) == 0
