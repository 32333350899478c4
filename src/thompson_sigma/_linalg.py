"""Exact integer elimination, the one routine behind the lattice code.

`eliminate` clears chosen columns by unimodular row operations (gcd
steps, big ints).  `hnf` uses its pivots, `intersect_with_M` the rows it
leaves zero in coordinate 0, and `kernel_finiteness`, on n or more rows,
`rank`: the pivot count, which over Z equals the rank over Q.  All is tiny
(n <= 10 or so); clarity over speed.
"""

from __future__ import annotations


def eliminate(rows, columns) -> tuple[list[list[int] | None], list[list[int]]]:
    """Clear `columns` in order by unimodular integer row operations.

    Returns (pivots, rest): pivots[k] is the row left nonzero in columns[k],
    or None when no remaining row is nonzero there, and rest holds the
    rows that are zero in every cleared column.  A pivot row is zero in the
    columns cleared before its own.
    """
    work = [list(r) for r in rows]
    pivots: list[list[int] | None] = []
    for col in columns:
        live = [r for r in work if r[col]]
        while len(live) > 1:
            base = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not base:
                    q = r[col] // base[col]
                    r[:] = [a - q * b for a, b in zip(r, base)]
            live = [r for r in live if r[col]]
        pivot = live[0] if live else None
        work = [r for r in work if r is not pivot]
        pivots.append(pivot)
    return pivots, work


def rank(rows, width: int) -> int:
    """Rank of integer rows of length `width`."""
    return sum(p is not None for p in eliminate(rows, range(width))[0])
