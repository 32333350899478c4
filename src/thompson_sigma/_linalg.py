"""Small exact linear algebra helpers (Fractions over Q, big ints over Z).

Only what the package needs: rational rank for kernel classification,
and an integer kernel via unimodular row reduction for lattice
preimages.  Everything is tiny (n <= 10 or so); clarity over speed.
"""

from __future__ import annotations

from fractions import Fraction


def rational_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rational_rank(rows: list[list[Fraction]]) -> int:
    return len(rational_rref(rows)[1])


def integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the left kernel {v in Z^m : v . rows = 0} of an m x c matrix.

    Row-reduces [rows | I] with unimodular integer operations; the identity
    block rows paired with zero rows of the reduced matrix span the kernel.
    """
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    a = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    top = 0
    for c in range(ncols):
        # gcd-eliminate column c among rows top..m-1
        while True:
            live = [i for i in range(top, m) if a[i][c] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(a[i][c]))
            i0 = live[0]
            for i in live[1:]:
                q = a[i][c] // a[i0][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[i0])]
                u[i] = [x - q * y for x, y in zip(u[i], u[i0])]
        live = [i for i in range(top, m) if a[i][c] != 0]
        if live:
            i0 = live[0]
            a[top], a[i0] = a[i0], a[top]
            u[top], u[i0] = u[i0], u[top]
            top += 1
    return [u[i] for i in range(m) if all(x == 0 for x in a[i])]
