"""Independent oracles the tests check the package against."""

from fractions import Fraction

from thompson_sigma.errors import ArityMismatchError, ResourceLimitError
from thompson_sigma.words import (
    DEFAULT_INDEX_CAP,
    SeminormalForm,
    _push_negative,
    _push_positive,
)


def brute_force_index_count(n: int, k: int) -> int:
    """Count of index-k sublattices of Z^n via HNF diagonals.

    For each diagonal (d_0, ..., d_{n-1}) with product k there are
    prod d_i^(n-1-i) below-pivot fillings; walk d_0 over the divisors of k
    and recurse on the remaining n - 1 pivots.
    """
    if n == 1:
        return 1
    return sum(
        d ** (n - 1) * brute_force_index_count(n - 1, k // d)
        for d in range(1, k + 1)
        if k % d == 0
    )


def divisor_sum(k: int) -> int:
    """sigma(k), the sum of divisors; counts index-k sublattices of Z^2."""
    return sum(d for d in range(1, k + 1) if k % d == 0)


def is_power_of(q: Fraction, n: int) -> bool:
    """Is q an integer power n**k, k in Z?"""
    if q <= 0:
        return False
    while q < 1:
        q *= n
    while q > 1:
        q /= n
    return q == 1


def fixpoint_reduce(pos: list[int], neg: list[int], n: int) -> None:
    """Reference matched-pair reduction of a seminormal form, in place.

    Removes the first removable pair x_i ... x_i^-1 (smallest i, last x_i
    of `pos`, first x_i^-1 of `neg`) whose enclosed letters all avoid
    i+1 .. i+n-1, shifts the enclosed letters down by n-1, and rescans
    until no pair is removable.
    """
    changed = True
    while changed:
        changed = False
        for i in sorted(set(pos) & set(neg)):
            a = max(k for k, v in enumerate(pos) if v == i)
            b = min(k for k, v in enumerate(neg) if v == i)
            enclosed = pos[a + 1 :] + neg[:b]
            if any(i + 1 <= v <= i + n - 1 for v in enclosed):
                continue
            pos[a:] = [v - (n - 1) for v in pos[a + 1 :]]
            neg[: b + 1] = [v - (n - 1) for v in neg[:b]]
            changed = True
            break


def sequential_multiply(
    u: SeminormalForm, v: SeminormalForm, *, index_cap: int = DEFAULT_INDEX_CAP
) -> SeminormalForm:
    """Reference product: push v's letters onto u one at a time.

    The positive letters go first, smallest first, then the inverse letters,
    largest first, each by the pushes of `rewrite_to_seminormal`.  Input
    letters beyond `index_cap` raise, as in `words.multiply`.
    """
    if u.arity != v.arity:
        raise ArityMismatchError(f"arity {u.arity} vs {v.arity}")
    top = max(u.positive + u.negative + v.positive + v.negative, default=None)
    if top is not None and top > index_cap:
        raise ResourceLimitError(f"generator index {top} exceeds rewriting cap {index_cap}")
    pos, neg = list(u.positive), list(u.negative)
    for k in v.positive:
        _push_positive(pos, neg, k, u.arity, index_cap)
    for k in v.negative:
        _push_negative(pos, neg, k, u.arity, index_cap)
    return SeminormalForm(u.arity, tuple(pos), tuple(neg))


def rational_rank(rows) -> int:
    """Rank over Q by reduced row echelon form in Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [v / m[rank][c] for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank
