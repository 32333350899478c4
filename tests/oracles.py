"""Independent oracles the tests check the package against."""

from fractions import Fraction


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
