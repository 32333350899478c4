"""The shift and flip automorphisms acting on characters of F_{n,infinity}.

The shift phi fixes x_0 and sends x_i to x_{i+1} for i >= 1; on the
abelianization it fixes coordinate 0 and cycles coordinates 1, ..., n-1.
The flip mu inverts x_0 and permutes the higher generators through the
involution delta (which swaps i with n-i-2 for 1 <= i <= n-3 and swaps
n-1 with n-2), each multiplied by x_0^-1.  Acting on character value
vectors these give integer matrices

    (A v)_0 = v_0,  (A v)_i = v_{rho0(i)}       rho0 = cycle (1 ... n-1)
    (C v)_0 = -v_0, (C v)_i = v_{delta(i)} - v_0

C has order 2 and swaps the two exceptional characters chi1 <-> chi2; A
has order n - 1 (the computed order of the displayed matrix, not the
claimed order n; the tests compute it by repeated multiplication).  The
group they generate permutes the character sphere preserving the Sigma
complements; `d_orbit` explores those orbits.

A and C are defined once, by their rows: `_generator_rows` writes the
(column, entry) pairs of each row, one for A and at most two for C, in O(n)
per arity, and `matrix_A` and `matrix_C` expand them.  `d_orbit` walks
those rows over primitive integer vectors, one per ray, instead of
characters: a `SpherePoint` stores its ray.  A is a permutation matrix and
C^2 = I, so both are unimodular and map a primitive vector to a primitive
one (a common divisor of M v divides M^-1 M v = v); the walk needs no gcd
and no division.  An image costs O(n) integer operations and no `Fraction`
is built: in-process, the first orbit of chi1 at n = 2000 takes about 8 ms
and CLI `orbit` of the 510 points of (1, ..., 256) about 0.5 s
(`BENCH_34.json`).

mu is not implemented on words: expressing mu(x_i) needs negative powers
of phi on low-index generators, which the presentation does not supply.
Only the abelianization-level matrix C is ever needed downstream.
"""

from __future__ import annotations

from functools import lru_cache

from .charspace import SpherePoint
from .errors import ORBIT_CAP, Value, refuse_above, require_at_least

IntMatrix = tuple[tuple[int, ...], ...]


class CharacterMatrix(Value):
    """Integer matrix acting on character value vectors (det +-1)."""

    __slots__ = ("arity", "entries")

    def __init__(self, arity: int, entries: IntMatrix):
        require_at_least("arity", arity, 2)
        if len(entries) != arity or any(len(r) != arity for r in entries):
            raise ValueError(f"expected a {arity}x{arity} matrix")
        Value.__init__(self, arity, entries)


def delta_involution(n: int) -> dict[int, int]:
    """The index swap underlying the flip, on {1, ..., n-1}.

    Fixed point for n = 2; for n >= 3 it swaps i <-> n-i-2 in the low
    range and n-2 <-> n-1 at the top.
    """
    if n == 2:
        return {1: 1}
    return {i: n - i - 2 for i in range(1, n - 2)} | {n - 2: n - 1, n - 1: n - 2}


def matrix_A(n: int) -> CharacterMatrix:
    """Action of the shift on value vectors: fixes slot 0, cycles the rest."""
    return _dense(n, _generator_rows(n)[0])


def matrix_C(n: int) -> CharacterMatrix:
    """Action of the flip: (C v)_0 = -v_0, (C v)_i = v_{delta(i)} - v_0."""
    return _dense(n, _generator_rows(n)[1])


def _dense(n: int, rows) -> CharacterMatrix:
    # the n x n matrix whose row i has the (column, entry) pairs rows[i]
    return CharacterMatrix(n, tuple(tuple(map(dict(row).get, range(n), [0] * n)) for row in rows))


@lru_cache(maxsize=16, typed=True)
def _generator_rows(n: int):
    # the (column, entry) pairs of each row of A and of C, for the 16 arities
    # used last; typed, so that 2.0 or True miss the entry of 2 and are
    # refused here.  All tuples, so no caller can change the cached value.
    require_at_least("arity", n, 2)
    delta = delta_involution(n)
    shift = (((0, 1),), *(((1 + i % (n - 1), 1),) for i in range(1, n)))
    flip = (((0, -1),), *(((0, -1), (delta[i], 1)) for i in range(1, n)))
    return shift, flip


def d_orbit(point: SpherePoint, cap: int = ORBIT_CAP) -> frozenset[SpherePoint]:
    """Orbit of a sphere point under the shift and flip matrices.

    Both generators have finite order, so closing under them alone closes
    under the full group; the cap guards against runaway exploration.  The
    walk runs on primitive integer rays, from `point.ray`, through the rows
    that define A and C, built once per arity in O(n).  The orbit holds
    `point` itself and builds sphere points, each stored as its ray, only
    for the other rays; an orbit of one point builds none.
    A cap below 1 raises ParseError: the start point alone is already over it.
    """
    require_at_least("cap", cap, 1)
    n = point.arity
    gens = _generator_rows(n)
    start = point.ray
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for rows in gens:
            image = tuple([sum([c * v[j] for j, c in row]) for row in rows])
            if image not in seen:
                if len(seen) >= cap:
                    refuse_above("orbit size", len(seen) + 1, cap)
                seen.add(image)
                frontier.append(image)
    seen.remove(start)
    return frozenset([point, *(SpherePoint._trusted(n, v) for v in seen)])

