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

`d_orbit` walks primitive integer vectors, one per ray, instead of
characters: the start point's denominators are cleared with one lcm and
the result divided by its gcd.  A is a permutation matrix and C^2 = I, so
both are unimodular and map a primitive vector to a primitive one (a
common divisor of M v divides M^-1 M v = v); the walk needs no gcd and no
division.  A has one nonzero entry per row and C at most two, so an image
costs O(n) integer operations, and `Fraction` values appear only in the
returned sphere points, so CLI `orbit` stays under a second up to n = 256
(`BENCH_9.json`).

Sphere points are normalized only in `charspace`: `d_orbit` takes its start
ray and its returned points from there, as `sphere_point` does.

mu is not implemented on words: expressing mu(x_i) needs negative powers
of phi on low-index generators, which the presentation does not supply.
Only the abelianization-level matrix C is ever needed downstream.
"""

from __future__ import annotations

from functools import lru_cache

from .charspace import SpherePoint, _on_sphere, _ray
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


def rho0_cycle_power(n: int, i: int, k: int) -> int:
    """rho0^k(i) for the cycle (1, 2, ..., n-1), any integer k."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} outside 1..{n - 1}")
    return 1 + (i - 1 + k) % (n - 1)


def matrix_A(n: int) -> CharacterMatrix:
    """Action of the shift on value vectors: fixes slot 0, cycles the rest."""
    targets = [0] + [rho0_cycle_power(n, i, 1) for i in range(1, n)]
    return CharacterMatrix(n, tuple(tuple(int(j == t) for j in range(n)) for t in targets))


def matrix_C(n: int) -> CharacterMatrix:
    """Action of the flip: (C v)_0 = -v_0, (C v)_i = v_{delta(i)} - v_0."""
    delta = delta_involution(n)
    rows = [[-1 if j == 0 else 0 for j in range(n)]]
    for i in range(1, n):
        row = [0] * n
        row[0] = -1
        row[delta[i]] += 1
        rows.append(row)
    return CharacterMatrix(n, tuple(tuple(r) for r in rows))


def _sparse_rows(mat: CharacterMatrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    # the nonzero (column, entry) pairs of each row
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in mat.entries)


@lru_cache(maxsize=None)
def _generator_rows(n: int):
    # the sparse rows of A and C, built once per arity; all tuples, so no
    # caller can change the cached value
    return _sparse_rows(matrix_A(n)), _sparse_rows(matrix_C(n))


def d_orbit(point: SpherePoint, cap: int = ORBIT_CAP) -> frozenset[SpherePoint]:
    """Orbit of a sphere point under the shift and flip matrices.

    Both generators have finite order, so closing under them alone closes
    under the full group; the cap guards against runaway exploration.  The
    walk runs on primitive integer rays through the sparse rows of A and C,
    which are built once per arity and cached.  The orbit holds `point`
    itself, canonical since `SpherePoint` normalizes, and builds sphere points
    only for the other rays, on return; an orbit of one point builds none.
    A cap below 1 raises ParseError: the start point alone is already over it.
    """
    require_at_least("cap", cap, 1)
    n = point.arity
    gens = _generator_rows(n)
    start = _ray(point.values)
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
    return frozenset([point, *(SpherePoint._trusted(n, _on_sphere(v)) for v in seen)])

