"""Finite-index subgroups of F_{n,infinity} as integer lattices.

Every finite-index subgroup H contains the commutator subgroup G', so it
is determined by its image L in the abelianization Z^n: a full-rank
integer sublattice with [G : H] = [Z^n : L] = |det L|.  Lattices are kept
in a canonical Hermite normal form with rows as generators:

    * row i has its pivot on the diagonal and zeros to the right,
    * pivots are positive,
    * entries below a pivot are reduced into [0, pivot).

With this orientation the pivot of coordinate 0 is exactly the smallest
alpha > 0 with x_0^alpha in H, which feeds the HNN decomposition
machinery: `intersect_with_M` computes the image of H intersect M for
M = <x_1, ..., x_n>: the preimage under the fold psi (x_n -> x_1), in
closed form, since psi's image is {x_0 = 0} and its kernel is spanned by
xbar_1 - xbar_n.  The isomorphism theta : M -> G, x_i -> x_{i-1}, sends
M-slot i (holding xbar_{i+1}) to G-slot i, so that HNF lattice is already
in G-coordinates and transporting it along theta is the identity.
`restrict_character` is the companion move on characters.

`enumerate_subgroups` gives each subgroup up to a given index once, as a
sized, re-iterable and lazy view whose passes build the lattices afresh in
(index, basis) order (`list()` keeps them); `hnf_bases` yields their bases
from the same `itertools` pipeline.  `ChainSpec`/`chain` generate the
subgroup chains the gradient series are evaluated on.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain as chained, product, repeat
from math import prod

from ._linalg import eliminate
from .charspace import Character
from .errors import MAX_LATTICES, DomainError, RankDeficientError, ZeroCharacterError, refuse_above
from .errors import Value, require_at_least, require_ints

IntRows = tuple[tuple[int, ...], ...]


class SubgroupLattice(Value):
    """Full-rank sublattice of Z^n, stored in canonical (lower-triangular) HNF.

    `SubgroupLattice(n, rows)` stores the HNF basis of the span of the rows.
    It raises RankDeficientError unless the span has full rank, ParseError
    for an arity that is not an int, and ValueError for an entry that is not
    an int or a row of length other than n >= 2.
    """

    __slots__ = ("arity", "basis")

    def __init__(self, arity: int, rows):
        work = [require_ints("lattice entries", r) for r in rows]
        if not work:
            raise RankDeficientError("no generators")
        if not isinstance(arity, int):  # refused as elsewhere; an int below 2 reads as a row length
            require_at_least("arity", arity, 2)
        if arity < 2 or any(len(r) != arity for r in work):
            raise ValueError("rows must all have length n >= 2")
        Value.__init__(self, arity, _hnf(work, arity))

    def index(self) -> int:
        return prod(self.basis[i][i] for i in range(self.arity))


def hnf(rows, arity: int | None = None) -> SubgroupLattice:
    """`SubgroupLattice(arity, rows)`, the arity read off the first row by default."""
    return SubgroupLattice(len(rows[0]) if arity is None and rows else arity, rows)


def _hnf(work: list[list[int]], n: int) -> IntRows:
    # the HNF basis of a nonempty list of int lists of length n >= 2, as SubgroupLattice checks them
    basis = eliminate(work, range(n - 1, -1, -1))[0][::-1]
    if None in basis:
        missing = max(i for i, row in enumerate(basis) if row is None)
        raise RankDeficientError(f"rows do not span coordinate {missing}")
    for i in range(n):
        if basis[i][i] < 0:
            basis[i] = [-x for x in basis[i]]
    # reduce entries below each pivot, rightmost column first so earlier
    # reductions are not disturbed
    for k in range(n):
        for i in range(k - 1, -1, -1):
            q = basis[k][i] // basis[i][i]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return tuple(tuple(r) for r in basis)


def index(lat: SubgroupLattice) -> int:
    """[Z^n : L] = |det|, the product of the HNF pivots."""
    return lat.index()


def alpha(lat: SubgroupLattice) -> int:
    """Least alpha > 0 with alpha * e_0 in L; the coordinate-0 pivot."""
    return lat.basis[0][0]


def member(lat: SubgroupLattice, vector) -> bool:
    """Is the vector of ints in the lattice?  Back-substitution on the HNF basis."""
    v = require_ints("vector entries", vector)
    if len(v) != lat.arity:
        raise ValueError(f"vector length {len(v)} != arity {lat.arity}")
    for i in range(lat.arity - 1, -1, -1):
        c, rem = divmod(v[i], lat.basis[i][i])
        if rem:
            return False
        if c:
            v = [a - c * b for a, b in zip(v, lat.basis[i])]
    return True


def intersect_with_M(lat: SubgroupLattice) -> SubgroupLattice:
    """Image of H intersect M in M-coordinates: the psi-preimage of L.

    Coordinates of the result are xbar_1, ..., xbar_n of M (stored in tuple
    slots 0..n-1).  The fold psi sends v to (0, v_0 + v_{n-1}, v_1, ...,
    v_{n-2}); its image is {x_0 = 0} and its kernel is spanned by
    (1, 0, ..., 0, -1).  So the preimage is spanned by that kernel vector
    and the lifts (r_1, ..., r_{n-1}, 0) of the rows r of L with r_0 = 0,
    which one elimination step on coordinate 0 leaves.
    """
    n = lat.arity
    lifts = [r[1:] + [0] for r in eliminate(lat.basis, [0])[1]]
    return SubgroupLattice._trusted(n, _hnf(lifts + [[1] + [0] * (n - 2) + [-1]], n))


def restrict_character(chi: Character) -> Character:
    """rho = (chi restricted to M) composed with theta^-1.

    rho(x_i) = chi(x_{i+1}); the fold chi(x_n) = chi(x_1) forces
    rho(x_0) = rho(x_{n-1}).
    """
    if chi.is_zero():
        raise ZeroCharacterError("cannot restrict the zero character")
    n = chi.arity
    return Character(n, tuple(chi.value_at(i + 1) for i in range(n)))


def _bases_of_index(n: int, rows: tuple, remaining: int):
    # HNF bases of index exactly k = remaining * (pivots of rows so far), in
    # lexicographic order: row by row, the below-pivot entries first, then
    # the pivot over the divisors of what remains; the last pivot takes it all
    ranges = [range(row[i]) for i, row in enumerate(rows)]
    if len(rows) == n - 1:  # whole last rows, each beside the rows above
        return zip(*map(repeat, rows), product(*ranges, (remaining,)))
    divisors = [d for d in range(1, remaining + 1) if remaining % d == 0]
    zeros = (0,) * (n - 1 - len(rows))
    return chained.from_iterable(_bases_of_index(n, (*rows, below + (d,) + zeros), remaining // d)
                                 for below in product(*ranges) for d in divisors)


def _basis_count(n: int, max_index: int, cap: int) -> int:
    # The number of HNF bases of index <= max_index, the sum over pivot
    # sequences (d_0, ..., d_{n-1}) with product <= max_index of
    # prod d_i^(n-1-i), or a number past cap as soon as the count passes it.
    # Index k has at least k bases (pivot k in row n - 2), hence the floor.
    if max_index * (max_index + 1) // 2 > cap:
        return cap + 1
    # ways[m]: the weighted choices of the last pivots with product m; each
    # pass takes one more pivot and lowers no total
    ways = [0] + [1] * max_index
    for e in range(1, n):
        taken = [0] * (max_index + 1)
        for d in range(1, max_index + 1):
            for m in range(1, max_index // d + 1):
                taken[d * m] += d**e * ways[m]
        ways = taken
        if sum(ways) > cap:
            break
    return sum(ways)


def _bases(n: int, max_index: int) -> Iterator[IntRows]:  # behind hnf_bases and each Subgroups pass
    return chained.from_iterable(_bases_of_index(n, (), k) for k in range(1, max_index + 1))


def hnf_bases(n: int, max_index: int) -> Iterator[IntRows]:
    """The HNF bases of all lattices of index <= max_index, as an iterator.

    Yields each basis (a tuple of integer rows) exactly once, in (index,
    basis) order: index 1, 2, ..., and within one index lexicographically.
    The bases come lazily from an `itertools` pipeline, which yields whole
    last rows beside the rows above them.  The arguments and the budget are
    checked on the call, before the first basis: more than MAX_LATTICES
    lattices raise ResourceLimitError.
    """
    enumerate_subgroups(n, max_index)  # the checks, on the call
    return _bases(n, max_index)


class Subgroups(Value):
    """The `count` lattices of `enumerate_subgroups(arity, max_index)`: a sized view.

    Each `iter()` builds them afresh and lazily, holding none; `list()` keeps them.
    """

    __slots__ = ("arity", "max_index", "count")

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[SubgroupLattice]:
        # HNF bases by construction, ~41k per census round: stored inline, at half the cost of `_trusted`
        n, new, (put_arity, put_basis) = self.arity, object.__new__, SubgroupLattice._setters
        for basis in _bases(n, self.max_index):
            lat = new(SubgroupLattice)
            put_arity(lat, n)
            put_basis(lat, basis)
            yield lat


def enumerate_subgroups(n: int, max_index: int) -> Subgroups:
    """All HNF lattices of index <= max_index, each exactly once.

    A sized, re-iterable and lazy view, not a list: `len()` is exact, each
    pass builds the lattices afresh in `hnf_bases` order, and `+`, indexing
    or `==` with a list need `list(...)` of it.  The arguments and the
    budget are checked on the call, as for `hnf_bases`.
    """
    require_at_least("arity", n, 2)
    require_at_least("max_index", max_index, 1)
    count = _basis_count(n, max_index, MAX_LATTICES)
    if count > MAX_LATTICES:
        refuse_above("lattice count", None, MAX_LATTICES)
    return Subgroups(n, max_index, count)


class ChainSpec(Value):
    """Recipe for a sequence of finite-index subgroups.

    kind "scaling":    L_s = p^s * Z^n            (index p^(s n), nested)
    kind "coordinate": L_s = p^s Z + Z^(n-1)      (index p^s, nested)
    kind "explicit":   the given `SubgroupLattice`s, in order; need not nest.

    Each kind takes only its own argument: `terms` on "scaling" or "coordinate",
    or `p` on "explicit", raises ValueError.
    """

    __slots__ = ("kind", "p", "terms")

    def __init__(self, kind: str, p: int | None = None, terms: tuple | None = None):
        if kind in ("scaling", "coordinate"):
            if p is not None and not isinstance(p, int):
                raise ValueError(f"must be an int, got {p!r} (p of a {kind} chain)")
            if p is None or p < 2:
                raise ValueError(f"must be >= 2, got {p} (p of a {kind} chain)")
            if terms is not None:
                raise ValueError(f"must be None, got {terms!r} (terms of a {kind} chain)")
        elif kind == "explicit":
            terms = tuple(terms or ())
            if not terms:
                raise ValueError("explicit chain needs at least one term")
            for s, term in enumerate(terms):
                if not isinstance(term, SubgroupLattice):
                    raise ValueError(f"must be a SubgroupLattice, got {term!r} (term {s} of an explicit chain)")
            if p is not None:
                raise ValueError(f"must be None, got {p!r} (p of an explicit chain)")
        else:
            raise ValueError(f"unknown chain kind {kind!r}")
        Value.__init__(self, kind, p, terms)


def chain(spec: ChainSpec, s: int, n: int) -> SubgroupLattice:
    """The s-th term of the chain, s >= 0."""
    require_at_least("chain position", s, 0)
    if spec.kind != "explicit":
        diagonal = [spec.p**s] + [spec.p**s if spec.kind == "scaling" else 1] * (n - 1)
        return hnf([[d if i == j else 0 for j in range(n)] for i, d in enumerate(diagonal)])
    if s >= len(spec.terms):
        raise DomainError(f"explicit chain has only {len(spec.terms)} terms")
    term = spec.terms[s]
    if term.arity != n:
        raise DomainError(f"chain term arity {term.arity} != {n}")
    return term
