"""Cell-count calculus for K(H,1) complexes of finite-index subgroups.

A `CellVector` records r(H, j), the number of j-cells of an aspherical
complex for H: an explicit integer prefix plus, for the type-F_infinity
groups handled here, an affine tail r(H, j) = slope*j + offset valid from
some dimension on.  A vector without a tail describes a finite complex
(zero cells beyond the prefix).  Tails keep every downstream computation
exact at arbitrary dimension.  `CellVector(...)` checks the counts against
the tail and stores the canonical form (the earliest tail start, no trailing
zeros), so vectors with the same count in every dimension are equal.

Three combination rules drive everything:

    hnn_cells:    r(B, j) = r(T, j) + r(T, j-1)
                  (HNN extension over a base group T, one stable letter)
    stack_cells:  r(G, j) = sum_i r(N, i) * r(Q, j-i)
                  (stack/fibration over a short exact sequence N -> G -> Q)
    graph_of_groups_cells:
                  r(G, j) = sum_vertices r(., j) + sum_edges r(., j-1)

For n = 2 the pipeline starting from the classical 2-cells-per-dimension
complex of the group itself classifies every finite-index subgroup H by
the lattice tests e_1 in L (the multiplication subgroup M sits inside H)
or (1,-1) in L (the mirror case), giving cell counts

    cases 1-2:  1, 3, 4, 4, 4, ...
    case  3:    1, 5, 12, 20, ..., 8j-4

exactly.  `d_bound` turns these into generator bounds (for n >= 3 the
bound n + 2 + d0 stays symbolic in the unknown constant
d0 = d(G'<x_0, x_{n-1}>)); `chi_m` computes the alternating partial Euler
characteristic, checked nonnegative; `deficiency_bounds` gives
1 - r0 + r1 - r2 <= def(H) <= n.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DEFAULT_DIM_CAP, MAX_DIM, DomainError, InvariantViolationError, Value, refuse_above
from .errors import require_at_least, require_ints
from .lattices import SubgroupLattice, member


class AffineTail(Value):
    """r(j) = slope*j + offset for all j >= start; each an int, else ValueError."""

    __slots__ = ("slope", "offset", "start")

    def __init__(self, slope: int, offset: int, start: int):
        if not type(slope) is type(offset) is type(start) is int:
            slope, offset, start = require_ints("tail slope, offset and start", (slope, offset, start))
        Value.__init__(self, slope, offset, start)

    def value(self, j: int) -> int:
        return self.slope * j + self.offset


def _check_dimension(m: int) -> None:
    require_at_least("dimension", m, 0)
    if m > MAX_DIM:
        refuse_above("dimension", m, MAX_DIM)


class CellVector(Value):
    """Cell counts per dimension; finite, or eventually affine via `tail`."""

    __slots__ = ("counts", "tail")

    def __init__(self, counts: tuple[int, ...], tail: AffineTail | None = None):
        counts = require_ints("cell counts", counts)
        if any(v < 0 for v in counts):
            raise ValueError(f"negative cell count in {counts}")
        tail = AffineTail(0, 0, len(counts)) if tail is None else tail  # finite: zero past the counts
        for j in range(tail.start, len(counts)):
            if counts[j] != tail.value(j):
                raise ValueError(f"explicit count {counts[j]} at dim {j} contradicts tail")
        if tail.slope < 0:
            raise ValueError("cell counts cannot decrease forever")
        start = min(tail.start, len(counts))
        while start > 0 and counts[start - 1] == tail.value(start - 1):
            start -= 1
        zero = not (tail.slope or tail.offset)
        Value.__init__(self, tuple(counts[:start]), None if zero else AffineTail(tail.slope, tail.offset, start))
        if self.value(0) < 1:
            raise ValueError("a complex needs at least one 0-cell")

    def value(self, j: int) -> int:
        if j < 0:
            return 0
        if self.tail is not None and j >= self.tail.start:
            return self.tail.value(j)
        if j < len(self.counts):
            return self.counts[j]
        return 0

    def prefix(self, m: int) -> tuple[int, ...]:
        """Values in dimensions 0..m; m < 0 raises ParseError, m > MAX_DIM ResourceLimitError."""
        _check_dimension(m)
        t = self.tail  # canonical: it starts at len(counts); a finite vector is 0 there
        slope, offset = (t.slope, t.offset) if t else (0, 0)
        return self.counts[: m + 1] + tuple(slope * j + offset for j in range(len(self.counts), m + 1))

    def reach(self) -> int:
        """Dimension from which the vector is 'settled' (tail or zero)."""
        return self.tail.start if self.tail is not None else len(self.counts)


cell_vector = CellVector  # the exported name of the canonical constructor


def _combine(parts, value_fn) -> CellVector:
    # Probe the combination out to a horizon past every transient; detect
    # an affine tail from stabilized first differences, else stay finite.
    horizon = sum(p.reach() for p in parts) + 2
    vals = [value_fn(j) for j in range(horizon + 4)]
    d = [vals[j + 1] - vals[j] for j in range(horizon, horizon + 3)]
    if not (d[0] == d[1] == d[2]):
        raise DomainError("combined cell counts are not eventually affine")
    slope = d[0]
    offset = vals[horizon] - slope * horizon
    return CellVector(vals[: horizon + 1], AffineTail(slope, offset, horizon))


def hnn_cells(r_base: CellVector) -> CellVector:
    """Cells of an HNN extension: shift-add of the base group's cells."""
    return _combine([r_base, r_base], lambda j: r_base.value(j) + r_base.value(j - 1))


def stack_cells(r_kernel: CellVector, r_quotient: CellVector) -> CellVector:
    """Cells of a stack over a short exact sequence: the convolution."""

    def conv(j: int) -> int:
        return sum(r_kernel.value(i) * r_quotient.value(j - i) for i in range(j + 1))

    return _combine([r_kernel, r_quotient], conv)


def graph_of_groups_cells(
    vertex_cells: list[CellVector], edge_cells: list[CellVector]
) -> CellVector:
    """Cells of a graph of groups: vertices contribute r(., j), edges r(., j-1)."""
    if not vertex_cells:
        raise ValueError("need at least one vertex group")

    def total(j: int) -> int:
        return sum(v.value(j) for v in vertex_cells) + sum(
            e.value(j - 1) for e in edge_cells
        )

    return _combine(vertex_cells + edge_cells, total)


def classical_f_cells() -> CellVector:
    """The 1-vertex, 2-cells-per-dimension complex of the n = 2 group."""
    return CellVector((1, 2), AffineTail(0, 2, 1))


def ones_cells() -> CellVector:
    """One cell in every dimension: a K(finite cyclic, 1)."""
    return CellVector((1,), AffineTail(0, 1, 0))


# The two n = 2 answers, derived once.  Cases 1-2: HNN over the classical
# complex, 1, 3, 4, 4, ...  Case 3: a second HNN (1, 4, 7, 8, 8, ...) stacked
# with the finite cyclic quotient, 1, 5, 12, 20, ..., 8j-4.
CASE_1_2_CELLS = hnn_cells(classical_f_cells())
CASE_3_CELLS = stack_cells(hnn_cells(CASE_1_2_CELLS), ones_cells())


def cells_for_subgroup_F(lat: SubgroupLattice) -> tuple[CellVector, int]:
    """Exact cell counts for a finite-index subgroup of the n = 2 group.

    Case 1 (e_1 in L, so M <= H): HNN over M with one stable letter.
    Case 2 ((1,-1) in L): the mirror automorphism reduces to case 1.
    Case 3: HNN over the case-2 complex of H intersect M, then a stack
    with the finite cyclic quotient.  Precedence 1 > 2 > 3 (1 and 2 agree).
    Returns (cells, case); the affine tail makes any truncation exact, so
    callers slice with `CellVector.prefix` instead of passing a depth here.
    """
    if lat.arity != 2:
        raise DomainError(f"closed-form cells need n = 2, got n = {lat.arity}")
    if member(lat, (0, 1)):
        return CASE_1_2_CELLS, 1
    if member(lat, (1, -1)):
        return CASE_1_2_CELLS, 2
    return CASE_3_CELLS, 3


def chi_m(r: CellVector, m: int) -> int:
    """Alternating sum sum_{0<=i<=m} (-1)^(m-i) r(i).

    An upper bound for the partial Euler characteristic; a negative value
    would contradict the Novikov-ring nonnegativity certificate and is
    reported as an invariant violation, not a result.  m is refused as
    `CellVector.prefix` refuses it.
    """
    *_, total = _alternating_sums(r, m)
    return _nonnegative(r, m, total)


def _alternating_sums(r: CellVector, m: int):
    # chi_0, ..., chi_m, each from the one before: chi_i = r(i) - chi_{i-1}
    total = 0
    for count in r.prefix(m):
        total = count - total
        yield total


@lru_cache(maxsize=None)
def _chi_sums(r: CellVector) -> tuple[int, ...]:
    # chi_0, ..., chi_MAX_DIM of one vector, unchecked, for d_bound to slice;
    # it passes only the two n = 2 vectors, so the cache holds two tuples
    return tuple(_alternating_sums(r, MAX_DIM))


def _nonnegative(r: CellVector, m: int, total: int) -> int:
    if total < 0:
        raise InvariantViolationError(
            f"alternating cell sum {total} < 0 at m = {m} for {r}"
        )
    return total


def deficiency_bounds(r: CellVector, n: int) -> tuple[int, int]:
    """(1 - r0 + r1 - r2, n): presentation bound below, homology rank above."""
    lower = 1 - r.value(0) + r.value(1) - r.value(2)
    return lower, n


class BoundReport(Value):
    """Generator and deficiency bounds for one subgroup.

    `d_upper` is numeric when known; otherwise `d_upper_symbolic` carries
    the bound in the unknown constant d0, e.g. "5+d0".  Deficiency bounds
    and chi values are populated only where cell vectors exist (n = 2, or
    nothing fabricated for n >= 3).
    """

    __slots__ = ("d_upper", "d_upper_symbolic", "case_tag", "def_lower", "def_upper", "chi_values")


def d_bound(
    lat: SubgroupLattice, *, d0_override: int | None = None, chi_upto: int = DEFAULT_DIM_CAP
) -> BoundReport:
    """Upper bound on the minimal number of generators of the subgroup.

    n = 2: d(H) <= r(H, 1) from the exact cell counts (3 or 5), and
    chi_values = (chi_0, ..., chi_{chi_upto}) as `chi_m` gives them: a
    slice of the running alternating sums up to MAX_DIM, computed once per
    cell vector and cached, checked by one `min`; a negative one raises
    InvariantViolationError as `chi_m` would at the first negative m.
    n >= 3 with e_1, ..., e_{n-1} all in L: d(H) <= 1 + d(M) = 1 + n.  Read
    off the HNF basis: its rows are nonnegative with positive pivots, so
    rows 1..n-1 are e_1..e_{n-1} iff each sums to 1.
    n >= 3 otherwise: d(H) <= n + 2 + d0, symbolic unless overridden.
    For every n, chi_upto is refused as `CellVector.prefix` refuses it, and
    a d0_override below 1 whether or not the bound reads it.
    """
    _check_dimension(chi_upto)
    if d0_override is not None:
        require_at_least("d0 override", d0_override, 1)
    n = lat.arity
    symbolic = def_lower = chi_values = None
    if n == 2:
        cells, case = cells_for_subgroup_F(lat)
        d_upper, tag = cells.value(1), f"cells-case-{case}"
        def_lower, _ = deficiency_bounds(cells, n)
        chi_values = _chi_sums(cells)[: chi_upto + 1]
        if min(chi_values) < 0:
            for m, total in enumerate(chi_values):
                _nonnegative(cells, m, total)
    elif all(sum(row) == 1 for row in lat.basis[1:]):  # rows 1..n-1 are e_1..e_{n-1}
        d_upper, tag = n + 1, "m-contained"
    elif d0_override is not None:
        d_upper, tag = n + 2 + d0_override, "generic"
    else:
        d_upper, symbolic, tag = None, f"{n + 2}+d0", "generic"
    return BoundReport(d_upper, symbolic, tag, def_lower, n, chi_values)
