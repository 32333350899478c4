"""Gradient series along chains of finite-index subgroups.

For a chain (H_s) the rank gradient compares d(H_s) - 1 to the index,
the deficiency gradient compares def(H_s) to the index, and the chi_m
gradient compares the partial Euler characteristic to the index.  Exact
values of d and def are out of reach, so every row carries a certified
rational interval [lower, upper]; all three gradients vanish whenever the
index tends to infinity, which shows up as interval widths shrinking like
1/index and is what `certify_convergence` checks exactly.

All arithmetic is rational; no floating point anywhere.  The s = 0 row of
a nested chain is the whole group, which contributes its own exact data:
d = n minimal generators and, for n = 2, the classical complex with two
cells in every positive dimension.  A scaling or coordinate chain whose
last index has more than MAX_INDEX_DIGITS digits raises ResourceLimitError
before the first row.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import (
    cells_for_subgroup_F,
    chi_m,
    classical_f_cells,
    d_bound,
    deficiency_bounds,
)
from .errors import MAX_INDEX_DIGITS, DomainError, Value, refuse_above, require_at_least
from .lattices import ChainSpec, chain

RANK = "rank"
DEFICIENCY = "deficiency"
CHI = "chi"

_MAX_INDEX = 10**MAX_INDEX_DIGITS - 1


class GradientRow(Value):
    __slots__ = ("s", "index", "lower", "upper", "upper_symbolic")  # upper None if symbolic in d0


class GradientSeries(Value):
    __slots__ = ("kind", "arity", "m", "rows")


def _series(kind: str, spec: ChainSpec, n: int, steps: int | None, m, bounds) -> GradientSeries:
    # one row per chain term: bounds(lat, idx) gives its lower, upper and
    # upper_symbolic values, the last None unless the upper one is symbolic in d0
    require_at_least("steps", steps, 1)
    e = (steps - 1) * (n if spec.kind == "scaling" else 1)
    if spec.kind != "explicit" and _index_too_long(spec.p, e):
        refuse_above("last chain index digit count", None, MAX_INDEX_DIGITS)
    rows = []
    for s in range(steps):
        lat = chain(spec, s, n)
        idx = lat.index()
        rows.append(GradientRow(s, idx, *bounds(lat, idx)))
    return GradientSeries(kind, n, m, tuple(rows))


def _index_too_long(p: int, e: int) -> bool:
    # p^e >= 2^((bits(p) - 1) e), so a large exponent is decided without
    # computing p^e; otherwise p^e has fewer than 2 * bits(_MAX_INDEX) bits
    return (p.bit_length() - 1) * e > _MAX_INDEX.bit_length() or p**e > _MAX_INDEX


def _subgroup_cells(lat, idx):
    if idx == 1:
        return classical_f_cells()
    return cells_for_subgroup_F(lat)[0]


def rank_gradient_series(
    spec: ChainSpec, n: int, steps: int | None = None, *, d0_override: int | None = None
) -> GradientSeries:
    """Rows (d(H_s) - 1) / [G : H_s], bounded above via the cell calculus.

    The lower value is 0 (infinite groups need at least one generator).
    For n >= 3 the generic upper bound is symbolic in d0 unless a numeric
    override is supplied; an override below 1 is refused before the first row.
    """
    if d0_override is not None:
        require_at_least("d0 override", d0_override, 1)

    def bounds(lat, idx):
        d_upper = n if idx == 1 else d_bound(lat, d0_override=d0_override, chi_upto=0).d_upper
        if d_upper is None:
            return Fraction(0), None, f"({n + 1}+d0)/{idx}"
        return Fraction(0), Fraction(d_upper - 1, idx), None

    return _series(RANK, spec, n, steps, None, bounds)


def deficiency_gradient_series(
    spec: ChainSpec, n: int = 2, steps: int | None = None
) -> GradientSeries:
    """Rows [def_lower, def_upper] / [G : H_s]; needs the n = 2 cell counts."""
    if n != 2:
        raise DomainError("deficiency gradient needs the n = 2 cell counts")

    def bounds(lat, idx):
        lower, upper = deficiency_bounds(_subgroup_cells(lat, idx), n)
        return Fraction(lower, idx), Fraction(upper, idx), None

    return _series(DEFICIENCY, spec, n, steps, None, bounds)


def chi_m_gradient_series(
    spec: ChainSpec, m: int, n: int = 2, steps: int | None = None
) -> GradientSeries:
    """Rows chi_m(H_s) / [G : H_s]; nonnegative, so the lower value is 0."""
    if n != 2:
        raise DomainError("chi_m gradient needs the n = 2 cell counts")
    require_at_least("m", m, 0)

    def bounds(lat, idx):
        return Fraction(0), Fraction(chi_m(_subgroup_cells(lat, idx), m), idx), None

    return _series(CHI, spec, n, steps, m, bounds)


def certify_convergence(
    series: GradientSeries, eps: Fraction
) -> tuple[bool, int | None]:
    """Does some tail of the series stay within eps of zero?

    Returns (certified, s of the first row from which every later row has
    max(|lower|, |upper|) <= eps).  Exact comparison; symbolic rows cannot
    be certified.
    """
    if not series.rows:
        raise DomainError("series too short to certify")
    first = None
    for row in series.rows:
        if row.upper is None:
            raise DomainError("cannot certify a series with symbolic bounds")
        if max(abs(row.lower), abs(row.upper)) <= eps:
            if first is None:
                first = row.s
        else:
            first = None
    return (first is not None), first
