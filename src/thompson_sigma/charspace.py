"""Character space of F_{n,infinity} and Sigma-invariant membership.

A character is a homomorphism chi : G -> R; it factors through the
abelianization Z^n, so it is stored as the rational value vector
(chi(x_0), ..., chi(x_{n-1})).  Higher generators are implied by the
folding rule chi(x_i) = values[1 + (i-1) mod (n-1)] and never stored.

The character sphere S(G) identifies positive rational multiples; the
canonical representative divides by |first nonzero coordinate|, and is
made only here, from the primitive integer vector on the ray, for
`SpherePoint`, `sphere_point` and `autos.d_orbit`.  Exactly two sphere
points lie outside Sigma^1:

    chi1 = (-1, 0, ..., 0)      chi2 = (1, 1, ..., 1)

Their rays and characters are built once per arity and cached; `chi1`,
`chi2`, `in_sigma1` and `kernel_finiteness` all read that cache, so the
witness of a subgroup that is not finitely generated is the character
`chi1(n)` or `chi2(n)` returns.

For m >= 2 the complement of Sigma^m is the wedge of nonnegative
combinations r1*chi1 + r2*chi2, i.e. vectors (r2 - r1, r2, ..., r2).
That closed form is unconditional for m = 2 (any n) and for every m when
n = 2; for n >= 3 and m >= 3 it is conjectural and callers must pass
assume_conjecture=True.

`kernel_finiteness` classifies the finiteness type of the subgroup
N >= G' whose image in Z^n is a given integer lattice L: N has type F_m
iff no nonzero rational vector annihilating L falls outside Sigma^m,
which reduces to exact linear algebra against the wedge, in ints: a
`Character` is built only for the witness it returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from ._linalg import rank
from .errors import ConjectureRequiredError, ParseError, Value, ZeroCharacterError, require_at_least
from .errors import require_ints

RationalVector = tuple[Fraction, ...]


class Character(Value):
    """Rational character of F_{n,infinity}, stored on x_0..x_{n-1} as Fractions."""

    __slots__ = ("arity", "values")

    def __init__(self, arity: int, values: RationalVector):
        require_at_least("arity", arity, 2)
        if len(values) != arity:
            raise ValueError(f"expected {arity} values, got {len(values)}")
        if not all(isinstance(v, (int, Fraction)) for v in values):
            raise ValueError(f"character values must be ints or Fractions, got {values!r}")
        Value.__init__(self, arity, tuple(v if type(v) is Fraction else Fraction(v) for v in values))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def value_at(self, i: int) -> Fraction:
        """chi(x_i) for any i >= 0, via the folding rule."""
        if i == 0:
            return self.values[0]
        return self.values[1 + (i - 1) % (self.arity - 1)]


class SpherePoint(Value):
    """A character up to positive scaling: its values divided by |first nonzero value|.

    `SpherePoint(n, values)` takes what `Character` takes; a zero vector raises ZeroCharacterError.
    """

    __slots__ = ("arity", "values")

    def __init__(self, arity: int, values: RationalVector):
        Value.__init__(self, arity, _on_sphere(_ray(Character(arity, values).values)))


class FinitenessReport(Value):
    """Classification of the finiteness type of a subgroup above G'.

    `max_certified_f_type` is m or "infinity"; `witness`, a vanishing character outside Sigma^m.
    """

    __slots__ = ("is_finitely_generated", "max_certified_f_type", "witness", "assumed_conjecture")


def character(arity: int, values) -> Character:
    """A Character from ints, Fractions or rational strings like "1/10" (no floats)."""
    return Character(arity, tuple(Fraction(v) if isinstance(v, str) else v for v in values))


def parse_character(arity: int, text: str) -> Character:
    """Parse a comma-separated rational vector like `-1,0` or `1/2,3` (no `1e3`)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != arity:
        raise ParseError(f"expected {arity} comma-separated values, got {len(parts)}")
    if "e" in text.lower():  # Fraction would expand 1e999999999 exactly
        raise ParseError(f"bad rational vector {text!r}: values take no exponent (e or E)")
    try:
        return Character(arity, tuple(Fraction(p) for p in parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational vector {text!r}: {exc}") from exc


@lru_cache(maxsize=16, typed=True)
def _exceptional(n: int) -> tuple[tuple[tuple[int, ...], Character], ...]:
    # (ray, character) of chi1 and of chi2, built once per arity for the 16
    # arities used last (each holds 2n Fractions; a census uses three), and
    # typed, so that 2.0 or True do not find the entry of 2
    return tuple((ray, Character(n, ray)) for ray in ((-1,) + (0,) * (n - 1), (1,) * n))


def chi1(n: int) -> Character:
    """The character with chi(x_0) = -1 and chi(x_i) = 0 for i >= 1."""
    return _exceptional(n)[0][1]


def chi2(n: int) -> Character:
    """The character with chi(x_i) = 1 for all i."""
    return _exceptional(n)[1][1]


def sphere_point(chi: Character) -> SpherePoint:
    """Canonical positive-scaling representative of a nonzero character."""
    return SpherePoint._trusted(chi.arity, _on_sphere(_ray(chi.values)))


def _ray(values) -> tuple[int, ...]:
    """The primitive integer vector on the ray through a nonzero rational vector."""
    den = lcm(*(q.denominator for q in values))
    ints = [q.numerator * (den // q.denominator) for q in values]
    g = gcd(*ints)
    if g == 0:
        raise ZeroCharacterError("zero character has no sphere point")
    return tuple(x // g for x in ints)


def _on_sphere(v: tuple[int, ...]) -> RationalVector:
    # the canonical point of a ray: its values divided by |first nonzero|
    lead = abs(next(x for x in v if x))
    return tuple(Fraction(x, lead) for x in v)


def in_sigma1(chi: Character) -> bool:
    """Membership of [chi] in Sigma^1: everything except [chi1] and [chi2]."""
    return _ray(chi.values) not in [bad for bad, _ in _exceptional(chi.arity)]


def _in_complement_wedge(values: RationalVector) -> bool:
    # the wedge {(r2-r1, r2, ..., r2) : r1, r2 >= 0, not both 0}
    v0, tail = values[0], values[1:]
    return all(v == tail[0] for v in tail) and tail[0] >= 0 and v0 <= tail[0]


def in_sigma_m(
    chi: Character, m: int, *, assume_conjecture: bool = False
) -> bool:
    """Membership of [chi] in Sigma^m.

    Raises ConjectureRequiredError when n >= 3, m >= 3 and the caller has
    not opted into the conjectural description.
    """
    require_at_least("m", m, 1)
    if chi.is_zero():
        raise ZeroCharacterError("zero character has no Sigma membership")
    if m == 1:
        return in_sigma1(chi)
    if chi.arity >= 3 and m >= 3 and not assume_conjecture:
        raise ConjectureRequiredError(
            f"Sigma^{m} for n = {chi.arity} needs assume_conjecture=True"
        )
    return not _in_complement_wedge(chi.values)


def _wedge_meet(n: int, rows: list[list[int]]) -> tuple[int, ...] | None:
    """Nonzero annihilator vector inside the complement wedge, if any.

    rows generate the lattice L; the annihilator is V = {v : L.v = 0}.
    The wedge lives in the plane P = {(a, b, ..., b)}; V intersect P is cut
    out by one linear constraint per generator: a*u_0 + b*sum(u_1..) = 0.
    Callers have ruled out chi1, so some constraint is nonzero.
    """
    constraints = [(row[0], sum(row[1:])) for row in rows]
    c0, d0 = next(cd for cd in constraints if cd != (0, 0))
    if any(c * d0 != d * c0 for c, d in constraints):
        return None  # constraints of rank 2: V meets P trivially
    a, b = -d0, c0
    for sa, sb in ((a, b), (-a, -b)):
        if sb >= 0 and sa <= sb:
            return (sa,) + (sb,) * (n - 1)
    return None


def kernel_finiteness(
    lattice_rows: list[list[int]],
    *,
    m_max: int = 16,
    assume_conjecture: bool = False,
) -> FinitenessReport:
    """Finiteness type of N = (preimage in G of the lattice L), G' <= N.

    `lattice_rows` are generators of L inside Z^n (any rank), rows of ints.  The
    decision is exact and runs in integer arithmetic.  Full rank (tested only
    on n or more rows) gives "infinity"; otherwise the annihilator V of
    L is intersected with the Sigma^1 complement {[chi1], [chi2]} and with
    the Sigma^m complement wedge.  "infinity" is certified when V misses
    the wedge entirely -- unconditionally for n = 2, under the conjecture
    flag for n >= 3 (without the flag the certified type stops at 2).
    Certified finite types are capped at m_max >= 1.
    """
    require_at_least("m_max", m_max, 1)
    if not lattice_rows:
        raise ValueError("need at least one lattice generator")
    n = len(lattice_rows[0])
    if n < 2 or any(len(r) != n for r in lattice_rows):
        raise ValueError("lattice rows must all have length n >= 2")
    rows = [require_ints("lattice entries", r) for r in lattice_rows]

    if len(rows) >= n and rank(rows, n) == n:  # fewer rows than n never have rank n
        return FinitenessReport(True, "infinity", None, False)

    # not finitely generated iff chi1 or chi2 annihilates L
    for bad, witness in _exceptional(n):
        if all(sum(map(mul, row, bad)) == 0 for row in rows):
            return FinitenessReport(False, 0, witness, False)

    wedge_vec = _wedge_meet(n, rows)
    if wedge_vec is not None:
        # finitely generated, but some vanishing character leaves Sigma^2
        return FinitenessReport(True, 1, Character._trusted(n, tuple(map(Fraction, wedge_vec))), False)

    if n == 2:
        return FinitenessReport(True, "infinity", None, False)
    if assume_conjecture:
        return FinitenessReport(True, "infinity", None, True)
    return FinitenessReport(True, min(2, m_max), None, False)
