"""Exact piecewise-linear homeomorphisms of [0,1] realizing F_{n,infinity}.

Every map is stored as its full breakpoint list: a strictly increasing
sequence of (input, output) pairs from (0,0) to (1,1) with linear
interpolation in between, all coordinates exact `fractions.Fraction`
values.  For generator words the slopes are integer powers of n and the
breakpoint coordinates are n-adic rationals.

Generators come from pairs of subdivisions of [0,1] induced by "right
vines": a vine with k carets repeatedly cuts the last subinterval into n
equal parts, k times.  Writing ell_0, ell_1, ... for the resulting leaf
intervals in order, the generator x_i maps the (q+2)-caret vine
subdivision onto the (q+1)-caret vine subdivision with leaf ell_i cut
into n equal parts, where i = q(n-1) + r.  `generator_map` builds it in
closed form from leaf i's left end and width: five breakpoints, slopes 1,
1/n, 1, n (x_0 lacks the first piece).  Words evaluate with the leftmost
letter outermost: W(l_1 ... l_k) = M_{l_1} o ... o M_{l_k}, and under this
convention the defining relations x_j^-1 x_i x_j = x_{i+n-1} (i > j) hold
exactly; the relation suite in the tests is the contract for this choice.

`PLMap(...)` checks its points as given and stores them as `Fraction`s,
minimized (collinear interior points dropped), so two maps are equal as
functions iff their breakpoint tuples are equal.  `compose` and `invert_map`
build their results from valid maps, so they skip those checks
(`Value._trusted`); `TestComposite` pins that every such result rebuilds
unchanged through `PLMap(...)`.  One collinearity test,
`_coincidences_dropped`, minimizes for both: the constructor tests every
interior point, `compose` only the points where breakpoints coincide.

`compose(f, g)` walks g's segments keeping one pointer k into f's
breakpoints: an f-breakpoint is pulled back by the inverse slope of the
g-segment it falls in (one division per segment), a g-breakpoint pushed
through f's segment fb[k-1]..fb[k].  That is O(|f| + |g|) `Fraction`
operations.  As f and g are minimized, their adjacent slopes differ: an
f-breakpoint pulled back into the interior of g's segment j has slopes
s_f(k-1) s_g(j) and s_f(k) s_g(j) on its two sides, a g-breakpoint pushed
into the interior of f's segment k has s_f(k) s_g(j) and s_f(k) s_g(j+1).
So only a point where an f-breakpoint meets a g-breakpoint's image can be
collinear with its neighbours, and only those are tested.  Skipping the
checks and testing only those points are what make the oracle fast
(`BENCH_24.json`, `BENCH_25.json`).

`evaluate_word` first reduces its word freely, cancelling each adjacent
x_i^e x_i^-e (nested pairs included) in one stack pass, then composes the
letter maps in the product tree of `words.normal_form`: O(log L) levels of
compositions for L letters, each linear in its operands, where a left fold
makes L compositions with a growing left factor (timings in `BENCH_6.json`
and `BENCH_21.json`).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .errors import MAX_PL_INDEX, MAX_PL_WORK, ArityMismatchError, Value, refuse_above
from .errors import require_at_least
from .words import GroupWord, _pairwise_product

Breakpoint = tuple[Fraction, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)

def _coincidences_dropped(points: list[Breakpoint], at: range | list[int]) -> tuple[Breakpoint, ...]:
    """`points` without each points[i], i in the increasing `at`, that is
    collinear with its neighbours; the list is changed in place.

    Points are tested from the last, each against points[i - 1] and
    points[i + 1] in the list as it stands.  Where the inputs strictly
    increase, dropping a collinear point leaves the slopes beside it, so this
    drops exactly the points of `at` where the map does not bend.
    `PLMap(...)` passes every interior point, `compose` only its coincident
    ones.  Slopes are compared on numerators and (positive) denominators.
    """
    for i in reversed(at):
        (xa, ya), (x1, y1), (x2, y2) = points[i - 1 : i + 2]
        dx0, dy0, dx1, dy1 = x1 - xa, y1 - ya, x2 - x1, y2 - y1
        if (
            dy0.numerator * dx1.numerator * dy1.denominator * dx0.denominator
            == dy1.numerator * dx0.numerator * dy0.denominator * dx1.denominator
        ):
            del points[i]
    return tuple(points)


class PLMap(Value):
    """An increasing PL bijection of [0,1]; its points are checked as given, then minimized."""

    __slots__ = ("arity", "breakpoints")

    def __init__(self, arity: int, breakpoints: tuple[Breakpoint, ...]):
        bps = breakpoints
        if not all(type(c) is Fraction for p in bps for c in p):  # the package passes only Fractions
            if not all(isinstance(c, (int, Fraction)) for p in bps for c in p):
                raise ValueError(f"breakpoint coordinates must be ints or Fractions, got {bps!r}")
            bps = tuple(tuple(map(Fraction, p)) for p in bps)
        if not bps or bps[0] != (_ZERO, _ZERO) or bps[-1] != (_ONE, _ONE):
            raise ValueError("breakpoints must run from (0,0) to (1,1)")
        for k in range(len(bps) - 1):
            if not (bps[k][0] < bps[k + 1][0] and bps[k][1] < bps[k + 1][1]):
                raise ValueError("breakpoints must be strictly increasing")
        Value.__init__(self, arity, _coincidences_dropped(list(bps), range(1, len(bps) - 1)))

    def __call__(self, t: Fraction) -> Fraction:
        return evaluate_at(self, t)

    def slopes(self) -> tuple[Fraction, ...]:
        bps = self.breakpoints
        return tuple(
            (bps[k + 1][1] - bps[k][1]) / (bps[k + 1][0] - bps[k][0])
            for k in range(len(bps) - 1)
        )

    def to_quadruples(self) -> list[list[str]]:
        """Serialize as [num, den, num, den] quadruples of decimal strings."""
        return [
            [str(x.numerator), str(x.denominator), str(y.numerator), str(y.denominator)]
            for x, y in self.breakpoints
        ]


def identity_map(arity: int) -> PLMap:
    return PLMap(arity, ((_ZERO, _ZERO), (_ONE, _ONE)))


def evaluate_at(f: PLMap, t: Fraction) -> Fraction:
    if not isinstance(t, (int, Fraction)):
        raise ValueError(f"point must be an int or a Fraction, got {t!r}")
    if not (_ZERO <= t <= _ONE):
        raise ValueError(f"point {t} outside [0,1]")
    bps = f.breakpoints
    k = bisect_right(bps, t, key=itemgetter(0)) - 1
    if k == len(bps) - 1:
        return bps[-1][1]
    x0, y0 = bps[k]
    x1, y1 = bps[k + 1]
    return y0 + (y1 - y0) * (t - x0) / (x1 - x0)


def invert_map(f: PLMap) -> PLMap:
    """Swap input and output of every breakpoint; a minimized map stays so."""
    return PLMap._trusted(f.arity, tuple((y, x) for x, y in f.breakpoints))


def compose(f: PLMap, g: PLMap) -> PLMap:
    """Exact composition f o g (apply g first), minimized.

    The walk emits, in order of input, g's breakpoints and the g-preimages
    of f's breakpoints with their images under f o g; an f-breakpoint that
    lands exactly on a g-breakpoint's image is emitted once.  These points
    are `Fraction`s from (0,0) to (1,1), strictly increasing.  As f and g
    are minimized, only such a coincident point can be collinear with its
    neighbours, so only those are tested, and the map is built without
    `PLMap(...)`'s checks.
    """
    if f.arity != g.arity:
        raise ArityMismatchError(f"arity {f.arity} vs {g.arity}")
    fb, gb = f.breakpoints, g.breakpoints
    points = [(_ZERO, _ZERO)]
    coincident = []  # indices in points of interior coincident breakpoints
    k = 1  # (u, v) = fb[k] is the first f-breakpoint not yet passed
    u, v = fb[1]
    x0 = y0 = _ZERO
    for j in range(1, len(gb)):
        x1, y1 = gb[j]
        if u < y1:  # f-breakpoints inside g's segment, by g's inverse slope
            r = (x1 - x0) / (y1 - y0)
            while u < y1:
                points.append((x0 + (u - y0) * r, v))
                k += 1
                u, v = fb[k]
        if u == y1:  # coincident breakpoints: advance both walks
            points.append((x1, v))
            k += 1
            if k < len(fb):  # past the last coincidence, (1, 1), nothing is read
                coincident.append(len(points) - 1)
                u, v = fb[k]
        else:  # push y1 through f's segment fb[k-1]..fb[k]
            u0, v0 = fb[k - 1]
            points.append((x1, v0 + (y1 - u0) * (v - v0) / (u - u0)))
        x0, y0 = x1, y1
    return PLMap._trusted(f.arity, _coincidences_dropped(points, coincident))


@lru_cache(maxsize=None, typed=True)  # so generator_map(2, 1.0) is refused, not a hit
def generator_map(n: int, i: int) -> PLMap:
    """The PL realization of the generator x_i, any i >= 0.

    The construction is uniform in i; in particular it satisfies
    x_i = x_0^-1 x_{i-(n-1)} x_0 for i >= n (tested, not assumed).
    """
    require_at_least("arity", n, 2)
    require_at_least("generator index", i, 0)
    if n > MAX_PL_INDEX:
        refuse_above("arity", n, MAX_PL_INDEX)
    if i > MAX_PL_INDEX:
        refuse_above("generator index", i, MAX_PL_INDEX)
    # Leaf i of the (q+1)-caret vine is [a, a + w].  The map is the identity
    # up to a and then has slopes 1/n, 1 and n; its breakpoints follow from
    # matching the two subdivisions leaf by leaf.
    q, r = divmod(i, n - 1)
    w = Fraction(1, n ** (q + 1))
    a = 1 - (n - r) * w
    points = [(_ZERO, _ZERO), (a, a)] if a else [(_ZERO, _ZERO)]
    points += [
        (1 - w, a + (n - 1 - r) * w / n),
        (1 - w + (r + 1) * w / n, a + w),
        (_ONE, _ONE),
    ]
    return PLMap(n, tuple(points))


@lru_cache(maxsize=None, typed=True)
def inverse_generator_map(n: int, i: int) -> PLMap:
    """The PL realization of x_i^-1; refused as `generator_map` refuses."""
    return invert_map(generator_map(n, i))


def evaluate_word(w: GroupWord) -> PLMap:
    """Image of a word under the representation; empty word -> identity.

    An arity or a letter index above MAX_PL_INDEX, or a word whose PL work
    passes MAX_PL_WORK, raises ResourceLimitError before any map is built.
    These checks read the word as given; only then is it reduced freely
    (each adjacent x_i^e x_i^-e cancels), so a word that cancels to nothing
    is still refused past the budget, and otherwise gives the identity.
    """
    top = max((let.index for let in w.letters), default=0)
    if w.arity > MAX_PL_INDEX:
        refuse_above("arity", w.arity, MAX_PL_INDEX)
    if top > MAX_PL_INDEX:
        refuse_above("generator index", top, MAX_PL_INDEX)
    work = sum(let.index // (w.arity - 1) + 2 for let in w.letters) * w.arity.bit_length()
    if work > MAX_PL_WORK:
        refuse_above("PL work", work, MAX_PL_WORK)
    reduced = []  # the freely reduced word: one stack pass
    for let in w.letters:
        if reduced and reduced[-1] == (let.index, -let.exponent):
            reduced.pop()
        else:
            reduced.append(let)
    maps = [
        inverse_generator_map(w.arity, let.index)
        if let.exponent == -1
        else generator_map(w.arity, let.index)
        for let in reduced
    ] or [identity_map(w.arity)]
    return _pairwise_product(maps, compose)


def maps_equal(f: PLMap, g: PLMap) -> bool:
    """Exact equality; `PLMap(...)` stores every breakpoint list minimized."""
    return f.arity == g.arity and f.breakpoints == g.breakpoints

