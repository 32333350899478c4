"""Word arithmetic in the generalized Thompson group F_{n,infinity}.

The group is presented by generators x_0, x_1, x_2, ... subject to
x_j^-1 x_i x_j = x_{i+n-1} whenever i > j >= 0, where n >= 2 is the family
parameter.  Orienting the relations so that smaller indices move left gives
four rewriting rules:

    x_i      x_j      ->  x_j      x_{i+n-1}        (i > j)
    x_i^-1   x_j      ->  x_j      x_{i+n-1}^-1     (i > j)
    x_i^-1   x_j      ->  x_{j+n-1}      x_i^-1     (i < j)
    x_i^-1   x_j^-1   ->  x_{j+n-1}^-1   x_i^-1     (i < j)

together with free cancellation x_i x_i^-1 -> 1 and x_i^-1 x_i -> 1.
Exhaustive application yields a *seminormal form*: a positive part with
non-decreasing indices followed by an inverse part with non-increasing
indices.  Seminormal forms are not unique; `normal_form` additionally
removes every matched pair x_i ... x_i^-1 straddling the middle whenever no
letter with index in {i+1, ..., i+n-1} lies between them (shifting the
enclosed indices down by n-1), which produces a canonical representative.
Canonicity is certified against the exact piecewise-linear representation
(`thompson_sigma.plrep`) rather than proved here.

Index bumping grows indices with the word's length, so every rewriting entry
point raises ResourceLimitError for an index past MAX_GENERATOR_INDEX.  All
values are immutable; operations return fresh objects.  The constructors
check their arguments; the operations build their results from checked
values without those checks (`Value._trusted`).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from operator import gt, lt
from typing import Iterable, NamedTuple

from .errors import MAX_GENERATOR_INDEX, MAX_REWRITE_LETTERS, MAX_TOKEN_DIGITS, MAX_WORD_LETTERS
from .errors import ArityMismatchError, ParseError, Value, refuse_above, require_at_least

DEFAULT_INDEX_CAP = MAX_GENERATOR_INDEX  # the name `perfbench/run.py` reads it under

_TOKEN_RE = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")

# `normal_form` rewrites runs of this many letters left to right and
# multiplies their forms: 32 and 64 tie as the fastest length (`BENCH_18.json`).
_LEAF = 64

# `_rewrite` bumps an index range of fewer than this many letters in place,
# one `+=` per letter, and a longer one as one new slice, where the two tie (`BENCH_18.json`).
_BULK = 64


class GeneratorLetter(NamedTuple):
    """One letter x_index^exponent with exponent +1 or -1."""

    index: int
    exponent: int


def _check_index(i) -> None:
    if not isinstance(i, int):
        raise ValueError(f"generator index must be an int, got {i!r}")
    if i < 0:
        raise ValueError(f"negative generator index {i}")


class GroupWord(Value):
    """A finite word in the generators of F_{n,infinity}.

    The empty word is the identity.  Words are plain syntactic objects;
    use `rewrite_to_seminormal` / `are_equal` for group-level questions.
    """

    __slots__ = ("arity", "letters")

    def __init__(self, arity: int, letters: tuple[GeneratorLetter, ...]):
        require_at_least("arity", arity, 2)
        if type(letters) is not tuple or not set(map(type, letters)) <= {GeneratorLetter}:
            letters = tuple(
                let if isinstance(let, GeneratorLetter) else GeneratorLetter(*let) for let in letters
            )
        if any(  # distinct letters only
            type(i) is not int or type(e) is not int or i < 0 or e not in (1, -1) for i, e in set(letters)
        ):
            for i, e in letters:  # the first bad letter
                _check_index(i)
                if e not in (1, -1) or not isinstance(e, int):
                    raise ValueError(f"letter exponent must be +-1, got {e}")
        Value.__init__(self, arity, letters)

    def __len__(self):
        return len(self.letters)


class SeminormalForm(Value):
    """Positive part (non-decreasing) times inverse part (non-increasing).

    Represents (prod_i x_{positive[i]}) * (prod_j x_{negative[j]}^-1) where
    `negative` is read left to right.  Its indices are checked as a
    `GroupWord`'s, so `to_word` builds its word unchecked.
    """

    __slots__ = ("arity", "positive", "negative")

    def __init__(self, arity: int, positive: tuple[int, ...], negative: tuple[int, ...]):
        require_at_least("arity", arity, 2)
        indices = (*positive, *negative)
        if not {int}.issuperset(map(type, indices)) or min(indices, default=0) < 0:
            for i in indices:  # the first bad index
                _check_index(i)
        if any(map(gt, positive, positive[1:])):
            raise ValueError(f"positive part not sorted: {positive}")
        if any(map(lt, negative, negative[1:])):
            raise ValueError(f"negative part not sorted: {negative}")
        Value.__init__(self, arity, positive, negative)

    def is_identity(self) -> bool:
        return not self.positive and not self.negative

    def to_word(self) -> GroupWord:
        letters = [GeneratorLetter(i, 1) for i in self.positive]
        letters += [GeneratorLetter(i, -1) for i in self.negative]
        return GroupWord._trusted(self.arity, tuple(letters))


def word(arity: int, letters: Iterable[tuple[int, int]]) -> GroupWord:
    """Build a GroupWord from (index, exponent) pairs."""
    return GroupWord(arity, tuple(GeneratorLetter(i, e) for i, e in letters))


def parse_word(arity: int, text: str) -> GroupWord:
    """Parse whitespace-separated tokens `x<k>`, `x<k>^-1`, `x<k>^<e>`.

    Integer exponents expand to |e| letters of the matching sign; e = 0
    contributes nothing.  The empty string is the identity.  A word of more
    than MAX_WORD_LETTERS letters raises ResourceLimitError before the
    token that crosses the budget is expanded.  An index or exponent of more
    than MAX_TOKEN_DIGITS digits raises ParseError.
    """
    letters: list[GeneratorLetter] = []
    tokens: dict[str, tuple[GeneratorLetter, int]] = {}  # token -> (letter, count)
    for token in text.split():
        if token not in tokens:
            m = _TOKEN_RE.match(token)
            if not m:
                raise ParseError(f"bad word token {token!r}")
            digits = max(len(m.group(1)), len((m.group(2) or "").lstrip("-")))
            if digits > MAX_TOKEN_DIGITS:
                refuse_above("word token digit count", digits, MAX_TOKEN_DIGITS, ParseError)
            exp = 1 if m.group(2) is None else int(m.group(2))
            tokens[token] = GeneratorLetter(int(m.group(1)), 1 if exp >= 0 else -1), abs(exp)
        letter, count = tokens[token]
        if len(letters) + count > MAX_WORD_LETTERS:
            refuse_above("word length", len(letters) + count, MAX_WORD_LETTERS)
        letters += [letter] * count
    return GroupWord(arity, tuple(letters))


def format_word(w: GroupWord) -> str:
    """Inverse of `parse_word`, one token per letter."""
    return " ".join(
        f"x{let.index}" if let.exponent == 1 else f"x{let.index}^-1"
        for let in w.letters
    )


def invert(w: GroupWord) -> GroupWord:
    """Reverse the letter sequence and negate exponents."""
    return GroupWord._trusted(
        w.arity,
        tuple(GeneratorLetter(l.index, -l.exponent) for l in reversed(w.letters)),
    )


def concat(u: GroupWord, v: GroupWord) -> GroupWord:
    if u.arity != v.arity:
        raise ArityMismatchError(f"arity {u.arity} vs {v.arity}")
    return GroupWord._trusted(u.arity, u.letters + v.letters)


def _check_max(indices: Iterable[int]) -> None:
    # Raise if the largest of `indices`, if any, is past the budget.
    top = max(indices, default=MAX_GENERATOR_INDEX)
    if top > MAX_GENERATOR_INDEX:
        refuse_above("generator index", top, MAX_GENERATOR_INDEX)


def _rewrite(letters, n: int) -> tuple[list[int], list[int]]:
    # Push the (index, exponent) letters one at a time, left to right, onto
    # the positive part `pos` and the inverse part `neg`; s = n-1.  A letter
    # x_k^(+-1) first passes the inverse letters smaller than it, which end
    # `neg`, each pass bumping k by s.  An inverse letter stays there, or
    # cancels the last positive letter if `neg` is empty.  A positive letter
    # cancels an equal inverse letter, or bumps the larger ones once and goes
    # into `pos`, bumping the larger letters it passes.  A range of fewer
    # than _BULK letters is bumped in place, a longer one as one new slice.
    # Each budget check names the first index past the budget; the input
    # letters are within it.
    s = n - 1
    top = MAX_GENERATOR_INDEX
    pos: list[int] = []
    neg: list[int] = []
    for k, exponent in letters:
        j = len(neg)
        if j and neg[-1] < k:
            k0 = k
            for q in reversed(neg):
                if q >= k:
                    break
                k += s
            j -= (k - k0) // s
            if k > top:
                refuse_above("generator index", k0 + s * ((top - k0) // s + 1), top)
        if exponent == -1:
            if not neg and pos and pos[-1] == k:
                pos.pop()
            else:
                neg.insert(j, k)
        elif j and neg[j - 1] == k:
            del neg[j - 1]
        else:
            if j:
                if neg[0] + s > top:  # k passes the smallest first; name that one
                    refuse_above("generator index", min(q for q in neg[:j] if q + s > top) + s, top)
                if j < _BULK:
                    for t in range(j):
                        neg[t] += s
                else:
                    neg[:j] = [q + s for q in neg[:j]]
            if not pos or pos[-1] <= k:
                pos.append(k)
            elif pos[-1] + s > top:
                refuse_above("generator index", pos[-1] + s, top)
            else:
                i = bisect_right(pos, k)
                if len(pos) - i < _BULK:
                    pos.insert(i, k)
                    for t in range(i + 1, len(pos)):
                        pos[t] += s
                else:
                    pos[i:] = [k] + [p + s for p in pos[i:]]
    return pos, neg


def rewrite_to_seminormal(w: GroupWord) -> SeminormalForm:
    """Apply the oriented rules exhaustively; always terminates.

    Each new letter moves left through the inverse part and, if positive,
    into the positive part.  Passing a smaller inverse letter bumps its own
    index, one step per letter passed; the larger letters it passes are
    bumped in place, or as one new slice when there are `_BULK` or more.
    A word of length L thus costs O(L^2) index increments; on long words
    most are slice bumps, but the passing steps dominate (`BENCH_18.json`).
    The result depends on this left-to-right order: it is one of
    the element's seminormal forms, not the canonical one.  An input letter
    or a bumped index beyond MAX_GENERATOR_INDEX raises ResourceLimitError.

    A word of more than MAX_REWRITE_LETTERS letters raises
    ResourceLimitError before the rewrite starts (its measured cost is in
    `errors`).
    """
    if len(w.letters) > MAX_REWRITE_LETTERS:
        refuse_above("rewrite length", len(w.letters), MAX_REWRITE_LETTERS)
    _check_max(max(w.letters, default=())[:1])  # the largest letter's index is the largest
    pos, neg = _rewrite(w.letters, w.arity)
    return SeminormalForm._trusted(w.arity, tuple(pos), tuple(neg))


def _merge(u, v, s: int) -> tuple[list[int], list[int]]:
    # The product of seminormal forms u = (positive, negative) and v, equal
    # to pushing v's letters onto u one at a time, in three linear walks;
    # s = n-1.  An index only grows until its letter cancels, so the pushes
    # raise exactly when a final index, or an index at which two letters
    # cancel, is past the budget; the inputs are within it.
    upos, uneg = u
    vpos, vneg = v
    # 1. v's positive letters pass u's inverse letters, smallest first.  As
    # v's letters are sorted, each passes all that an earlier one passed; the
    # larger letters it stops at are all bumped by s, held in one offset.
    low = uneg[::-1]
    m = len(low)
    passed: list[int] = []
    rise: list[int] = []
    cancelled: list[int] = []  # indices at which a pair cancelled, rising
    i = off = shift = 0
    for b in vpos:
        key = b + shift - off  # k less the offset, to compare with low[i]
        while i < m and low[i] < key:
            passed.append(low[i] + off)
            i += 1
            key += s
        k = key + off
        shift = k - b  # s times the letters passed so far
        if i < m and low[i] == key:
            i += 1
            cancelled.append(k)
        else:
            off += s
            rise.append(k)
    mid = passed + [q + off for q in low[i:]]  # u's inverse part, ascending
    # 2. The surviving letters, rising, merge into u's positive part.  After
    # c/s new letters went in, a u-letter p stands at p + c, and the next new
    # letter k passes it (and bumps it) iff k < p + c.
    pos: list[int] = []
    j = c = 0
    nu = len(upos)
    for k in rise:
        while j < nu and upos[j] + c <= k:
            pos.append(upos[j] + c)
            j += 1
        pos.append(k)
        c += s
    pos += [p + c for p in upos[j:]]
    # 3. v's inverse letters cancel against the last positive letter while
    # the inverse part is empty.  The others pass the smaller letters of the
    # inverse part but never each other; taken smallest first, each passes
    # all that an earlier one passed.
    a = 0
    if not mid:
        while a < len(vneg) and pos and pos[-1] == vneg[a]:
            pos.pop()
            a += 1
    neg: list[int] = []
    t = 0
    nm = len(mid)
    for k in reversed(vneg[a:]):
        k += s * t
        while t < nm and mid[t] < k:
            neg.append(mid[t])
            t += 1
            k += s
        neg.append(k)
    neg += mid[t:]
    neg.reverse()
    _check_max(pos[-1:] + neg[:1] + cancelled[-1:])
    return pos, neg


def multiply(u: SeminormalForm, v: SeminormalForm) -> SeminormalForm:
    """Product of two seminormal forms, again in seminormal form.

    The result is the form `rewrite_to_seminormal` reaches by pushing v's
    letters onto u one at a time, computed by one linear merge in
    O(|u| + |v|) steps.  It raises ResourceLimitError in exactly the cases
    the pushes would: an input letter, or an index the pushes reach, beyond
    MAX_GENERATOR_INDEX; the message names the highest such index.
    """
    if u.arity != v.arity:
        raise ArityMismatchError(f"arity {u.arity} vs {v.arity}")
    _check_max(u.positive[-1:] + u.negative[:1] + v.positive[-1:] + v.negative[:1])
    pos, neg = _merge((u.positive, u.negative), (v.positive, v.negative), u.arity - 1)
    return SeminormalForm._trusted(u.arity, tuple(pos), tuple(neg))


def _reduce(pos: list[int], neg: list[int], n: int):
    # Remove every matched pair x_i ... x_i^-1 (last x_i of `pos`, first
    # x_i^-1 of `neg`) that encloses no letter with index in i+1 .. i+n-1;
    # the enclosed letters then conjugate down by n-1.  One pass from the
    # middle outwards, largest indices first: a removal shifts everything it
    # encloses alike, so a blocked pair stays blocked and no new pair appears.
    # A kept letter is stored as index + sr, sr = (n-1) times the pairs
    # removed so far, so subtracting sr at the end gives every final index.
    # The letter kept last has the smallest current index among those kept;
    # at a pair x_i ... x_i^-1 that index is above i, or equal to i when a
    # pair at i was just kept, whose blocker then blocks this pair too.
    s = n - 1
    a, b = len(pos), 0
    inner_pos: list[int] = []  # kept letters of pos, right to left
    inner_neg: list[int] = []
    low = math.inf  # stored index of the letter kept last
    sr = 0
    while a and b < len(neg):
        p, q = pos[a - 1], neg[b]
        if p == q:
            a -= 1
            b += 1
            if low - sr > p + s:
                sr += s
                continue
            low = p + sr
            inner_pos.append(low)
            inner_neg.append(low)
        elif p > q:
            a -= 1
            low = p + sr
            inner_pos.append(low)
        else:
            b += 1
            low = q + sr
            inner_neg.append(low)
    pos[a:] = [v - sr for v in reversed(inner_pos)]
    neg[:b] = [v - sr for v in inner_neg]


def _pairwise_product(items: list, op):
    """Product of the non-empty `items` under `op`, pairwise, level by level."""
    while len(items) > 1:
        odd = items[-1:] if len(items) % 2 else []
        items = [op(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)] + odd
    return items[0]


def normal_form(w: GroupWord) -> SeminormalForm:
    """Seminormal form plus the matched-pair reduction; canonical per element.

    A word of at most `_LEAF` letters is rewritten left to right, as by
    `rewrite_to_seminormal`.  A longer one is cut into runs of `_LEAF`
    letters, each rewritten so; their forms are multiplied pairwise, level by
    level, each product one linear merge as in `multiply`.  `_reduce` then
    removes the matched pairs.  A word of length L costs O(L * _LEAF) for the
    runs and O(L log L) for the merges, against O(L^2) for the left-to-right
    rewrite.  The result does not depend on the route, as the normal form is
    unique per element, but the intermediate indices do, and with them the
    refusals: the highest index a long word reaches can differ from that of
    `rewrite_to_seminormal`, though mostly it is the same (`BENCH_4.json`).
    """
    letters, n = w.letters, w.arity
    _check_max(max(letters, default=())[:1])
    forms = [  # an empty word is one empty run
        _rewrite(letters[i : i + _LEAF], n) for i in range(0, len(letters) or 1, _LEAF)
    ]
    pos, neg = _pairwise_product(forms, lambda u, v: _merge(u, v, n - 1))
    _reduce(pos, neg, n)
    return SeminormalForm._trusted(n, tuple(pos), tuple(neg))


def are_equal(u: GroupWord, v: GroupWord) -> bool:
    """Word problem: do u and v represent the same element of F_{n,infinity}?

    Decided by reducing u * v^-1 to normal form and checking emptiness;
    agreement with the PL-map oracle is part of the acceptance suite.
    """
    return normal_form(concat(u, invert(v))).is_identity()


def abelianize(w: GroupWord) -> tuple[int, ...]:
    """Exponent-sum vector in Z^n = G/G'.

    A letter x_i with i >= 1 lands in coordinate 1 + ((i-1) mod (n-1))
    because x_{i+n-1} is a conjugate of x_i; x_0 is coordinate 0.
    """
    n = w.arity
    out = [0] * n
    for let in w.letters:
        coord = 0 if let.index == 0 else 1 + (let.index - 1) % (n - 1)
        out[coord] += let.exponent
    return tuple(out)
