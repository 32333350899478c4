"""Independent oracles the tests check the package against."""

from bisect import bisect_right
from fractions import Fraction
from itertools import product
from math import comb, prod

from thompson_sigma.autos import CharacterMatrix, matrix_A, matrix_C
from thompson_sigma.charspace import Character, FinitenessReport, SpherePoint, kernel_finiteness, sphere_point
from thompson_sigma.complexes import CellVector, cell_vector
from thompson_sigma.errors import (
    ArityMismatchError,
    DomainError,
    InvariantViolationError,
    ResourceLimitError,
    refuse_above,
)
from thompson_sigma._linalg import eliminate
from thompson_sigma.lattices import SubgroupLattice, hnf
from thompson_sigma.plrep import PLMap, generator_map, identity_map, invert_map
from thompson_sigma import words
from thompson_sigma.words import GeneratorLetter, GroupWord, SeminormalForm, abelianize


def identity_word(arity: int) -> GroupWord:
    return GroupWord(arity, ())


def evaluate(chi: Character, w: GroupWord) -> Fraction:
    """chi(w), i.e. the scalar product of the value vector with abelianize(w)."""
    if chi.arity != w.arity:
        raise ArityMismatchError(f"arity {chi.arity} vs {w.arity}")
    return sum(
        (v * a for v, a in zip(chi.values, abelianize(w))), start=Fraction(0)
    )


def full_lattice(n: int) -> SubgroupLattice:
    return hnf([[1 if i == j else 0 for j in range(n)] for i in range(n)])


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


def brute_force_hnf_bases(n: int, m: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every HNF basis of Z^n of index <= m, sorted by index, then row by row.

    Walks every pivot sequence (d_0, ..., d_{n-1}) with product <= m and, for
    each, every choice of the entries below the pivots (column j in
    [0, d_j)); row i is (below entries, d_i, zeros).  Within one index the
    bases sort by their rows in turn, each by its below entries, then its
    pivot.
    """
    bases, cells = [], [(i, j) for i in range(n) for j in range(i)]
    for pivots in product(range(1, m + 1), repeat=n):
        if prod(pivots) > m:
            continue
        for entries in product(*(range(pivots[j]) for _, j in cells)):
            rows = [[0] * n for _ in range(n)]
            for i, d in enumerate(pivots):
                rows[i][i] = d
            for (i, j), e in zip(cells, entries):
                rows[i][j] = e
            bases.append(tuple(map(tuple, rows)))
    return sorted(bases, key=lambda b: (prod(b[i][i] for i in range(n)),
                                        tuple((b[i][:i], b[i][i]) for i in range(n))))


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


def _check_max(indices) -> None:
    # Raise if the largest of `indices`, if any, is past
    # `words.MAX_GENERATOR_INDEX` as it stands at the call.
    budget = words.MAX_GENERATOR_INDEX
    top = max(indices, default=budget)
    if top > budget:
        refuse_above("generator index", top, budget)


def _pass_smaller(neg: list[int], k: int, s: int) -> tuple[int, int]:
    # Move x_k^(+-1) left past the inverse letters smaller than it, which end
    # `neg`; passing each one bumps k by s = n-1.  Returns the number of
    # inverse letters not passed and the bumped index.
    j = len(neg)
    bumped = k
    while j and neg[j - 1] < bumped:
        bumped += s
        j -= 1
    if bumped != k and bumped > words.MAX_GENERATOR_INDEX:  # name the first bump past it
        _check_max([k + s * max(1, (words.MAX_GENERATOR_INDEX - k) // s + 1)])
    return j, bumped


def push_positive(pos: list[int], neg: list[int], k: int, n: int):
    """Reference push of x_k onto a seminormal form (pos, neg), in place.

    x_k moves left through the inverse part per the mixed rules: it bumps
    past the smaller inverse letters, cancels an equal one, and bumps every
    larger one once.  Then it goes into the positive part, bumping the
    larger letters it passes (rule x_i x_j with i > j).  An index bumped
    past `words.MAX_GENERATOR_INDEX`, as it stands at the call, raises
    ResourceLimitError naming the first such index.
    """
    s = n - 1
    j, k = _pass_smaller(neg, k, s)
    if j and neg[j - 1] == k:
        del neg[j - 1]
        return
    if j:
        if neg[0] + s > words.MAX_GENERATOR_INDEX:  # x_k passes the smallest first; name that one
            _check_max([min(q for q in neg[:j] if q + s > words.MAX_GENERATOR_INDEX) + s])
        neg[:j] = [q + s for q in neg[:j]]
    i = bisect_right(pos, k)
    if i < len(pos) and pos[-1] + s > words.MAX_GENERATOR_INDEX:
        _check_max([pos[-1] + s])
    pos[i:] = [k] + [p + s for p in pos[i:]]


def push_negative(pos: list[int], neg: list[int], k: int, n: int):
    """Reference push of x_k^-1, as `push_positive`: it cancels the last
    positive letter if the inverse part is empty, else passes the smaller
    inverse letters and stays there."""
    if not neg and pos and pos[-1] == k:
        pos.pop()
        return
    j, k = _pass_smaller(neg, k, n - 1)
    neg.insert(j, k)


def pushed_seminormal(w: GroupWord) -> SeminormalForm:
    """Reference `rewrite_to_seminormal`: the pushes, letter by letter.

    Input letters and the pushes are held to `words.MAX_GENERATOR_INDEX`
    as it stands at the call; the length budget is not checked.
    """
    _check_max([let.index for let in w.letters])
    pos: list[int] = []
    neg: list[int] = []
    for k, e in w.letters:
        (push_positive if e == 1 else push_negative)(pos, neg, k, w.arity)
    return SeminormalForm(w.arity, tuple(pos), tuple(neg))


def sequential_multiply(u: SeminormalForm, v: SeminormalForm) -> SeminormalForm:
    """Reference product: push v's letters onto u one at a time.

    The positive letters go first, smallest first, then the inverse letters,
    largest first, each by `push_positive` or `push_negative`.  Input
    letters, and the pushes, are held to `words.MAX_GENERATOR_INDEX` as it
    stands at the call, as in `words.multiply`.
    """
    if u.arity != v.arity:
        raise ArityMismatchError(f"arity {u.arity} vs {v.arity}")
    _check_max(u.positive + u.negative + v.positive + v.negative)
    pos, neg = list(u.positive), list(u.negative)
    for k in v.positive:
        push_positive(pos, neg, k, u.arity)
    for k in v.negative:
        push_negative(pos, neg, k, u.arity)
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


def rank_first_kernel_finiteness(rows: list[list[int]], **options) -> FinitenessReport:
    """`kernel_finiteness` with its full-rank test run on every row set, by
    `rational_rank`, whatever the row count; valid int rows only."""
    if rational_rank(rows) == len(rows[0]):
        return FinitenessReport(True, "infinity", None, False)
    return kernel_finiteness(rows, **options)


def integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the left kernel {v in Z^m : v . rows = 0} of an m x c matrix.

    Clears the first c columns of [rows | I]; the identity block of each
    row left zero there is a kernel vector, and together they span it.
    """
    if not rows:
        return []
    m, c = len(rows), len(rows[0])
    augmented = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    return [r[c:] for r in eliminate(augmented, range(c))[1]]


def kernel_intersect_with_M(lat: SubgroupLattice) -> SubgroupLattice:
    """Reference psi-preimage of L: the M-halves of the integer kernel of
    (v, w) -> v psi - w basis, normalized by `hnf`."""
    n = lat.arity
    # psi : Z^n (M-basis xbar_1..xbar_n) -> Z^n (G-basis xbar_0..xbar_{n-1}),
    # one row per M-generator: xbar_j -> e_j for j <= n-1, xbar_n -> e_1
    fold = [[int(c == (j if j <= n - 1 else 1)) for c in range(n)] for j in range(1, n + 1)]
    stacked = fold + [[-x for x in row] for row in lat.basis]
    return hnf([k[:n] for k in integer_kernel(stacked)], arity=n)


def pairwise_minimized(points: list[tuple[Fraction, Fraction]]) -> tuple[tuple[Fraction, Fraction], ...]:
    """Reference minimizing pass: drop points[k] when the last kept point,
    points[k] and points[k + 1] are collinear, by one cross product each."""
    out = [points[0]]
    for k in range(1, len(points) - 1):
        x0, y0 = out[-1]
        x1, y1 = points[k]
        x2, y2 = points[k + 1]
        if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
            continue  # collinear, drop
        out.append(points[k])
    out.append(points[-1])
    return tuple(out)


def pairwise_map(n: int, points: list[tuple[Fraction, Fraction]]) -> PLMap:
    """A reference map through `points`, minimized by `pairwise_minimized`."""
    return PLMap(n, pairwise_minimized(points))


def pointwise_evaluate(f: PLMap, t: Fraction) -> Fraction:
    """f(t) by bisecting a freshly built list of breakpoint inputs."""
    bps = f.breakpoints
    k = bisect_right([x for x, _ in bps], t) - 1
    if k == len(bps) - 1:
        return bps[-1][1]
    x0, y0 = bps[k]
    x1, y1 = bps[k + 1]
    return y0 + (y1 - y0) * (t - x0) / (x1 - x0)


def pointwise_compose(f: PLMap, g: PLMap) -> PLMap:
    """Reference f o g: evaluate f(g(x)) at the sorted union of g's
    breakpoints and the g-preimages of f's breakpoints, then minimize."""
    if f.arity != g.arity:
        raise ArityMismatchError(f"arity {f.arity} vs {g.arity}")
    ginv = invert_map(g)
    xs = {x for x, _ in g.breakpoints}
    xs.update(pointwise_evaluate(ginv, x) for x, _ in f.breakpoints)
    points = [(x, pointwise_evaluate(f, pointwise_evaluate(g, x))) for x in sorted(xs)]
    return pairwise_map(f.arity, points)


def vine_points(n: int, carets: int) -> list[Fraction]:
    """Breakpoints of the subdivision cut by a right vine with `carets` carets."""
    points = [Fraction(0)]
    lo = Fraction(0)
    for _ in range(carets):
        step = (1 - lo) / n
        points.extend(lo + r * step for r in range(1, n))
        lo = 1 - step
    points.append(Fraction(1))
    return points


def vine_generator_map(n: int, i: int) -> PLMap:
    """Reference x_i by its definition: the (q+2)-caret vine onto the
    (q+1)-caret vine with leaf i cut into n equal parts, i = q(n-1) + r,
    minimized."""
    q = i // (n - 1)
    domain, rng = vine_points(n, q + 2), vine_points(n, q + 1)
    a, b = rng[i], rng[i + 1]
    step = (b - a) / n
    rng[i + 1 : i + 1] = [a + t * step for t in range(1, n)]  # cut leaf i
    return pairwise_map(n, list(zip(domain, rng)))


def set_sort_generator_map(n: int, i: int) -> PLMap:
    """Reference x_i: the range vine's points and leaf i's n - 1 cut points
    merged by sorting their set."""
    q, _ = divmod(i, n - 1)
    domain, rng = vine_points(n, q + 2), vine_points(n, q + 1)
    a, b = rng[i], rng[i + 1]
    step = (b - a) / n
    rng = sorted(set(rng) | {a + t * step for t in range(1, n)})
    return pairwise_map(n, list(zip(domain, rng)))


def left_fold_evaluate(w: GroupWord) -> PLMap:
    """Reference word map: compose the letter maps left to right."""
    acc = identity_map(w.arity)
    for let in w.letters:
        m = generator_map(w.arity, let.index)
        if let.exponent == -1:
            m = invert_map(m)
        acc = pointwise_compose(acc, m)
    return acc


def phi_on_word(w: GroupWord, k: int = 1) -> GroupWord:
    """Apply the shift k >= 0 times: indices >= 1 move up by k, x_0 is fixed."""
    if k < 0:
        raise DomainError("only nonnegative shift powers act on words")
    letters = tuple(
        GeneratorLetter(l.index + k if l.index >= 1 else 0, l.exponent)
        for l in w.letters
    )
    return GroupWord(w.arity, letters)


def apply(mat: CharacterMatrix, chi: Character) -> Character:
    """Matrix-vector product on the character's value vector."""
    if mat.arity != chi.arity:
        raise DomainError(f"matrix arity {mat.arity} vs character {chi.arity}")
    n = mat.arity
    values = tuple(
        sum((mat.entries[i][j] * chi.values[j] for j in range(n)), start=Fraction(0))
        for i in range(n)
    )
    return Character(n, values)


def fraction_orbit(point: SpherePoint, cap: int = 1024) -> frozenset[SpherePoint]:
    """Reference orbit: a depth-first walk that applies the full shift and
    flip matrices to Fraction values and normalizes each image with
    `sphere_point`; more than `cap` points raise ResourceLimitError, and a
    cap below 1 raises ValueError, as in `autos.d_orbit`."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    n = point.arity
    gens = (matrix_A(n), matrix_C(n))
    seen = {point}
    frontier = [point]
    while frontier:
        current = frontier.pop()
        chi = Character(n, current.values)
        for g in gens:
            image = sphere_point(apply(g, chi))
            if image not in seen:
                if len(seen) >= cap:
                    raise ResourceLimitError(f"orbit size {len(seen) + 1} exceeds the budget of {cap}")
                seen.add(image)
                frontier.append(image)
    return frozenset(seen)


def identity_matrix(n: int) -> CharacterMatrix:
    return CharacterMatrix(
        n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    )


def mat_mul(a: CharacterMatrix, b: CharacterMatrix) -> CharacterMatrix:
    if a.arity != b.arity:
        raise DomainError(f"matrix sizes {a.arity} vs {b.arity}")
    n = a.arity
    rows = tuple(
        tuple(sum(a.entries[i][k] * b.entries[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    return CharacterMatrix(n, rows)


def order_of(mat: CharacterMatrix, cap: int = 64) -> int | None:
    """Least k >= 1 with mat^k = identity, or None past the cap."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    ident = identity_matrix(mat.arity)
    acc = mat
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = mat_mul(acc, mat)
    return None


def mat_pow(mat: CharacterMatrix, k: int) -> CharacterMatrix:
    """mat^k for k >= 0, by k multiplications."""
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    acc = identity_matrix(mat.arity)
    for _ in range(k):
        acc = mat_mul(acc, mat)
    return acc


def reduction_identity_check(n: int, rho: Character) -> Character:
    """A^(n-3) C applied to a character with rho(x_0) = rho(x_{n-1}).

    Returns rho0 and checks the structural identity rho0(x_1) = 0.
    """
    if n < 3:
        raise DomainError(f"the reduction needs n >= 3, got {n}")
    if rho.arity != n:
        raise DomainError(f"character arity {rho.arity} != {n}")
    if rho.values[0] != rho.values[n - 1]:
        raise DomainError("need rho(x_0) = rho(x_{n-1})")
    rho0 = apply(mat_mul(mat_pow(matrix_A(n), n - 3), matrix_C(n)), rho)
    if rho0.values[1] != 0:
        raise InvariantViolationError(
            f"reduction produced rho0(x_1) = {rho0.values[1]} != 0"
        )
    return rho0


def binomial_cells(k: int) -> CellVector:
    """The k-torus complex for Z^k: (k choose j) cells in dimension j."""
    return cell_vector(tuple(comb(k, j) for j in range(k + 1)))


def per_m_chi_values(r: CellVector, m: int) -> tuple[int, ...]:
    """(chi_0, ..., chi_m), each its own alternating sum, O(m^2) in all.

    The first negative value raises InvariantViolationError with the
    message of `chi_m`.
    """
    values = []
    for k in range(m + 1):
        total = sum(r.value(i) if (k - i) % 2 == 0 else -r.value(i) for i in range(k + 1))
        if total < 0:
            raise InvariantViolationError(
                f"alternating cell sum {total} < 0 at m = {k} for {r}"
            )
        values.append(total)
    return tuple(values)
