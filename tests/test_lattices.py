"""HNF lattices, the HNN ingredients, enumeration, chains."""

import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thompson_sigma import lattices
from thompson_sigma.charspace import character, chi2
from thompson_sigma.errors import MAX_LATTICES, DomainError, ParseError, RankDeficientError, ResourceLimitError
from thompson_sigma.lattices import (
    ChainSpec,
    SubgroupLattice,
    alpha,
    chain,
    enumerate_subgroups,
    hnf,
    index,
    intersect_with_M,
    member,
    restrict_character,
)
from thompson_sigma.words import abelianize, word

from oracles import brute_force_hnf_bases, brute_force_index_count, divisor_sum, full_lattice, kernel_intersect_with_M

RAW_KINDS = ("non-hnf", "negative-pivot", "extra-rows", "rank-deficient")


def raw_lattices(count=800, seed=2027):
    """`SubgroupLattice`s stored on raw bases through `_trusted`, which the
    constructor would reduce or refuse: a scrambled HNF basis, one with a
    negated row, n + 1 or n + 2 random rows, and fewer than n rows or a
    repeated multiple."""
    rng = random.Random(seed)
    for k in range(count):
        kind, n = RAW_KINDS[k % 4], rng.randint(2, 6)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if kind in ("non-hnf", "negative-pivot"):  # from an HNF basis
            rows = [[rng.randint(1, 4) if j == i else rng.randint(0, 3) if j < i else 0 for j in range(n)]
                    for i in range(n)]
        if kind == "non-hnf":
            for _ in range(3):  # elementary row operations keep the lattice
                (i, j), c = rng.sample(range(n), 2), rng.choice((-2, -1, 1, 2))
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == "negative-pivot":
            i = rng.randrange(n)
            rows[i] = [-a for a in rows[i]]
        elif kind == "extra-rows":
            rows += [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        elif rng.random() < 0.5:
            rows = rows[: rng.randrange(n)]
        else:
            rows[-1] = [rng.choice((-2, 0, 2)) * a for a in rows[0]]
        yield kind, SubgroupLattice._trusted(n, tuple(tuple(r) for r in rows))


def _outcome(f, lat):
    """f(lat), or the type and message of what it raised."""
    try:
        return f(lat)
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestHNF:
    def test_identity(self):
        lat = hnf([[1, 0], [0, 1]])
        assert lat.basis == ((1, 0), (0, 1))

    def test_even_sum_lattice(self):
        # rows (1,1),(1,-1) span {(a,b) : a+b even}
        lat = hnf([[1, 1], [1, -1]])
        assert lat.basis == ((2, 0), (1, 1))
        assert index(lat) == 2
        assert member(lat, (1, 1)) and member(lat, (2, 0))
        assert not member(lat, (1, 0))

    def test_row_order_irrelevant(self):
        rows = [[3, 0, 0], [1, 2, 0], [0, 1, 1]]
        for perm in itertools.permutations(rows):
            assert hnf(list(perm)) == hnf(rows)

    def test_idempotent(self):
        lat = hnf([[4, 2], [2, 3]])
        assert hnf(lat.basis) == lat

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            hnf([[1, 1], [2, 2]])
        with pytest.raises(RankDeficientError):
            hnf([[0, 1]])

    def test_constructor_stores_the_hnf(self):
        # a raw basis and its hnf give the same lattice, index, alpha and membership
        raw = (((1, 1), (1, -1)), ((-2, 0), (1, 3)), ((2, 1, 0), (1, 1, 1), (0, 3, 1)), ((2, 0), (0, 2), (1, 1)))
        for rows in raw:
            n = len(rows[0])
            lat, want = SubgroupLattice(n, rows), hnf([list(r) for r in rows])
            assert lat == want and (index(lat), alpha(lat)) == (index(want), alpha(want)), rows
            assert all(member(lat, v) == member(want, v) for v in itertools.product(range(-3, 4), repeat=n))
        lat = SubgroupLattice(2, ((1, 1), (1, -1)))
        assert (lat.basis, index(lat), alpha(lat), member(lat, (1, 0))) == (((2, 0), (1, 1)), 2, 2, False)

    def test_constructor_refuses_fewer_rows_than_the_arity(self):
        for rows in (((1, 0, 0),), ((0, 1, 0), (0, 0, 1)), ()):
            with pytest.raises(RankDeficientError):
                SubgroupLattice(3, rows)

    def test_arity_must_be_an_int(self):
        rows = [[1, 0], [0, 1]]
        calls = (lambda a: SubgroupLattice(a, rows), lambda a: SubgroupLattice(a, rows), lambda a: hnf(rows, arity=a))
        for call, arity in zip(calls, (2.0, "2", 2.0)):
            with pytest.raises(ParseError, match=f"^arity must be an int, got {re.escape(repr(arity))}$"):
                call(arity)
        for arity in (1, 0, -2):  # an int below 2 keeps the row-length message
            with pytest.raises(ValueError, match=r"^rows must all have length n >= 2$") as caught:
                SubgroupLattice(arity, [[1]])
            assert type(caught.value) is ValueError

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_unimodular_scramble_preserves_hnf(self, data):
        n = data.draw(st.sampled_from((2, 3)))
        diag = [data.draw(st.integers(1, 5)) for _ in range(n)]
        rows = [[diag[i] if j == i else 0 for j in range(n)] for i in range(n)]
        lat = hnf(rows)
        # elementary row operations keep the lattice
        scrambled = [list(r) for r in lat.basis]
        for _ in range(data.draw(st.integers(1, 6))):
            i = data.draw(st.integers(0, n - 1))
            j = data.draw(st.integers(0, n - 1))
            if i == j:
                continue
            c = data.draw(st.integers(-3, 3))
            scrambled[i] = [a + c * b for a, b in zip(scrambled[i], scrambled[j])]
        assert hnf(scrambled) == lat


class TestAlphaIndex:
    def test_examples(self):
        assert alpha(full_lattice(2)) == 1
        assert alpha(hnf([[1, 1], [1, -1]])) == 2
        assert alpha(hnf([[3, 0], [0, 1]])) == 3
        assert index(hnf([[2, 0], [0, 1]])) == 2

    def test_alpha_is_least_multiple_of_e0(self):
        for lat in enumerate_subgroups(2, 12):
            a = alpha(lat)
            assert member(lat, (a, 0))
            assert all(not member(lat, (k, 0)) for k in range(1, a))

    def test_alpha_divides_index(self):
        for n, max_index in ((2, 50), (3, 50), (4, 16)):
            for lat in enumerate_subgroups(n, max_index):
                assert index(lat) % alpha(lat) == 0


class TestIntersectTheta:
    def test_full_lattice_fixed(self):
        for n in (2, 3, 4):
            assert intersect_with_M(full_lattice(n)) == full_lattice(n)

    def test_n2_even_second_coordinate(self):
        # L = {(a,b) : b even} pulls back to {(v1,v2) : v1+v2 even}
        got = intersect_with_M(hnf([[1, 0], [0, 2]]))
        assert got == hnf([[1, 1], [1, -1]])

    def test_n3_even_first_coordinate(self):
        # psi never reaches coordinate 0, so the condition v0 even is vacuous
        got = intersect_with_M(hnf([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert got == full_lattice(3)

    def test_intersection_index_bound(self):
        # [Z^n : L_M] divides n * [Z^n : L]  (sanity bound)
        for n, cap in ((2, 12), (3, 6)):
            for lat in enumerate_subgroups(n, cap):
                got = index(intersect_with_M(lat))
                assert (index(lat) * n) % got == 0

    def test_intersection_by_brute_force(self):
        # check psi-preimage membership pointwise on a window
        for lat in enumerate_subgroups(2, 6):
            got = intersect_with_M(lat)
            for v1 in range(-4, 5):
                for v2 in range(-4, 5):
                    image = (0, v1 + v2)  # psi for n = 2
                    assert member(got, (v1, v2)) == member(lat, image)

    def test_intersection_by_brute_force_n3(self):
        # psi(v0, v1, v2) = (0, v0 + v2, v1); membership by back-substitution
        # only, so neither `eliminate` nor `hnf` is trusted here
        window = range(-3, 4)
        for lat in enumerate_subgroups(3, 6):
            got = intersect_with_M(lat)
            for v in itertools.product(window, repeat=3):
                assert member(got, v) == member(lat, (0, v[0] + v[2], v[1])), (lat, v)

    def test_index_identity(self):
        # psi maps Z^n onto {x_0 = 0}, so [Z^n : psi^-1 L] = [{x_0 = 0} : L with x_0 = 0],
        # and the projection of L to coordinate 0 is gcd(first column) * Z
        for n, cap in ((2, 60), (3, 20), (4, 8), (5, 4)):
            for lat in enumerate_subgroups(n, cap):
                first = math.gcd(*(row[0] for row in lat.basis))
                assert index(intersect_with_M(lat)) * first == index(lat), lat

    def test_matches_kernel_route(self):
        rng, dense = random.Random(27), []
        for _ in range(300):
            n = rng.randint(2, 6)
            dense.append(hnf([[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(n, n + 2))]))
        for lat in list(enumerate_subgroups(3, 20)) + list(enumerate_subgroups(4, 8)) + dense:
            assert intersect_with_M(lat) == kernel_intersect_with_M(lat), lat

    def test_raw_bases_match_kernel_route(self):
        kinds = set()
        for kind, lat in raw_lattices():
            want, got = (_outcome(f, lat) for f in (kernel_intersect_with_M, intersect_with_M))
            assert got == want, (kind, lat)
            kinds.add((kind, type(want).__name__))
        assert {k for k, _ in kinds} == set(RAW_KINDS)
        assert {t for _, t in kinds} == {"SubgroupLattice", "tuple"}  # results and refusals


class TestRestrictCharacter:
    def test_examples(self):
        assert restrict_character(character(2, (5, 7))).values == (7, 7)
        assert restrict_character(chi2(3)) == chi2(3)
        assert restrict_character(character(3, (1, 2, 3))).values == (2, 3, 2)

    def test_first_equals_last(self):
        rho = restrict_character(character(4, (9, 1, 2, 3)))
        assert rho.values[0] == rho.values[-1]


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_subgroups(2, 1)) == 1
        exactly_two = [l for l in enumerate_subgroups(2, 2) if index(l) == 2]
        assert len(exactly_two) == 3
        assert len(enumerate_subgroups(2, 3)) == 8  # sigma(1)+sigma(2)+sigma(3)

    def test_matches_divisor_sum(self):
        for k in range(1, 11):
            exact = [l for l in enumerate_subgroups(2, k) if index(l) == k]
            assert len(exact) == divisor_sum(k) == brute_force_index_count(2, k)

    def test_matches_brute_force_count(self):
        for n, max_index in ((3, 12), (4, 6)):
            lats = enumerate_subgroups(n, max_index)
            for k in range(1, max_index + 1):
                exact = sum(1 for l in lats if index(l) == k)
                assert exact == brute_force_index_count(n, k)

    def test_order_is_index_then_basis(self):
        for n, max_index in ((2, 40), (3, 10), (4, 6)):
            lats = list(enumerate_subgroups(n, max_index))
            assert lats == sorted(lats, key=lambda l: (l.index(), l.basis))

    def test_matches_brute_force_listing(self):
        # one arity per recursion depth of the enumeration, 1 to 6
        for n, max_index in ((2, 60), (3, 20), (4, 8), (5, 6), (6, 4), (7, 2)):
            listing = brute_force_hnf_bases(n, max_index)
            assert list(lattices.hnf_bases(n, max_index)) == listing, (n, max_index)
            lats = enumerate_subgroups(n, max_index)
            assert all(type(lat) is SubgroupLattice and lat.arity == n for lat in lats)
            assert [lat.basis for lat in lats] == listing, (n, max_index)

    def test_view_is_sized_and_reiterable(self):
        # the grid of test_matches_brute_force_listing
        for n, max_index in ((2, 60), (3, 20), (4, 8), (5, 6), (6, 4), (7, 2)):
            view = enumerate_subgroups(n, max_index)
            assert len(view) == sum(1 for _ in view), (n, max_index)
            assert list(view) == list(view), (n, max_index)
            assert list(view) == [SubgroupLattice(n, b) for b in lattices.hnf_bases(n, max_index)], (n, max_index)

    def test_a_pass_holds_no_lattices(self):
        # a pass over the view takes memory that does not grow with it, while
        # keeping the 33,044 lattices of (2, 200) takes megabytes
        view = enumerate_subgroups(2, 200)

        def peak(consume):
            tracemalloc.start()
            try:
                consume(view)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert len(view) == 33_044
        assert peak(lambda v: sum(1 for _ in v)) < 256 * 1024
        assert peak(list) > 4 * 1024 * 1024

    def test_enumeration_builds_what_the_constructor_builds(self):
        # the enumeration stores its bases unchecked; the census grid
        for n, max_index in ((2, 100), (3, 30), (4, 12)):
            for lat in enumerate_subgroups(n, max_index):
                assert lat == SubgroupLattice(n, lat.basis), (n, lat)

    def test_no_duplicates_and_canonical(self):
        lats = enumerate_subgroups(3, 6)
        assert len(set(lats)) == len(lats)
        for lat in lats:
            assert hnf(lat.basis) == lat
            assert index(lat) <= 6

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(lattices, "MAX_LATTICES", 10)
        with pytest.raises(ResourceLimitError):
            enumerate_subgroups(2, 30)

    def test_cap_boundary(self, monkeypatch):
        for n, max_index in ((2, 30), (3, 6), (4, 8), (5, 4)):
            monkeypatch.setattr(lattices, "MAX_LATTICES", MAX_LATTICES)
            everything = list(enumerate_subgroups(n, max_index))
            monkeypatch.setattr(lattices, "MAX_LATTICES", len(everything))
            assert list(enumerate_subgroups(n, max_index)) == everything
            monkeypatch.setattr(lattices, "MAX_LATTICES", len(everything) - 1)
            with pytest.raises(ResourceLimitError):
                enumerate_subgroups(n, max_index)

    def test_default_cap_refuses_before_any_lattice(self, monkeypatch):
        def no_bases(*args):
            raise AssertionError("lattice built past the cap")

        monkeypatch.setattr(lattices, "_bases_of_index", no_bases)
        # 4,606,849,681 and 1,704,708,877 lattices by the brute-force count
        for n, max_index in ((5, 100), (8, 16), (2, 10**18)):
            message = f"^lattice count exceeds the budget of {MAX_LATTICES}$"
            with pytest.raises(ResourceLimitError, match=message):
                enumerate_subgroups(n, max_index)
            with pytest.raises(ResourceLimitError, match=message):
                lattices.hnf_bases(n, max_index)  # on the call, not on the first next()

    def test_first_index_past_the_default_cap(self):
        # the `subgroups` argv of the CLI's budget table test
        assert lattices._basis_count(2, 1128, MAX_LATTICES) == 1_047_476
        assert lattices._basis_count(2, 1129, MAX_LATTICES) > MAX_LATTICES

    def test_basis_count_matches_brute_force(self):
        def total(n, max_index):
            return sum(brute_force_index_count(n, k) for k in range(1, max_index + 1))

        for n in range(2, 6):
            for max_index in range(1, 17):
                exact = total(n, max_index)
                assert lattices._basis_count(n, max_index, exact) == exact, (n, max_index)
                caps = [exact - 1]
                if n > 2 and max_index > 1:
                    caps.append(total(n - 1, max_index))  # passed on the way to arity n
                for cap in caps:
                    assert lattices._basis_count(n, max_index, cap) > cap, (n, max_index, cap)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_subgroups(1, 3)
        with pytest.raises(ValueError):
            enumerate_subgroups(2, 0)


class TestMembershipLaw:
    def test_word_image_membership(self):
        rng = random.Random(17)
        lat = hnf([[2, 1], [0, 3]])
        for _ in range(60):
            letters = [(rng.randrange(5), rng.choice((1, -1))) for _ in range(8)]
            w = word(2, letters)
            image = abelianize(w)
            brute = any(
                image == (2 * a, a + 3 * b)
                for a in range(-20, 21)
                for b in range(-20, 21)
            )
            assert member(lat, image) == brute


class TestChains:
    def test_scaling(self):
        lat = chain(ChainSpec("scaling", p=2), 3, 2)
        assert lat.basis == ((8, 0), (0, 8))
        assert index(lat) == 64

    def test_coordinate(self):
        lat = chain(ChainSpec("coordinate", p=2), 3, 2)
        assert index(lat) == 8
        assert lat.basis[0][0] == 8

    def test_scaling_nested(self):
        spec = ChainSpec("scaling", p=3)
        for s in range(4):
            outer = chain(spec, s, 2)
            inner = chain(spec, s + 1, 2)
            assert all(member(outer, row) for row in inner.basis)
            assert index(inner) > index(outer)

    def test_explicit(self):
        terms = (hnf([[2, 0], [0, 1]]), hnf([[3, 0], [0, 2]]))
        spec = ChainSpec("explicit", terms=terms)
        assert chain(spec, 1, 2) == terms[1]
        with pytest.raises(DomainError):
            chain(spec, 2, 2)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            ChainSpec("scaling", p=1)
        with pytest.raises(ValueError):
            ChainSpec("mystery", p=2)
        with pytest.raises(ValueError):
            ChainSpec("explicit", terms=())
        lat = hnf([[2, 0], [0, 2]])
        for terms, s in ((([[2, 0], [0, 2]],), 0), ([lat, ((1, 0), (0, 1))], 1)):
            bad = re.escape(repr(terms[s]))
            with pytest.raises(ValueError, match=rf"^must be a SubgroupLattice, got {bad} \(term {s} of an explicit chain\)$"):
                ChainSpec("explicit", terms=terms)
        assert hash(ChainSpec("explicit", terms=[lat])) == hash(ChainSpec("explicit", terms=(lat,)))

    def test_each_kind_takes_only_its_own_argument(self):
        lat = hnf([[2, 0], [0, 2]])
        for kind in ("scaling", "coordinate"):
            for terms in ([1], (lat,), ()):
                bad = re.escape(repr(terms))
                with pytest.raises(ValueError, match=rf"^must be None, got {bad} \(terms of a {kind} chain\)$"):
                    ChainSpec(kind, p=2, terms=terms)
        with pytest.raises(ValueError, match=r"^must be None, got 3 \(p of an explicit chain\)$"):
            ChainSpec("explicit", p=3, terms=[lat])
        with pytest.raises(ValueError, match="^explicit chain needs at least one term$"):
            ChainSpec("explicit", p=3)  # as CLI --chain explicit:3 has always read
        assert ChainSpec("scaling", p=2) == ChainSpec("scaling", 2, None)

    def test_p_must_be_an_int(self):
        for kind in ("scaling", "coordinate"):
            for p in ("3", 2.5):
                with pytest.raises(ValueError, match=rf"^must be an int, got {p!r} \(p of a {kind} chain\)$"):
                    ChainSpec(kind, p=p)
            with pytest.raises(ValueError, match=rf"^must be >= 2, got 1 \(p of a {kind} chain\)$"):
                ChainSpec(kind, p=1)
