"""Shift and flip matrices, their orders, word-level shift, orbits."""

import random
from fractions import Fraction
from math import gcd

import pytest

from thompson_sigma.autos import (
    CharacterMatrix,
    _generator_rows,
    d_orbit,
    delta_involution,
    matrix_A,
    matrix_C,
)
from thompson_sigma.charspace import SpherePoint, _ray, character, chi1, chi2, sphere_point
from thompson_sigma.errors import DomainError, ParseError, ResourceLimitError, ZeroCharacterError
from thompson_sigma.words import parse_word, word

from oracles import (
    apply,
    evaluate,
    fraction_orbit,
    identity_matrix,
    mat_mul,
    mat_pow,
    order_of,
    phi_on_word,
    reduction_identity_check,
    rho0_cycle_power,
)


def det(mat: CharacterMatrix) -> Fraction:
    n = mat.arity
    rows = [[Fraction(x) for x in r] for r in mat.entries]
    sign = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    out = Fraction(sign)
    for c in range(n):
        out *= rows[c][c]
    return out


class TestMatrixA:
    def test_display_n3(self):
        assert matrix_A(3).entries == ((1, 0, 0), (0, 0, 1), (0, 1, 0))

    def test_n2_is_identity(self):
        assert matrix_A(2) == identity_matrix(2)

    def test_rows_follow_the_cycle(self):
        # row i of A picks coordinate rho0(i), as the reference cycle gives it
        for n in range(2, 13):
            targets = [0] + [rho0_cycle_power(n, i, 1) for i in range(1, n)]
            assert matrix_A(n).entries == tuple(tuple(int(j == t) for j in range(n)) for t in targets), n

    def test_action(self):
        out = apply(matrix_A(3), character(3, (1, 2, 3)))
        assert out.values == (1, 3, 2)

    def test_order(self):
        assert order_of(matrix_A(2)) == 1
        assert order_of(matrix_A(4)) == 3
        for n in range(2, 9):
            assert mat_pow(matrix_A(n), n - 1) == identity_matrix(n)
            assert order_of(matrix_A(n)) == max(1, n - 1)

    def test_fixes_chi1_and_chi2(self):
        for n in (2, 3, 5):
            assert apply(matrix_A(n), chi1(n)) == chi1(n)
            assert apply(matrix_A(n), chi2(n)) == chi2(n)


class TestMatrixC:
    def test_display_n3(self):
        assert matrix_C(3).entries == ((-1, 0, 0), (-1, 0, 1), (-1, 1, 0))

    def test_display_n2(self):
        assert matrix_C(2).entries == ((-1, 0), (-1, 1))

    def test_rows_follow_delta(self):
        for n in range(2, 13):
            delta = delta_involution(n)
            want = [(-1,) + (0,) * (n - 1)]
            want += [tuple(-1 if j == 0 else int(j == delta[i]) for j in range(n)) for i in range(1, n)]
            assert matrix_C(n).entries == tuple(want), n

    def test_swaps_chi1_chi2(self):
        for n in range(2, 7):
            assert apply(matrix_C(n), chi1(n)) == chi2(n)
            assert apply(matrix_C(n), chi2(n)) == chi1(n)

    def test_involution(self):
        for n in range(2, 9):
            assert mat_mul(matrix_C(n), matrix_C(n)) == identity_matrix(n)
            assert order_of(matrix_C(n)) == 2

    def test_determinants(self):
        for n in range(2, 9):
            assert abs(det(matrix_A(n))) == 1
            assert abs(det(matrix_C(n))) == 1

    def test_delta_matches_cycle_formula(self):
        # delta(i) = rho0^(-i-1)(n-1); a mismatch here is a bug, not a choice
        for n in range(2, 11):
            delta = delta_involution(n)
            for i in range(1, n):
                assert delta[i] == rho0_cycle_power(n, n - 1, -(i + 1)), (n, i)
            # involution
            assert all(delta[delta[i]] == i for i in range(1, n))


class TestArity:
    def test_below_two_refused(self):
        # the check lives in CharacterMatrix, so both builders meet it there
        for n in (1, 0, -3):
            message = f"^arity must be >= 2, got {n}$"
            for build in (matrix_A, matrix_C):
                with pytest.raises(ValueError, match=message):
                    build(n)
            with pytest.raises(ValueError, match=message):
                CharacterMatrix(n, ((1,),) * max(n, 0))

    def test_shape_still_checked(self):
        with pytest.raises(ValueError, match="^expected a 2x2 matrix$"):
            CharacterMatrix(2, ((1, 0),))


class TestApplyAndConsistency:
    def test_identity_matrix(self):
        chi = character(3, (4, 5, 6))
        assert apply(identity_matrix(3), chi) == chi

    def test_shift_consistency_with_words(self):
        # evaluating A . chi on w equals evaluating chi on the shifted word
        cases = [
            (2, "x0 x1^-1 x3", (2, 5)),
            (3, "x2 x4 x0^-1", (1, -2, 3)),
            (4, "x1 x5^-1", (0, 1, 2, 3)),
        ]
        for n, text, values in cases:
            w = parse_word(n, text)
            chi = character(n, values)
            lhs = evaluate(apply(matrix_A(n), chi), w)
            rhs = evaluate(chi, phi_on_word(w, 1))
            assert lhs == rhs, (n, text, values)


class TestPhiOnWord:
    def test_examples(self):
        assert phi_on_word(word(2, [(1, 1)])) == word(2, [(2, 1)])
        assert phi_on_word(word(2, [(0, 1)])) == word(2, [(0, 1)])
        assert phi_on_word(word(2, [(3, 1)]), 2) == word(2, [(5, 1)])

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            phi_on_word(word(2, [(1, 1)]), -1)


class TestReductionIdentity:
    def test_n3_all_ones(self):
        rho0 = reduction_identity_check(3, character(3, (1, 1, 1)))
        assert rho0.values == (-1, 0, 0)

    def test_n4_first_equals_last(self):
        rho0 = reduction_identity_check(4, character(4, (1, 5, 1, 1)))
        assert rho0.values[1] == 0

    def test_chi2_lands_on_chi1_ray(self):
        for n in (3, 4, 5):
            rho0 = reduction_identity_check(n, chi2(n))
            assert sphere_point(rho0) == sphere_point(chi1(n))

    def test_preconditions(self):
        with pytest.raises(DomainError):
            reduction_identity_check(2, character(2, (1, 1)))
        with pytest.raises(DomainError):
            reduction_identity_check(3, character(3, (1, 1, 2)))


class TestOrbits:
    def test_exceptional_orbit(self):
        for n in (2, 3, 4):
            orbit = d_orbit(sphere_point(chi1(n)))
            assert orbit == {sphere_point(chi1(n)), sphere_point(chi2(n))}

    def test_orbit_scale_invariant(self):
        p = d_orbit(sphere_point(character(3, (1, 2, 3))))
        q = d_orbit(sphere_point(character(3, (2, 4, 6))))
        assert p == q

    def test_distinct_positive_coordinates_orbit_size(self):
        for n in (3, 4, 5):
            values = tuple(range(1, n + 1))
            orbit = d_orbit(sphere_point(character(n, values)))
            assert len(orbit) >= n - 1

    def test_complement_is_stable(self):
        for n in (2, 3, 4):
            complement = {sphere_point(chi1(n)), sphere_point(chi2(n))}
            hit = set()
            for p in complement:
                hit |= d_orbit(p)
            assert hit == complement


    def test_orbit_keeps_the_callers_point(self):
        # the start point is the caller's object; the other points are the
        # ones the Fraction walk finds
        for point in _seeded_points(13, 400) + [sphere_point(chi1(2)), TestOrbitCap.FIXED]:
            orbit = d_orbit(point)
            assert [p for p in orbit if p is point] == [point]
            assert orbit == fraction_orbit(point), point


class TestOrbitCap:
    FIXED = sphere_point(character(2, (0, 1)))  # C fixes it: a one-point orbit
    MOVING = sphere_point(character(2, (1, 2)))  # C sends it to (-1, 1)

    def test_cap_below_one_refused(self):
        for point in (self.FIXED, self.MOVING):
            for cap in (0, -5):
                with pytest.raises(ValueError, match=f"^cap must be >= 1, got {cap}$"):
                    d_orbit(point, cap=cap)

    def test_cap_one(self):
        assert d_orbit(self.FIXED, cap=1) == {self.FIXED}
        with pytest.raises(ResourceLimitError, match="^orbit size 2 exceeds the budget of 1$"):
            d_orbit(self.MOVING, cap=1)
        assert len(d_orbit(self.MOVING, cap=2)) == 2


def _seeded_points(seed, count):
    """Sphere points for n = 2..6 with values p/q, -6 <= p <= 6, 1 <= q <= 5."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        n = rng.randrange(2, 7)
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
        if any(values):
            points.append(sphere_point(character(n, values)))
    return points


def _outcome(walk, point, cap):
    try:
        return walk(point, cap=cap)
    except ResourceLimitError as exc:
        return f"raised: {exc}"


class TestOrbitOracle:
    def test_default_cap(self):
        for point in _seeded_points(9, 3000):
            assert d_orbit(point) == fraction_orbit(point), point

    def test_small_caps(self):
        # the Fraction walk takes 45 s (2-vCPU machine) over every point at
        # all twelve caps, so the points take the caps 1..12 in turn, 250 each
        raised = set()
        returned = set()
        for k, point in enumerate(_seeded_points(10, 3000)):
            cap = 1 + k % 12
            got = _outcome(d_orbit, point, cap)
            assert got == _outcome(fraction_orbit, point, cap), (point, cap)
            (raised if isinstance(got, str) else returned).add(cap)
        # orbits here have 1 to 10 points, so caps 1..9 see both outcomes
        assert raised == set(range(1, 10))
        assert returned == set(range(1, 13))

    def test_cap_below_one_refused_as_by_d_orbit(self):
        for point in (TestOrbitCap.FIXED, TestOrbitCap.MOVING):
            for cap in (0, -5):
                with pytest.raises(ValueError, match=f"^cap must be >= 1, got {cap}$"):
                    fraction_orbit(point, cap=cap)


class TestGeneratorRowsCache:
    def test_interleaved_arities(self):
        # arities 2..6 in turn, so a cache answering with the rows of another
        # arity, or rows built once and changed, gives a wrong orbit
        by_arity = {n: [] for n in range(2, 7)}
        for point in _seeded_points(13, 600):
            by_arity[point.arity].append(point)
        for k in range(min(map(len, by_arity.values()))):
            for n in (2, 5, 3, 6, 4):
                point = by_arity[n][k]
                first = d_orbit(point)
                assert first == fraction_orbit(point), point
                assert d_orbit(point) == first, point

    def test_rows_of_the_matrices_built_once(self):
        for n in (2, 3, 4, 7, 12):
            rows = _generator_rows(n)
            # the nonzero (column, entry) pairs of each row of A and of C
            assert rows == tuple(
                tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in mat.entries)
                for mat in (matrix_A(n), matrix_C(n))
            )
            assert _generator_rows(n) is rows
            # tuples throughout: no caller can change the cached value
            assert all(isinstance(mat, tuple) for mat in rows)
            assert all(isinstance(row, tuple) for mat in rows for row in mat)

    def test_cache_is_typed_and_bounded(self):
        _generator_rows(2)
        for arity, message in ((2.0, r"an int, got 2\.0"), ("3", "an int, got '3'"), (True, ">= 2, got True")):
            for build in (_generator_rows, matrix_A, matrix_C):
                with pytest.raises(ParseError, match=f"^arity must be {message}$"):
                    build(arity)
        for n in range(2, 60):
            d_orbit(sphere_point(chi1(n)))
        assert _generator_rows.cache_info().currsize <= 16
        assert d_orbit(sphere_point(chi2(3))) == {sphere_point(chi1(3)), sphere_point(chi2(3))}


class TestRayInvariant:
    @staticmethod
    def _image(mat, v):
        return tuple(sum(a * b for a, b in zip(row, v)) for row in mat.entries)

    def test_generators_map_primitive_to_primitive(self):
        rng = random.Random(11)
        for n in range(2, 9):
            for mat in (matrix_A(n), matrix_C(n)):
                for _ in range(200):
                    v = [rng.randint(-50, 50) for _ in range(n)]
                    if gcd(*v) != 1:
                        continue
                    assert gcd(*self._image(mat, v)) == 1, (n, v)

    def test_rows_are_sparse(self):
        for n in range(2, 9):
            assert all(sum(map(bool, row)) == 1 for row in matrix_A(n).entries)
            assert all(1 <= sum(map(bool, row)) <= 2 for row in matrix_C(n).entries)

    def test_ray_is_primitive_and_positive(self):
        rng = random.Random(12)
        for _ in range(500):
            n = rng.randrange(2, 7)
            values = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
            if not any(values):
                continue
            scale = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            ray = _ray(tuple(scale * v for v in values))
            assert gcd(*ray) == 1
            assert sphere_point(character(n, ray)) == sphere_point(character(n, values))

    def test_zero_has_no_ray(self):
        with pytest.raises(ZeroCharacterError):
            _ray((Fraction(0), Fraction(0)))

    def test_hand_built_point_walks_its_ray(self):
        # the constructor normalizes, so a hand-built point lies in its own orbit
        raw = SpherePoint(3, (Fraction(2), Fraction(4), Fraction(6)))
        assert raw == sphere_point(character(3, (2, 4, 6)))
        orbit = d_orbit(raw)
        assert orbit == d_orbit(sphere_point(character(3, raw.values)))
        assert raw in orbit
