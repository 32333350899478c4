"""Characters, the sphere, Sigma membership, kernel finiteness types."""

import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thompson_sigma import charspace
from thompson_sigma.autos import d_orbit
from thompson_sigma.charspace import (
    Character,
    SpherePoint,
    character,
    chi1,
    chi2,
    in_sigma1,
    in_sigma_m,
    kernel_finiteness,
    parse_character,
    sphere_point,
)
from thompson_sigma.errors import (
    ArityMismatchError,
    ConjectureRequiredError,
    ParseError,
    ZeroCharacterError,
)
from thompson_sigma.plrep import evaluate_word
from thompson_sigma.words import parse_word, word

from oracles import evaluate, fraction_orbit, rank_first_kernel_finiteness, rational_rank, sphere_values


def grid_characters(n, span):
    """All nonzero integer vectors with entries in [-span, span]."""
    def rec(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(-span, span + 1):
            yield from rec(prefix + [v])

    for values in rec([]):
        if any(v != 0 for v in values):
            yield character(n, values)


class TestBasics:
    def test_chi1_chi2(self):
        assert chi1(2).values == (-1, 0)
        assert chi2(2).values == (1, 1)
        assert chi1(3).values == (-1, 0, 0)
        assert tuple(a + b for a, b in zip(chi1(4).values, chi2(4).values)) == (0, 1, 1, 1)

    def test_constructor_stores_fractions(self):
        assert Character(2, (1, 2)) == character(2, (1, 2))
        chi = Character(3, [Fraction(1, 2), -3, 0])
        assert chi.values == (Fraction(1, 2), Fraction(-3), Fraction(0))
        assert all(type(v) is Fraction for v in chi.values)

    def test_constructor_refuses_floats_and_strings(self):
        # floats would decide Sigma membership and sphere points in binary
        # arithmetic; text is for `character` and `parse_character`
        for values in ((0.5, 1.0), (0.1, 0.3), (1, 2.0), ("1", 2), ("1/2", "3")):
            with pytest.raises(ValueError, match="^character values must be ints or Fractions, got "):
                Character(2, values)
        assert sphere_point(character(2, ("1/10", "3/10"))).values == (1, 3)

    def test_character_refuses_floats(self):
        # Fraction(0.1) is the binary float, so its ray is not (1, 3)
        for values in ((0.1, 0.3), (1, 2.0), (Fraction(1, 2), 0.5)):
            with pytest.raises(ValueError, match="^character values must be ints or Fractions, got "):
                character(2, values)
        assert character(2, ("1/10", Fraction(3, 10))) == character(2, (Fraction(1, 10), "3/10"))
        # a string is read as parse_character reads a value: no exponent, and a bad one is a ParseError
        for text, why in (("1e200000", "values take no exponent (e or E)"), ("1/0", "Fraction(1, 0)"),
                          ("abc", "Invalid literal for Fraction: 'abc'")):
            with pytest.raises(ParseError, match=f"^bad rational value {re.escape(repr(text))}: {re.escape(why)}$"):
                character(2, [text, "0"])
        assert character(2, [3, Fraction(-1, 2)]).values == (3, Fraction(-1, 2))

    def test_extension_rule(self):
        chi = character(3, (5, 7, 11))
        assert chi.value_at(3) == 7  # x_3 folds onto x_1
        assert chi.value_at(4) == 11
        assert chi.value_at(5) == 7

    def test_evaluate(self):
        assert evaluate(character(2, (1, 1)), parse_word(2, "x0 x1^-1")) == 0
        assert evaluate(chi1(2), parse_word(2, "x0")) == -1
        assert evaluate(character(2, (2, 3)), parse_word(2, "x2")) == 3

    def test_evaluate_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            evaluate(chi1(2), parse_word(3, "x0"))

    def test_parse(self):
        assert parse_character(2, "-1,0") == chi1(2)
        assert parse_character(2, "1/2, 3").values == (Fraction(1, 2), Fraction(3))
        with pytest.raises(ParseError):
            parse_character(2, "1")
        with pytest.raises(ParseError):
            parse_character(2, "a,b")
        with pytest.raises(ParseError):
            parse_character(2, "1/0,1")

    def test_parse_refuses_exponents_before_fraction(self, monkeypatch):
        assert parse_character(2, "0.5,-3").values == (Fraction(1, 2), Fraction(-3))

        def no_fraction(*args):
            raise AssertionError("Fraction saw an exponent")

        monkeypatch.setattr(charspace, "Fraction", no_fraction)
        for text in ("1e999999999,1", "2E5,0", "1,-1.5e-3"):
            with pytest.raises(ParseError, match="exponent"):
                parse_character(2, text)

    def test_sphere_point_normalization(self):
        assert sphere_point(character(2, (-2, 0))) == sphere_point(chi1(2))
        assert sphere_point(character(2, (3, 3))) == sphere_point(chi2(2))
        assert sphere_point(character(2, (-3, 3))).values == (-1, 1)
        with pytest.raises(ZeroCharacterError):
            sphere_point(character(2, (0, 0)))

    def test_sphere_point_constructor_normalizes(self):
        # it takes what Character takes and stores what sphere_point does
        assert SpherePoint(3, (2, 4, 6)) == sphere_point(character(3, (2, 4, 6)))
        assert SpherePoint(2, (-3, Fraction(3, 2))).values == (-1, Fraction(1, 2))
        for values in ((1.5, 2), (1, 2.0)):
            with pytest.raises(ValueError, match="^character values must be ints or Fractions, got "):
                SpherePoint(2, values)
        with pytest.raises(ValueError, match="^expected 2 values, got 3$"):
            SpherePoint(2, (1, 2, 3))
        with pytest.raises(ZeroCharacterError):
            SpherePoint(2, (0, 0))


class TestSpherePointRay:
    """A sphere point stores the primitive integer vector on its ray; its
    `values` are the Fractions of the reference normalization."""

    @staticmethod
    def seeded_vectors():
        # nonzero rational vectors, n = 2..6, with zeros and negative leads
        rng = random.Random("sphere ray")
        for k in range(600):
            n = 2 + k % 5
            v = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 9)) if rng.random() < 0.8 else Fraction(0)
                      for _ in range(n))
            if any(v):
                yield n, v

    def test_values_match_the_fraction_reference(self):
        for n, v in self.seeded_vectors():
            p = SpherePoint(n, v)
            assert p.values == sphere_values(v), v
            assert all(type(x) is Fraction for x in p.values)
            assert sphere_point(character(n, v)) == p

    def test_ray_is_primitive_and_points_the_same_way(self):
        for n, v in self.seeded_vectors():
            ray = SpherePoint(n, v).ray
            assert type(ray) is tuple and all(type(x) is int for x in ray)
            assert math.gcd(*ray) == 1
            k = next(i for i, x in enumerate(v) if x)
            assert ray[k] * v[k] > 0  # a positive multiple, not a negative one
            assert all(ray[i] * v[k] == v[i] * ray[k] for i in range(n)), (v, ray)

    def test_round_trips(self):
        for n, v in self.seeded_vectors():
            p = SpherePoint(n, v)
            for twin in (pickle.loads(pickle.dumps(p)), SpherePoint(n, p.values), SpherePoint(n, p.ray)):
                assert twin == p and hash(twin) == hash(p)

    def test_sphere_point_and_orbit_build_no_fraction(self, monkeypatch):
        chis = [character(3, (2, 4, 6)), chi2(4)]  # a Character holds Fractions; its sphere point none

        def no_fraction(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(charspace, "Fraction", no_fraction)
        points = [sphere_point(chi) for chi in chis]
        assert [p.ray for p in points] == [(1, 2, 3), (1, 1, 1, 1)]
        orbits = [d_orbit(p) for p in points]
        monkeypatch.undo()
        assert orbits == [fraction_orbit(p) for p in points]


def _ray_by_ratios(values):
    # the primitive integer vector on the ray, through as_integer_ratio
    ratios = [Fraction(q).as_integer_ratio() for q in values]
    den = math.lcm(*(d for _, d in ratios))
    ints = [p * (den // d) for p, d in ratios]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


class TestRay:
    def test_matches_the_integer_ratio_route(self):
        rng = random.Random(32)
        seen_zero = seen_negative = 0
        for _ in range(2000):
            n = rng.randrange(1, 7)
            values = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 36)) for _ in range(n))
            if not any(values):
                continue
            seen_zero += 0 in values
            seen_negative += any(v < 0 for v in values)
            assert charspace._ray(values) == _ray_by_ratios(values), values
        assert seen_zero and seen_negative

    def test_ints_and_distinct_denominators(self):
        assert charspace._ray((Fraction(1, 2), Fraction(-1, 3), Fraction(0))) == (3, -2, 0)
        assert charspace._ray((4, -6, 0)) == (2, -3, 0)
        with pytest.raises(ZeroCharacterError):
            charspace._ray((Fraction(0), 0))


class TestSigma1:
    def test_exceptional_points(self):
        assert not in_sigma1(chi1(2))
        assert not in_sigma1(character(2, (-2, 0)))
        assert in_sigma1(character(2, (0, 1)))
        assert not in_sigma1(chi2(3))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_positive_scaling_invariance(self, data):
        n = data.draw(st.sampled_from((2, 3)))
        values = data.draw(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n).filter(
                lambda vs: any(vs)
            )
        )
        chi = character(n, values)
        scale = Fraction(
            data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        )
        scaled = character(n, tuple(v * scale for v in values))
        assert in_sigma1(chi) == in_sigma1(scaled)

    def test_exactly_two_failures_on_grid(self):
        for n, span in ((2, 6), (3, 3)):
            failing = {
                sphere_point(chi)
                for chi in grid_characters(n, span)
                if not in_sigma1(chi)
            }
            assert failing == {sphere_point(chi1(n)), sphere_point(chi2(n))}


class TestSigmaM:
    def test_wedge_examples(self):
        assert not in_sigma_m(character(2, (0, 1)), 2)
        assert in_sigma_m(character(2, (1, -1)), 2)
        assert not in_sigma_m(chi2(3), 2)

    def test_m1_defers(self):
        assert in_sigma_m(character(2, (0, 1)), 1)
        assert not in_sigma_m(chi1(2), 1)

    def test_conjecture_gate(self):
        chi = character(3, (1, 2, 3))
        with pytest.raises(ConjectureRequiredError):
            in_sigma_m(chi, 3)
        assert in_sigma_m(chi, 3, assume_conjecture=True)
        # n = 2 never needs the flag
        assert in_sigma_m(character(2, (1, -1)), 7)

    def test_zero_character_rejected(self):
        with pytest.raises(ZeroCharacterError):
            in_sigma_m(character(2, (0, 0)), 2)

    def test_monotone_in_m(self):
        # Sigma^m inside Sigma^(m-1)
        for chi in grid_characters(2, 4):
            for m in (2, 3, 4):
                if in_sigma_m(chi, m):
                    assert in_sigma_m(chi, m - 1)
        for chi in grid_characters(3, 2):
            if in_sigma_m(chi, 2):
                assert in_sigma_m(chi, 1)


class TestKernelFiniteness:
    def test_full_rank_is_f_infinity(self):
        report = kernel_finiteness([[2, 0], [0, 3]])
        assert report.is_finitely_generated
        assert report.max_certified_f_type == "infinity"
        assert report.witness is None
        assert not report.assumed_conjecture

    def test_fg_but_not_f2(self):
        # annihilator of Z(1,1) is the (-1,1) direction: 2*chi1 + 1*chi2
        report = kernel_finiteness([[1, 1]])
        assert report.is_finitely_generated
        assert report.max_certified_f_type == 1
        assert report.witness is not None
        assert sphere_point(report.witness).values == (-1, 1)

    def test_not_finitely_generated(self):
        # the subgroup generated by G' and x_1: annihilator holds chi1
        report = kernel_finiteness([[0, 1]])
        assert not report.is_finitely_generated
        assert report.max_certified_f_type == 0
        assert sphere_point(report.witness) == sphere_point(chi1(2))

    def test_kernel_of_chi2_not_fg(self):
        for n in (2, 3, 4):
            rows = [
                [1 if c == i else (-1 if c == i + 1 else 0) for c in range(n)]
                for i in range(n - 1)
            ]
            report = kernel_finiteness(rows)
            assert not report.is_finitely_generated
            assert sphere_point(report.witness) == sphere_point(chi2(n))

    def test_x0_xn1_subgroup_at_least_f2(self):
        for n in (3, 4, 5):
            rows = [
                [1 if c == 0 else 0 for c in range(n)],
                [1 if c == n - 1 else 0 for c in range(n)],
            ]
            report = kernel_finiteness(rows)
            assert report.is_finitely_generated
            assert report.max_certified_f_type == 2
            assert not report.assumed_conjecture
            flagged = kernel_finiteness(rows, assume_conjecture=True)
            assert flagged.max_certified_f_type == "infinity"
            assert flagged.assumed_conjecture

    def test_m_max_below_one(self):
        for m_max in (0, -3):
            with pytest.raises(ValueError, match="m_max must be >= 1"):
                kernel_finiteness([[1, 1]], m_max=m_max)
        assert kernel_finiteness([[1, 1]], m_max=1).max_certified_f_type == 1
        assert kernel_finiteness([[1, 0, 0], [0, 0, 1]], m_max=1).max_certified_f_type == 1

    def test_witnesses_are_chi1_and_chi2(self):
        for n in (2, 3, 5):
            by_chi1 = kernel_finiteness([[0] + [1] * (n - 1)])  # chi1 vanishes, chi2 does not
            by_chi2 = kernel_finiteness([[1, -1] + [0] * (n - 2)])  # chi2 vanishes, chi1 does not
            assert by_chi1.witness == chi1(n) and by_chi1.witness != chi2(n)
            assert by_chi2.witness == chi2(n) and by_chi2.witness != chi1(n)
            assert chi1(n).values == (-1,) + (0,) * (n - 1)
            assert chi2(n).values == (1,) * n

    def test_wedge_witness_is_a_character(self):
        # built through _trusted: it equals what the checking constructor stores
        for rows in ([[1, 1]], [[1, 2, 3], [0, 1, -1]], [[2, 1, 1, 1]]):
            witness = kernel_finiteness(rows).witness
            assert witness == Character(len(rows[0]), witness.values)
            assert all(type(v) is Fraction for v in witness.values)
            assert all(sum(a * w for a, w in zip(row, witness.values)) == 0 for row in rows)

    def test_exceptional_cache_is_typed_and_bounded(self):
        chi1(2)
        for arity, message in ((2.0, r"an int, got 2\.0"), (True, ">= 2, got True")):
            for exceptional in (chi1, chi2):
                with pytest.raises(ParseError, match=f"^arity must be {message}$"):
                    exceptional(arity)
        for n in range(2, 60):
            kernel_finiteness([[1] + [0] * (n - 1)])
        assert charspace._exceptional.cache_info().currsize <= 16
        assert chi2(3) == Character(3, (1, 1, 1))

    def test_n2_wedge_missed_is_f_infinity_unconditionally(self):
        # annihilator of Z(1,-2) is spanned by (2,1): outside the wedge
        report = kernel_finiteness([[1, -2]])
        assert report.max_certified_f_type == "infinity"
        assert not report.assumed_conjecture


class TestKernelRowCount:
    """kernel_finiteness runs its full-rank test only on n or more rows; the
    reference runs it on every row set."""

    @staticmethod
    def seeded_row_sets(seed: str):
        # 1 to n + 1 rows, n = 2..6; the kinds aim at each branch: dense rows
        # (often full rank), x_0 = 0 (chi1 vanishes), sum 0 (chi2 vanishes),
        # and rows (a, b, ..., b) in the plane of the wedge
        rng = random.Random(seed)
        for n in range(2, 7):
            for count in range(1, n + 2):
                for k in range(40):
                    kind = k % 4
                    rows = []
                    for _ in range(count):
                        row = [rng.randint(-4, 4) for _ in range(n)]
                        if kind == 1:
                            row[0] = 0
                        elif kind == 2:
                            row[-1] = -sum(row[:-1])
                        elif kind == 3:
                            row = [rng.randint(-4, 4)] + [rng.randint(-4, 4)] * (n - 1)
                        rows.append(row)
                    yield n, rows

    def test_matches_rank_first_reference(self):
        outcomes, full_at_n = set(), 0
        for k, (n, rows) in enumerate(self.seeded_row_sets("kernel rows")):
            options = {"assume_conjecture": k % 3 == 0, "m_max": 1 + k % 5}
            got = kernel_finiteness(rows, **options)
            assert got == rank_first_kernel_finiteness(rows, **options), (rows, options)
            outcomes.add((got.is_finitely_generated, got.max_certified_f_type))
            full_at_n += n >= 3 and len(rows) == n and rational_rank(rows) == n
        assert outcomes >= {(True, "infinity"), (False, 0), (True, 1), (True, 2)}
        assert full_at_n >= 30  # the sets the row-count guard must still test


class TestGermIdentity:
    """chi1 and chi2 against the independent PL oracle: chi1(w) is the
    exponent of n in the slope of w's map at 0, chi2(w) that at 1."""

    def test_end_slopes(self):
        rng = random.Random(41)
        for k in range(600):
            n = 2 + k % 4
            w = word(n, [(rng.randrange(7), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))])
            slopes = evaluate_word(w).slopes()
            assert slopes[0] == Fraction(n) ** evaluate(chi1(n), w), w
            assert slopes[-1] == Fraction(n) ** evaluate(chi2(n), w), w

    def test_sigma1_against_germs(self):
        # N above G' is finitely generated unless every row's word
        # x_0^r_0 ... x_{n-1}^r_{n-1} has slope 1 at 0, or every one at 1;
        # random rank-deficient rows inside ker chi1, inside ker chi2, or free
        rng = random.Random(43)
        not_fg = 0
        for k in range(360):
            n = 2 + k % 4
            kind = k // 4 % 3
            rows = []
            for _ in range(rng.randint(1, n - 1)):
                row = [rng.randint(-3, 3) for _ in range(n)]
                if kind == 0:  # inside ker chi1
                    row[0] = 0
                elif kind == 1:  # inside ker chi2
                    row[-1] = -sum(row[:-1])
                rows.append(row)
            ends = [
                evaluate_word(word(n, [(i, 1 if r > 0 else -1) for i, r in enumerate(row) for _ in range(abs(r))])).slopes()
                for row in rows
            ]
            trivial_germs = all(sl[0] == 1 for sl in ends) or all(sl[-1] == 1 for sl in ends)
            assert kernel_finiteness(rows).is_finitely_generated is not trivial_germs, rows
            not_fg += trivial_germs
        assert 150 < not_fg < 300
