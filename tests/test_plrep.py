"""The exact PL representation: relations, group laws, slope structure."""

import random
from fractions import Fraction

import pytest

from thompson_sigma.errors import ArityMismatchError
from thompson_sigma.plrep import (
    compose,
    evaluate_word,
    generator_map,
    identity_map,
    invert_map,
    maps_equal,
    plmap,
)
from thompson_sigma.words import identity_word, word

from oracles import is_power_of


def test_defining_relation_n2():
    # x_0^-1 x_1 x_0 = x_2
    lhs = compose(
        invert_map(generator_map(2, 0)),
        compose(generator_map(2, 1), generator_map(2, 0)),
    )
    assert maps_equal(lhs, generator_map(2, 2))


def test_relation_suite_small():
    for n in (2, 3):
        for i in range(1, 7):
            for j in range(i):
                conj = word(n, [(j, -1), (i, 1), (j, 1)])
                assert maps_equal(
                    evaluate_word(conj), evaluate_word(word(n, [(i + n - 1, 1)]))
                ), (n, i, j)


def test_generator_slopes_are_powers_of_n():
    for n in (2, 3, 4):
        for i in range(9):
            assert all(is_power_of(s, n) for s in generator_map(n, i).slopes())


def test_generator_conjugation_definition():
    # x_i = x_0^-1 x_{i-(n-1)} x_0 for i >= n
    for n in (2, 3, 4):
        for i in range(n, n + 4):
            built = evaluate_word(word(n, [(0, -1), (i - (n - 1), 1), (0, 1)]))
            assert maps_equal(built, generator_map(n, i))


def test_compose_identity_and_inverse():
    f = generator_map(2, 1)
    assert maps_equal(compose(f, identity_map(2)), f)
    assert maps_equal(compose(identity_map(2), f), f)
    assert maps_equal(compose(f, invert_map(f)), identity_map(2))
    assert maps_equal(compose(generator_map(2, 0), invert_map(generator_map(2, 0))), identity_map(2))


def test_relation_rearranged():
    # x_1 x_0 = x_0 x_2 as map composition
    lhs = compose(generator_map(2, 1), generator_map(2, 0))
    rhs = compose(generator_map(2, 0), generator_map(2, 2))
    assert maps_equal(lhs, rhs)


def test_compose_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        compose(generator_map(2, 0), generator_map(3, 0))


def test_invert_examples():
    assert maps_equal(invert_map(identity_map(2)), identity_map(2))
    f = generator_map(3, 2)
    assert maps_equal(invert_map(invert_map(f)), f)
    inv_slopes = invert_map(f).slopes()
    assert sorted(inv_slopes) == sorted(1 / s for s in f.slopes())


def test_evaluate_word_examples():
    assert maps_equal(evaluate_word(identity_word(2)), identity_map(2))
    assert maps_equal(
        evaluate_word(word(2, [(1, 1), (0, 1)])),
        evaluate_word(word(2, [(0, 1), (2, 1)])),
    )
    assert maps_equal(
        evaluate_word(word(3, [(2, 1), (1, 1), (0, 1)])),
        evaluate_word(word(3, [(0, 1), (3, 1), (6, 1)])),
    )


def test_maps_equal_examples():
    f = generator_map(2, 1)
    assert maps_equal(f, f)
    assert not maps_equal(identity_map(2), generator_map(2, 0))
    assert maps_equal(f, invert_map(invert_map(f)))


def test_associativity_random_triples():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.choice((2, 3))
        f, g, h = (
            evaluate_word(
                word(n, [(rng.randrange(4), rng.choice((1, -1))) for _ in range(4)])
            )
            for _ in range(3)
        )
        assert maps_equal(compose(compose(f, g), h), compose(f, compose(g, h)))


def test_slope_closure_and_denominators():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.choice((2, 3))
        letters = [(rng.randrange(5), rng.choice((1, -1))) for _ in range(8)]
        m = evaluate_word(word(n, letters))
        assert all(is_power_of(s, n) for s in m.slopes())
        for x, y in m.breakpoints:
            for value in (x, y):
                d = value.denominator
                while d % n == 0:
                    d //= n
                assert d == 1, f"denominator of {value} is not a power of {n}"


def test_breakpoints_minimized():
    # a redundant collinear point must not survive construction
    f = plmap(
        2,
        [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(1)),
        ],
    )
    assert f.breakpoints == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))


def test_quadruple_serialization():
    quads = generator_map(2, 0).to_quadruples()
    assert quads[0] == ["0", "1", "0", "1"]
    assert quads[1] == ["1", "2", "1", "4"]
    assert all(len(q) == 4 and all(isinstance(s, str) for s in q) for q in quads)
