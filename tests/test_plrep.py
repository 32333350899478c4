"""The exact PL representation: relations, group laws, slope structure."""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from thompson_sigma import plrep
from thompson_sigma.errors import MAX_PL_INDEX, MAX_PL_WORK, ArityMismatchError, ResourceLimitError
from thompson_sigma.plrep import (
    PLMap,
    _coincidences_dropped,
    compose,
    evaluate_at,
    evaluate_word,
    generator_map,
    identity_map,
    invert_map,
    maps_equal,
)
from thompson_sigma.words import _LEAF, normal_form, parse_word, word

from oracles import (
    identity_word,
    is_power_of,
    left_fold_evaluate,
    pairwise_minimized,
    pointwise_compose,
    pointwise_evaluate,
    set_sort_generator_map,
    vine_generator_map,
)

GOLDEN = Path(__file__).parent / "data" / "plrep_golden.json"


def random_map(rng, n, length, top):
    letters = [(rng.randrange(top), rng.choice((1, -1))) for _ in range(length)]
    return evaluate_word(word(n, letters))


def collinear_runs(rng):
    """Corners of a random increasing PL map from (0,0) to (1,1), each segment
    carrying a run of 0 to 5 more points on its line, and the run lengths.

    A run is in order, or it repeats points and steps back along its line:
    `PLMap(...)` refuses such points, but on increasing points alone a
    minimizing pass that tests against the wrong neighbour on the right line
    would go unseen.
    """
    m = rng.randint(1, 5)

    def cuts():
        d = rng.choice((2, 3, 6, 7, 12, 30, 64))
        d *= -(-m // d)  # room for m - 1 distinct cuts
        return [Fraction(0), *sorted(Fraction(c, d) for c in rng.sample(range(1, d), m - 1)), Fraction(1)]

    corners = list(zip(cuts(), cuts()))
    points, runs = [corners[0]], []
    for (xa, ya), (xb, yb) in zip(corners, corners[1:]):
        c = rng.randint(0, 5)
        if rng.random() < 0.3:
            ts = [Fraction(rng.randint(0, 6), 6) for _ in range(c)]
        else:
            ts = sorted(Fraction(rng.randint(1, q - 1), q) for q in rng.choices((2, 5, 9, 60), k=c))
        points += [(xa + t * (xb - xa), ya + t * (yb - ya)) for t in ts]
        points.append((xb, yb))
        runs.append(c)
    return points, runs


def coincident_breakpoints(f, g):
    """Interior f-breakpoints that land exactly on the image of a g-breakpoint."""
    return {u for u, _ in f.breakpoints[1:-1]} & {y for _, y in g.breakpoints[1:-1]}


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
    f = PLMap(
        2,
        [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(1)),
        ],
    )
    assert f.breakpoints == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))


def minimized(points):
    """`PLMap(...)`'s minimizing pass: every interior point tested, from the last."""
    return plrep._coincidences_dropped(list(points), range(1, len(points) - 1))


class TestMinimized:
    """`PLMap(...)`'s minimizing pass, which tests each point against its
    neighbours from the last, against the pairwise pass, which carries the
    last kept point forward."""

    def test_matches_pairwise(self):
        rng = random.Random(12)
        first = last = 0
        for _ in range(600):
            points, runs = collinear_runs(rng)
            assert minimized(points) == pairwise_minimized(points), points
            first += runs[0] > 0  # a run from (0,0)
            last += runs[-1] > 0  # a run into (1,1)
        assert first > 300 and last > 300

    def test_short_point_lists(self):
        assert minimized([]) == ()
        for points in ([], [(Fraction(0), Fraction(0))], [(Fraction(1), Fraction(1))], [(0, 0)]):
            with pytest.raises(ValueError, match=r"^breakpoints must run from \(0,0\) to \(1,1\)$"):
                PLMap(2, points)
            with pytest.raises(ValueError, match=r"^breakpoints must run from \(0,0\) to \(1,1\)$"):
                PLMap(2, tuple(points))
        assert PLMap(2, [(0, 0), (1, 1)]) == identity_map(2)

    def test_float_coordinates_refused(self):
        with pytest.raises(ValueError, match="^breakpoint coordinates must be ints or Fractions"):
            PLMap(2, [(0, 0), (0.5, Fraction(1, 2)), (1, 1)])


class TestConstructorMinimizes:
    """`PLMap(...)` checks the points as given, then stores them minimized,
    so maps equal as functions have equal fields."""

    def test_collinear_runs(self):
        rng = random.Random(22)
        built = refused = 0
        for _ in range(400):
            points, _ = collinear_runs(rng)
            if all(p[0] < q[0] and p[1] < q[1] for p, q in zip(points, points[1:])):
                f = PLMap(2, points)
                assert f.breakpoints == pairwise_minimized(points), points
                assert f == PLMap(2, pairwise_minimized(points))
                built += 1
            else:  # a run that repeats a point or steps back
                with pytest.raises(ValueError, match="^breakpoints must be strictly increasing$"):
                    PLMap(2, points)
                refused += 1
        assert built > 100 and refused > 100

    def test_collinear_identity(self):
        half = Fraction(1, 2)
        f = PLMap(2, ((0, 0), (half, half), (1, 1)))
        assert f == identity_map(2) and maps_equal(f, identity_map(2))


def test_quadruple_serialization():
    quads = generator_map(2, 0).to_quadruples()
    assert quads[0] == ["0", "1", "0", "1"]
    assert quads[1] == ["1", "2", "1", "4"]
    assert all(len(q) == 4 and all(isinstance(s, str) for s in q) for q in quads)


class TestComposeOracle:
    """The one-walk `compose` against the pointwise oracle."""

    def test_seeded_pairs(self, monkeypatch):
        # the walk emits every point once, in increasing order, before its
        # coincident points are tested; a coincident breakpoint emitted twice
        # would be dropped again by that test, so check the emitted points
        dropped = plrep._coincidences_dropped

        def checked(points, at):
            assert all(p[0] < q[0] and p[1] < q[1] for p, q in zip(points, points[1:]))
            return dropped(points, at)

        rng = random.Random(6)
        coincident = 0
        for k in range(300):
            n = 2 + k % 3
            f = random_map(rng, n, rng.randint(0, 12), 6)
            g = random_map(rng, n, rng.randint(0, 12), 6)
            coincident += bool(coincident_breakpoints(f, g))
            with monkeypatch.context() as m:
                m.setattr(plrep, "_coincidences_dropped", checked)
                got = compose(f, g)
            assert got.breakpoints == pointwise_compose(f, g).breakpoints, (n, f, g)
        assert coincident > 100  # the branch where both walks advance is exercised

    def test_identity_and_inverse_operands(self):
        rng = random.Random(7)
        for k in range(90):
            n = 2 + k % 3
            f = random_map(rng, n, rng.randint(1, 16), 7)
            one = identity_map(n)
            for a, b in ((f, one), (one, f), (one, one), (f, invert_map(f)), (invert_map(f), f)):
                assert compose(a, b).breakpoints == pointwise_compose(a, b).breakpoints
            assert maps_equal(compose(f, invert_map(f)), one)
            assert len(coincident_breakpoints(f, invert_map(f))) == len(f.breakpoints) - 2

    def test_coincident_breakpoints(self):
        # x_0 o x_1 at n = 2: x_1 sends its breakpoints 1/2 to 1/2 and 7/8
        # to 3/4, both breakpoints of x_0
        f, g = generator_map(2, 0), generator_map(2, 1)
        assert coincident_breakpoints(f, g) == {Fraction(1, 2), Fraction(3, 4)}
        assert compose(f, g).breakpoints == pointwise_compose(f, g).breakpoints


def grid_map(rng):
    """A random map built by `PLMap(...)` through up to 5 interior points on
    the grid of a denominator that is no power of 2, 3 or 4."""
    d = rng.choice((3, 5, 6, 7, 10, 12, 30))
    m = rng.randint(0, min(5, d - 1))
    xs, ys = (sorted(Fraction(c, d) for c in rng.sample(range(1, d), m)) for _ in range(2))
    return PLMap(2, [(0, 0), *zip(xs, ys), (1, 1)])


class TestCoincidentPointsOnly:
    """Composing two minimized maps, only a point where an f-breakpoint meets
    a g-breakpoint's image can be collinear, so `compose` tests only those:
    over the seeded suites its map is `pairwise_minimized` of the whole walk, and
    every point it drops lies over `coincident_breakpoints(f, g)`."""

    def pairs(self):
        rng = random.Random(6)  # the seeded pairs of TestComposeOracle
        for k in range(300):
            n = 2 + k % 3
            yield random_map(rng, n, rng.randint(0, 12), 6), random_map(rng, n, rng.randint(0, 12), 6)
        rng = random.Random(7)  # and its identity and inverse operands
        for k in range(90):
            n = 2 + k % 3
            f = random_map(rng, n, rng.randint(1, 16), 7)
            yield from ((f, identity_map(n)), (identity_map(n), f), (f, invert_map(f)), (invert_map(f), f))
        rng = random.Random(25)  # maps on grids of non-n-adic points
        for _ in range(400):
            f, g, h = grid_map(rng), grid_map(rng), grid_map(rng)
            yield from ((f, g), (f, invert_map(f)), (f, compose(invert_map(f), h)), (compose(h, g), invert_map(g)))

    def test_matches_minimized_walk(self, monkeypatch):
        walks = []

        def recording(points, at):
            walks.append(list(points))
            return _coincidences_dropped(points, at)

        monkeypatch.setattr(plrep, "_coincidences_dropped", recording)
        kept = dropped = 0
        for f, g in list(self.pairs()):
            walks.clear()
            h = compose(f, g)
            (walk,) = walks
            assert h.breakpoints == pairwise_minimized(walk), (f, g)
            images, coincident = dict(g.breakpoints), coincident_breakpoints(f, g)
            gone = set(walk) - set(h.breakpoints)
            assert all(images.get(x) in coincident for x, _ in gone), (f, g)
            kept += len(coincident) - len(gone)
            dropped += len(gone)
        assert kept > 500 and dropped > 3000, (kept, dropped)


def test_generator_map_matches_set_and_sort():
    for n in range(2, 7):
        for i in range(65):
            assert generator_map(n, i) == set_sort_generator_map(n, i), (n, i)


def test_generator_map_matches_vine_definition():
    # the closed form against the vines: every n <= 16 with i <= 64, and the
    # indices around the first multiples of n - 1 and at the budget, up to
    # (256, 256)
    pairs = {(n, i) for n in range(2, 17) for i in range(65)}
    for n in (2, 3, 15, 16, 17, 32, 33, 64, 100, 128, 129, 255, 256):
        around = (n - 2, n - 1, n, 2 * n - 3, 2 * n - 2, 2 * n - 1, 255, 256)
        pairs.update((n, i) for i in around if 0 <= i <= MAX_PL_INDEX)
    for n, i in sorted(pairs):
        assert generator_map(n, i) == vine_generator_map(n, i), (n, i)


class TestEvaluateWord:
    def test_matches_left_fold(self):
        rng = random.Random(8)
        for k in range(90):
            n = 2 + k % 3
            w = word(n, [(rng.randrange(7), rng.choice((1, -1))) for _ in range(rng.randint(0, 20))])
            assert evaluate_word(w).breakpoints == left_fold_evaluate(w).breakpoints, w

    def test_golden_quadruples(self):
        # 200 seeded words (n = 2, 3; up to 200 letters, indices below 8)
        # with the quadruples of the left fold of the pointwise composition
        cases = json.loads(GOLDEN.read_text())
        assert len(cases) == 200
        for case in cases:
            w = parse_word(case["n"], case["word"])
            assert evaluate_word(w).to_quadruples() == case["quadruples"], case["word"]

    def test_evaluate_at_matches_oracle(self):
        rng = random.Random(10)
        for k in range(60):
            f = random_map(rng, 2 + k % 3, rng.randint(0, 10), 6)
            points = [x for x, _ in f.breakpoints]
            points += [Fraction(rng.randint(0, 999), 999) for _ in range(10)]
            for t in points:
                assert evaluate_at(f, t) == pointwise_evaluate(f, t) == f(t)
        with pytest.raises(ValueError):
            evaluate_at(identity_map(2), Fraction(3, 2))

    def test_evaluate_at_refuses_floats(self):
        f = generator_map(2, 0)
        assert f(Fraction(3, 10)) == Fraction(3, 20) and f(1) == 1
        for t in (0.3, 0.0, 1.0, "1/2"):
            for call in (f, lambda t: evaluate_at(f, t)):
                with pytest.raises(ValueError, match="^point must be an int or a Fraction"):
                    call(t)


class TestIndexBudget:
    def test_generator_map(self, monkeypatch):
        assert evaluate_word(word(2, [(MAX_PL_INDEX, 1)])) == generator_map(2, MAX_PL_INDEX)

        def no_map(*args):
            raise AssertionError("map built past the budget")

        monkeypatch.setattr(plrep, "PLMap", no_map)
        for n in (2, 3):
            with pytest.raises(ResourceLimitError, match=f"^generator index {MAX_PL_INDEX + 1} exceeds the budget of {MAX_PL_INDEX}$"):
                generator_map(n, MAX_PL_INDEX + 1)

    def test_evaluate_word_checks_before_any_map(self, monkeypatch):
        def no_map(*args):
            raise AssertionError("map built before the budget check")

        monkeypatch.setattr(plrep, "generator_map", no_map)
        w = word(2, [(0, 1), (MAX_PL_INDEX + 1, -1), (1, 1)])
        with pytest.raises(ResourceLimitError, match=f"^generator index {MAX_PL_INDEX + 1} exceeds the budget of {MAX_PL_INDEX}$"):
            evaluate_word(w)

    def test_work_budget_checks_before_any_map(self, monkeypatch):
        # n = 2: each x254 counts its 256 carets times the bit length 2
        letters = [(254, 1)] * (MAX_PL_WORK // 512)
        at = word(2, letters)
        assert evaluate_word(at).breakpoints == left_fold_evaluate(at).breakpoints

        def no_map(*args):
            raise AssertionError("map built before the budget check")

        monkeypatch.setattr(plrep, "generator_map", no_map)
        past = word(2, [*letters, (0, -1)])
        with pytest.raises(ResourceLimitError, match=f"^PL work {MAX_PL_WORK + 4} exceeds the budget of {MAX_PL_WORK}$"):
            evaluate_word(past)

    def test_inverse_generator_map(self, monkeypatch):
        # every n <= 16 with i <= 64, and the budget's edges up to (256, 256)
        pairs = {(n, i) for n in range(2, 17) for i in range(65)}
        for n in (2, 3, 16, 17, MAX_PL_INDEX - 1, MAX_PL_INDEX):
            pairs.update((n, i) for i in (0, 1, MAX_PL_INDEX - 1, MAX_PL_INDEX))
        for n, i in sorted(pairs):
            assert plrep.inverse_generator_map(n, i) == invert_map(generator_map(n, i)), (n, i)

        def no_map(*args):
            raise AssertionError("map built past the budget")

        monkeypatch.setattr(plrep, "PLMap", no_map)
        monkeypatch.setattr(plrep, "invert_map", no_map)
        cached = plrep.inverse_generator_map.cache_info().currsize
        for _ in range(3):  # no refusal is cached
            with pytest.raises(ResourceLimitError, match=f"^generator index {MAX_PL_INDEX + 1} exceeds the budget of {MAX_PL_INDEX}$"):
                plrep.inverse_generator_map(2, MAX_PL_INDEX + 1)
            with pytest.raises(ResourceLimitError, match=f"^arity {MAX_PL_INDEX + 1} exceeds the budget of {MAX_PL_INDEX}$"):
                plrep.inverse_generator_map(MAX_PL_INDEX + 1, 0)
        assert plrep.inverse_generator_map.cache_info().currsize == cached

    def test_arity(self, monkeypatch):
        assert evaluate_word(word(MAX_PL_INDEX, [(1, 1)])) == generator_map(MAX_PL_INDEX, 1)

        def no_map(*args):
            raise AssertionError("map built before the budget check")

        monkeypatch.setattr(plrep, "PLMap", no_map)
        with pytest.raises(ResourceLimitError, match=f"^arity {MAX_PL_INDEX + 1} exceeds the budget of {MAX_PL_INDEX}$"):
            generator_map(MAX_PL_INDEX + 1, 0)
        monkeypatch.setattr(plrep, "generator_map", no_map)
        monkeypatch.setattr(plrep, "identity_map", no_map)
        for letters in ([], [(0, 1), (1, -1)]):
            with pytest.raises(ResourceLimitError, match=f"^arity {MAX_PL_INDEX + 1} exceeds the budget of {MAX_PL_INDEX}$"):
                evaluate_word(word(MAX_PL_INDEX + 1, letters))


def cancelling_word(rng, n, top):
    """A random word with 1 to 3 cancelling pairs x_i^e x_i^-e inserted, each
    at a random place or, half the time, nested inside the last one; and
    whether one was nested."""
    letters = [(rng.randrange(top), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))]
    pos, nested = None, False
    for _ in range(rng.randint(1, 3)):
        if pos is not None and rng.random() < 0.5:
            pos, nested = pos + 1, True
        else:
            pos = rng.randrange(len(letters) + 1)
        i, e = rng.randrange(top), rng.choice((1, -1))
        letters[pos:pos] = [(i, e), (i, -e)]
    return word(n, letters), nested


class TestFreeReduction:
    """`evaluate_word` reduces its word freely before the product tree."""

    def test_matches_left_fold(self):
        # the left fold composes every letter, cancelling pairs included
        rng = random.Random(31)
        nested = 0
        for k in range(90):
            w, was_nested = cancelling_word(rng, 2 + k % 3, 5)
            nested += was_nested
            assert evaluate_word(w).breakpoints == left_fold_evaluate(w).breakpoints, w
        assert nested > 20

    def test_empty_reduction_is_the_identity(self):
        for n in (2, 3, 4):
            for letters in (
                [(0, 1), (0, -1)],
                [(3, -1), (1, 1), (2, 1), (2, -1), (1, -1), (3, 1)],
                [(5, 1), (5, -1), (0, -1), (0, 1), (5, 1), (5, -1)],
            ):
                assert evaluate_word(word(n, letters)) == identity_map(n)
        # only adjacent inverse letters cancel
        assert evaluate_word(word(2, [(1, 1), (1, 1), (1, -1)])) == generator_map(2, 1)
        kept = word(3, [(1, 1), (2, -1), (0, 1), (0, 1), (2, 1)])
        assert evaluate_word(kept) == left_fold_evaluate(kept)

    def test_work_budget_counts_the_word_as_given(self, monkeypatch):
        # x0^2049 x0^-2049 at n = 2 reduces to nothing, but its work is
        # (2 * 4098) times the bit length 2
        def no_map(*args):
            raise AssertionError("map built before the budget check")

        monkeypatch.setattr(plrep, "generator_map", no_map)
        monkeypatch.setattr(plrep, "identity_map", no_map)
        w = word(2, [(0, 1)] * 2049 + [(0, -1)] * 2049)
        with pytest.raises(ResourceLimitError, match=f"^PL work 16392 exceeds the budget of {MAX_PL_WORK}$"):
            evaluate_word(w)


class TestComposite:
    """`compose` and `invert_map` build their maps without `PLMap.__init__`'s
    checks.  Over the seeded suites, every point list `compose` walks passes
    those checks, and every composite and inverse rebuilds unchanged through
    them."""

    def test_seeded_composites_rebuild_through_the_checks(self, monkeypatch):
        built, walked = [], []

        def recording(f, g):
            built.append(compose(f, g))
            return built[-1]

        def dropped(points, at):
            walked.append(list(points))  # the walk as emitted: points loses its drops
            return _coincidences_dropped(points, at)

        monkeypatch.setattr(plrep, "compose", recording)  # evaluate_word's too
        monkeypatch.setattr(plrep, "_coincidences_dropped", dropped)
        rng = random.Random(6)  # the seeded pairs of TestComposeOracle
        for k in range(300):
            n = 2 + k % 3
            f = random_map(rng, n, rng.randint(0, 12), 6)
            g = random_map(rng, n, rng.randint(0, 12), 6)
            recording(f, g)
        rng = random.Random(7)  # and its identity and inverse operands
        for k in range(90):
            n = 2 + k % 3
            f = random_map(rng, n, rng.randint(1, 16), 7)
            for a, b in ((f, identity_map(n)), (identity_map(n), f), (f, invert_map(f)), (invert_map(f), f)):
                recording(a, b)
        for n in (2, 3, 4):  # the relation suite of criterion 2
            for i in range(1, 9):
                for j in range(i):
                    evaluate_word(word(n, [(j, -1), (i, 1), (j, 1)]))
        for points in walked:  # a repeated point would be minimized away unseen
            assert points[0] == (0, 0) and points[-1] == (1, 1), points
            assert all(type(c) is Fraction for p in points for c in p), points
            assert all(a < c and b < d for (a, b), (c, d) in zip(points, points[1:])), points
        for h in built:
            assert type(h) is PLMap and PLMap(h.arity, h.breakpoints) == h, h
            inverse = invert_map(h)
            assert type(inverse) is PLMap and PLMap(h.arity, inverse.breakpoints) == inverse, h
        assert len(built) > 4000 and len(walked) >= len(built)


class TestCoordinateTypes:
    def test_plmap_refuses_other_coordinates(self):
        for bad in (0.5, "1/2", None, 0.0):
            points = ((0, 0), (bad, Fraction(1, 4)), (1, 1))
            with pytest.raises(ValueError, match="^breakpoint coordinates must be ints or Fractions"):
                PLMap(2, points)
        with pytest.raises(ValueError, match="^breakpoint coordinates must be ints or Fractions"):
            PLMap(2, ((0, 0), (Fraction(1, 2), 0.25), (1.0, 1)))
        ok = PLMap(2, ((0, 0), (Fraction(1, 2), Fraction(1, 4)), (1, 1)))
        assert ok.to_quadruples()[1] == ["1", "2", "1", "4"]

    def test_int_coordinates_stored_as_fractions(self):
        for points in (((0, 0), (1, 1)), [(0, 0), (1, 1)], ((False, False), (True, True))):
            f = PLMap(2, points)
            assert repr(f) == repr(identity_map(2)) and f == identity_map(2)
            for value in (evaluate_at(f, 0), evaluate_at(f, 1), f(Fraction(1, 3)), *f.slopes()):
                assert type(value) is Fraction, points
        f = PLMap(3, ((0, 0), (Fraction(1, 3), Fraction(1, 9)), (1, 1)))
        assert all(type(c) is Fraction for p in f.breakpoints for c in p)
        assert f == PLMap(3, tuple((Fraction(x), Fraction(y)) for x, y in f.breakpoints))


class TestLongWordRoute:
    """`normal_form` of a word longer than `_LEAF` letters merges the forms of
    its runs; the PL oracle, which shares none of the rewriting rules, checks
    that the merged form is the same element."""

    def test_normal_form_keeps_the_map(self):
        rng = random.Random("long-word route")
        compared = Counter()
        for k in range(24):  # n = 2..4, each with 2, 3, 4 and 5 runs twice
            n, runs = 2 + k % 3, 2 + (k // 3) % 4
            length = rng.randint(_LEAF * (runs - 1) + 1, min(_LEAF * runs, 260))
            w = word(n, [(rng.randrange(7), rng.choice((1, -1))) for _ in range(length)])
            try:
                target = evaluate_word(normal_form(w).to_word())
            except ResourceLimitError:  # its indices grew past MAX_PL_INDEX or MAX_PL_WORK
                continue
            assert evaluate_word(w) == target, (n, length)
            compared[n, runs % 2] += 1
        for n in (2, 3, 4):  # 23 of the 24 words fit the budgets
            assert compared[n, 0] + compared[n, 1] >= 7 and min(compared[n, 0], compared[n, 1]) >= 3, compared

    def test_same_partition_as_maps(self):
        # `TestCanonicity` on words past `_LEAF` letters: each base word has
        # three equal copies, with a relator x_j^-1 x_i x_j x_{i+n-1}^-1 (or
        # its inverse), a cancelling pair, or both inserted, and two unequal
        # ones, the base and its relator copy with one letter changed
        rng = random.Random("long-word partition")

        def inserted(letters, piece):
            p = rng.randrange(len(letters) + 1)
            return letters[:p] + piece + letters[p:]

        def changed(letters):
            p = rng.randrange(len(letters))
            i, e = letters[p]
            new = (i, -e) if rng.random() < 0.5 else ((i + rng.randrange(1, 7)) % 7, e)
            return letters[:p] + [new] + letters[p + 1 :]

        for n in (2, 3, 4):
            by_form, by_map = {}, {}
            for _ in range(2):
                base = [(rng.randrange(7), rng.choice((1, -1))) for _ in range(rng.randint(_LEAF + 1, 200))]
                j = rng.randrange(6)
                i = rng.randrange(j + 1, 7)
                relator = [(j, -1), (i, 1), (j, 1), (i + n - 1, -1)]
                if rng.random() < 0.5:
                    relator = [(k, -e) for k, e in reversed(relator)]
                k, e = rng.randrange(7), rng.choice((1, -1))
                related = inserted(base, relator)
                copies = (inserted(base, [(k, e), (k, -e)]), inserted(related, [(k, -e), (k, e)]))
                for letters in (base, related, *copies, changed(base), changed(related)):
                    w = word(n, letters)
                    by_form.setdefault(normal_form(w), set()).add(w)
                    by_map.setdefault(evaluate_word(w), set()).add(w)
            assert set(map(frozenset, by_form.values())) == set(map(frozenset, by_map.values()))
            assert sorted(map(len, by_form.values())) == [1, 1, 1, 1, 4, 4], n
