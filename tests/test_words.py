"""Word arithmetic: rewriting, normal forms, abelianization, parsing."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fixpoint_reduce, identity_word, pushed_seminormal, sequential_multiply
from thompson_sigma import errors, plrep
from thompson_sigma.errors import (
    MAX_REWRITE_LETTERS,
    MAX_TOKEN_DIGITS,
    MAX_WORD_LETTERS,
    ArityMismatchError,
    ParseError,
    ResourceLimitError,
)
from thompson_sigma import words
from thompson_sigma.words import (
    _LEAF,
    GeneratorLetter,
    GroupWord,
    SeminormalForm,
    abelianize,
    are_equal,
    concat,
    format_word,
    invert,
    multiply,
    normal_form,
    parse_word,
    rewrite_to_seminormal,
    word,
)


def w2(*pairs):
    return word(2, pairs)


def w3(*pairs):
    return word(3, pairs)


def lowest_passing_cap(monkeypatch, f, low):
    """Smallest cap >= low under which f() raises no ResourceLimitError,
    with the cap set as `words.MAX_GENERATOR_INDEX`.

    Passing is monotone in the cap, so gallop up from `low`, then bisect.
    The budget is left at the last cap tried.
    """

    def passes(cap):
        monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", cap)
        try:
            f()
        except ResourceLimitError:
            return False
        return True

    step = 1
    while not passes(low + step - 1):
        low += step
        step *= 2
    high = low + step - 1
    while low < high:
        mid = (low + high) // 2
        if passes(mid):
            high = mid
        else:
            low = mid + 1
    return high


class TestSeminormal:
    def test_relation_pushes_low_index_left(self):
        # x_1 x_0 = x_0 x_2 for n = 2
        sn = rewrite_to_seminormal(w2((1, 1), (0, 1)))
        assert sn.positive == (0, 2)
        assert sn.negative == ()

    def test_free_cancellation(self):
        for n in (2, 3, 5):
            sn = rewrite_to_seminormal(word(n, [(0, 1), (0, -1)]))
            assert sn.is_identity()

    def test_cascade_n3(self):
        # x_2 x_1 x_0 -> x_0 x_3 x_6 for n = 3
        sn = rewrite_to_seminormal(w3((2, 1), (1, 1), (0, 1)))
        assert sn.positive == (0, 3, 6)
        assert sn.negative == ()
        # cross-check against the PL oracle
        assert plrep.maps_equal(
            plrep.evaluate_word(w3((2, 1), (1, 1), (0, 1))),
            plrep.evaluate_word(sn.to_word()),
        )

    def test_parts_stay_sorted(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.choice((2, 3, 4))
            letters = [
                (rng.randrange(0, 6), rng.choice((1, -1)))
                for _ in range(rng.randrange(0, 15))
            ]
            sn = rewrite_to_seminormal(word(n, letters))
            assert all(a <= b for a, b in zip(sn.positive, sn.positive[1:]))
            assert all(a >= b for a, b in zip(sn.negative, sn.negative[1:]))

    def test_exhaustive_small_words_terminate_and_sound(self):
        # every word of length <= 3 over indices <= 2; soundness vs the oracle
        alphabet = [(i, e) for i in range(3) for e in (1, -1)]
        for n in (2, 3):
            for length in range(4):
                for letters in itertools.product(alphabet, repeat=length):
                    w = word(n, letters)
                    sn = rewrite_to_seminormal(w)
                    assert plrep.maps_equal(
                        plrep.evaluate_word(w), plrep.evaluate_word(sn.to_word())
                    )

    def test_long_words_terminate(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.choice((2, 3))
            letters = [(rng.randrange(0, 9), rng.choice((1, -1))) for _ in range(20)]
            rewrite_to_seminormal(word(n, letters))  # must halt

    def test_index_cap(self, monkeypatch):
        # a single high letter bumped past the cap by a stream of x_0
        letters = [(1, 1)] + [(0, 1)] * 60
        monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", 50)
        with pytest.raises(ResourceLimitError):
            rewrite_to_seminormal(w2(*letters))

    # One word per bump site, its last letter doing all of the bumping:
    # (n, letters, highest index reached).
    CAP_SITES = {
        # x_1 passes three x_0^-1 and becomes x_3, x_5, x_7
        "positive letter passing inverse letters": (3, [(0, -1)] * 3 + [(1, 1)], 7),
        # x_0 bumps the inverse tail x_5^-1 x_3^-1 to x_6^-1 x_4^-1
        "inverse tail": (2, [(5, -1), (3, -1), (0, 1)], 6),
        # x_0 bumps the positive tail x_3 x_6 to x_4 x_7
        "positive tail": (2, [(5, 1), (3, 1), (0, 1)], 7),
        # x_1^-1 passes two x_0^-1 and becomes x_3^-1, x_5^-1
        "inverse letter passing inverse letters": (3, [(0, -1)] * 2 + [(1, -1)], 5),
    }

    @pytest.mark.parametrize("site", CAP_SITES)
    def test_index_cap_boundary(self, site, monkeypatch):
        n, letters, highest = self.CAP_SITES[site]
        w = word(n, letters)
        u = rewrite_to_seminormal(word(n, letters[:-1]))
        v = rewrite_to_seminormal(word(n, letters[-1:]))
        monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", highest)
        sn = rewrite_to_seminormal(w)
        assert max(sn.positive + sn.negative) == highest
        assert multiply(u, v) == sn
        monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", highest - 1)
        with pytest.raises(ResourceLimitError, match=f"^generator index {highest} exceeds the budget of {highest - 1}$"):
            rewrite_to_seminormal(w)
        with pytest.raises(ResourceLimitError):
            multiply(u, v)

    def test_index_cap_names_first_index_past_it(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", 4)
        # the inverse tail x_4^-1 x_3^-1 bumps smallest first (n = 3) to
        # x_6^-1 x_5^-1: x_5^-1 is the first past 4
        with pytest.raises(ResourceLimitError, match="^generator index 5 exceeds the budget of 4$"):
            rewrite_to_seminormal(w3((4, -1), (3, -1), (0, 1)))
        # x_1 bumps to x_3, x_5, x_7 (n = 3): x_5 is the first past 4
        with pytest.raises(ResourceLimitError, match="^generator index 5 exceeds the budget of 4$"):
            rewrite_to_seminormal(w3(*[(0, -1)] * 3, (1, 1)))

    def test_input_letters_count_against_cap(self, monkeypatch):
        w = word(2, [(100000, 1)])
        sn = SeminormalForm(2, (100000,), ())
        monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", 50)
        for call in (
            lambda: rewrite_to_seminormal(w),
            lambda: normal_form(w),
            lambda: are_equal(w, w),
            lambda: multiply(sn, SeminormalForm(2, (), ())),
            lambda: multiply(SeminormalForm(2, (), ()), sn),
        ):
            with pytest.raises(ResourceLimitError, match="^generator index 100000 exceeds the budget of 50$"):
                call()


    def test_rewrite_budget(self, monkeypatch):
        at, over = word(2, [(0, 1)] * MAX_REWRITE_LETTERS), word(2, [(0, 1)] * (MAX_REWRITE_LETTERS + 1))
        assert rewrite_to_seminormal(at).positive == (0,) * MAX_REWRITE_LETTERS
        assert normal_form(over).positive == (0,) * (MAX_REWRITE_LETTERS + 1)  # not budgeted

        def no_rewrite(*args):
            raise AssertionError("the rewrite started")

        monkeypatch.setattr(words, "_rewrite", no_rewrite)
        message = f"^rewrite length {MAX_REWRITE_LETTERS + 1} exceeds the budget of {MAX_REWRITE_LETTERS}$"
        with pytest.raises(ResourceLimitError, match=message):
            rewrite_to_seminormal(over)


class TestMultiplyInvert:
    def test_inverse_pair(self):
        u = rewrite_to_seminormal(w2((0, 1)))
        v = rewrite_to_seminormal(w2((0, -1)))
        assert multiply(u, v).is_identity()

    def test_relation_via_multiply(self):
        u = rewrite_to_seminormal(w2((1, 1)))
        v = rewrite_to_seminormal(w2((0, 1)))
        assert multiply(u, v).positive == (0, 2)

    def test_inverse_forms_cancel(self):
        u = rewrite_to_seminormal(w2((0, 1), (2, -1)))
        v = rewrite_to_seminormal(w2((2, 1), (0, -1)))
        assert multiply(u, v).is_identity()

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            multiply(rewrite_to_seminormal(w2((0, 1))), rewrite_to_seminormal(w3((0, 1))))

    def test_invert_examples(self):
        assert invert(w2((0, 1))) == w2((0, -1))
        assert invert(identity_word(2)) == identity_word(2)
        assert invert(w2((0, 1), (1, -1))) == w2((1, 1), (0, -1))

    def test_word_times_inverse_rewrites_to_identity(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.choice((2, 3))
            letters = [(rng.randrange(0, 5), rng.choice((1, -1))) for _ in range(10)]
            w = word(n, letters)
            sn = rewrite_to_seminormal(concat(w, invert(w)))
            assert normal_form(concat(w, invert(w))).is_identity()
            # seminormal alone need not be empty, but must be oracle-trivial
            assert plrep.maps_equal(
                plrep.evaluate_word(sn.to_word()), plrep.identity_map(n)
            )


class TestTrustedRoutes:
    """`rewrite_to_seminormal`, `multiply`, `normal_form`, `invert`, `concat`
    and `to_word` build their values without the constructors' checks.  Over
    seeded words, every such value rebuilds unchanged through them."""

    def test_values_rebuild_through_the_checks(self):
        rng = random.Random("trusted routes")
        merged = 0
        for t in range(300):
            n = 2 + t % 3
            u, v = (
                word(n, [(rng.randrange(7), rng.choice((1, -1))) for _ in range(length)])
                for length in rng.choices((rng.randrange(12), rng.randrange(40), rng.randrange(_LEAF + 1, 300)), k=2)
            )
            merged += len(u) > _LEAF
            su, sv = rewrite_to_seminormal(u), rewrite_to_seminormal(v)
            nf = normal_form(u)
            for form in (su, sv, multiply(su, sv), multiply(sv, su), nf, normal_form(concat(v, u))):
                assert type(form) is SeminormalForm
                assert SeminormalForm(form.arity, form.positive, form.negative) == form, form
            for w in (invert(u), concat(u, v), concat(v, invert(v)), su.to_word(), nf.to_word()):
                assert type(w) is GroupWord and set(map(type, w.letters)) <= {GeneratorLetter}
                assert GroupWord(w.arity, w.letters) == w, w
        assert merged > 60, merged


class TestLetterTypes:
    """A letter's index and exponent are ints; a bool counts as its int."""

    def test_other_types_refused(self):
        for letters, message in (
            ([(1.5, 1), (0, 1.0)], "generator index must be an int, got 1.5"),
            ([(0, 1), (2, 1.0), (1.5, 1)], "letter exponent must be +-1, got 1.0"),
            ([(2.0, 1)], "generator index must be an int, got 2.0"),
            ([(0, 1), ("1", -1)], "generator index must be an int, got '1'"),
            ([(0, -1), (1, None)], "letter exponent must be +-1, got None"),
            ([(3, 1), (-1, 1)], "negative generator index -1"),
            ([(0, 2)], "letter exponent must be +-1, got 2"),
        ):
            for build in (lambda: word(2, letters), lambda: GroupWord(3, tuple(letters))):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    build()

    def test_bools_are_ints(self):
        w = word(2, [(True, 1), (0, True), (False, -1)])
        assert normal_form(w) == normal_form(w2((1, 1), (0, 1), (0, -1)))
        assert abelianize(w) == (0, 1)

    def test_seminormal_form_indices(self):
        for positive, negative, message in (
            ((0, 1.5), (), "generator index must be an int, got 1.5"),
            ((), (3, -1), "negative generator index -1"),
            ((1,), ("0",), "generator index must be an int, got '0'"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SeminormalForm(2, positive, negative)
        assert SeminormalForm(2, (0, 2), (True,)).to_word() == w2((0, 1), (2, 1), (1, -1))


class TestRewriteOracle:
    """rewrite_to_seminormal equals pushing the letters one at a time."""

    def test_matches_pushes(self, monkeypatch):
        rng = random.Random(120)
        raised = 0
        for t in range(3000):
            n = 2 + t % 4
            top = rng.choice((2, 5, 20))
            length = rng.randrange(rng.choice((10, 40, 121)))
            w = word(n, [(rng.randrange(top + 1), rng.choice((1, -1))) for _ in range(length)])
            inputs = max((let.index for let in w.letters), default=0)
            highest = lowest_passing_cap(monkeypatch, lambda: pushed_seminormal(w), inputs)
            cap = rng.choice((highest, highest - 1, rng.randrange(highest + 2)))
            monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", cap)
            try:
                expected = pushed_seminormal(w)
            except ResourceLimitError as refused:
                with pytest.raises(ResourceLimitError) as got:
                    rewrite_to_seminormal(w)
                assert str(got.value) == str(refused)
                raised += 1
                continue
            assert rewrite_to_seminormal(w) == expected
        # both outcomes occur often
        assert 750 < raised < 2250, raised

    def test_matches_pushes_on_long_bump_ranges(self, monkeypatch):
        # A run of k equal letters, then m others, bumps ranges of up
        # to k letters: x1^k x0^m the positive part, x1^-k x0^m the inverse
        # part, and in x0^-k x1^m each x1 passes k inverse letters.  With k
        # from 32 to 200 the ranges fall on both sides of `_BULK`.
        rng = random.Random(18)
        raised = 0
        sides = set()
        for t in range(160):
            n = 2 + t % 4
            k = rng.randrange(32, 201)
            big, small, sign = rng.choice(((1, 0, 1), (1, 0, -1), (0, 1, -1)))
            prefix = [(big, sign)] * k + [(small, 1)] * rng.randrange(1, 40)
            suffix = [(rng.randrange(9), rng.choice((1, -1))) for _ in range(rng.randrange(40))]
            w = word(n, prefix + suffix)
            sides.add(k < words._BULK)
            highest = lowest_passing_cap(monkeypatch, lambda: pushed_seminormal(w), 8)
            cap = rng.choice((highest, highest - 1, rng.randrange(highest + 2)))
            monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", cap)
            try:
                expected = pushed_seminormal(w)
            except ResourceLimitError as refused:
                with pytest.raises(ResourceLimitError) as got:
                    rewrite_to_seminormal(w)
                assert str(got.value) == str(refused)
                raised += 1
                continue
            assert rewrite_to_seminormal(w) == expected
        assert sides == {True, False}
        assert 40 < raised < 120, raised


class TestMultiplyOracle:
    """multiply equals pushing v's letters onto u one at a time."""

    def test_matches_sequential_pushes(self, monkeypatch):
        rng = random.Random(4096)
        raised = cancelled = 0

        def size(form):
            return len(form.positive) + len(form.negative)

        for t in range(6000):
            n = 2 + t % 4
            top = rng.choice((2, 4, 8, 20))

            def letters(length):
                return [(rng.randrange(top + 1), rng.choice((1, -1))) for _ in range(length)]

            lu = letters(rng.randrange(rng.choice((6, 30, 80))))
            lv = letters(rng.randrange(rng.choice((6, 30, 80))))
            if t % 3 == 0 and lu:  # v starts with the inverse of u's tail
                lv = [(i, -e) for i, e in reversed(lu[-rng.randrange(1, len(lu) + 1) :])] + lv
            monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", errors.MAX_GENERATOR_INDEX)
            u = rewrite_to_seminormal(word(n, lu))
            v = rewrite_to_seminormal(word(n, lv))
            inputs = max(u.positive + u.negative + v.positive + v.negative, default=0)
            highest = lowest_passing_cap(monkeypatch, lambda: sequential_multiply(u, v), inputs)
            cap = rng.choice((highest, highest - 1, rng.randrange(highest + 2)))
            monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", cap)
            try:
                expected = sequential_multiply(u, v)
            except ResourceLimitError:
                with pytest.raises(ResourceLimitError):
                    multiply(u, v)
                raised += 1
                continue
            assert multiply(u, v) == expected
            cancelled += size(expected) < size(u) + size(v)
        # both outcomes occur often, and so do cancellations
        assert raised > 1500 and 6000 - raised > 1500 and cancelled > 1000, (raised, cancelled)


class TestAbelianize:
    def test_folding(self):
        assert abelianize(w2((2, 1))) == (0, 1)
        assert abelianize(w2((0, 1), (0, 1), (1, -1))) == (2, -1)
        assert abelianize(w3((3, 1))) == (0, 1, 0)

    def test_respects_relations(self):
        for n in (2, 3, 4, 5):
            for i in range(1, 9):
                a = abelianize(word(n, [(i + n - 1, 1)]))
                b = abelianize(word(n, [(i, 1)]))
                assert a == b

    def test_documented_coordinates(self):
        # x_0 is e_0, x_i is e_i for 1 <= i < n, and x_{i+n-1} lands where x_i does
        for n in range(2, 7):
            for i in range(2 * n):
                coord = i
                while coord >= n:
                    coord -= n - 1
                unit = tuple(int(c == coord) for c in range(n))
                assert abelianize(word(n, [(i, 1)])) == unit, (n, i)
                assert abelianize(word(n, [(i, -1)])) == tuple(-c for c in unit), (n, i)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, data):
        n = data.draw(st.sampled_from((2, 3, 4)))
        letters = st.lists(
            st.tuples(st.integers(0, 6), st.sampled_from((1, -1))), max_size=10
        )
        u = word(n, data.draw(letters))
        v = word(n, data.draw(letters))
        lhs = abelianize(concat(u, v))
        assert lhs == tuple(
            a + b for a, b in zip(abelianize(u), abelianize(v))
        )
        # the rewritten product has the same abelianization
        prod = multiply(rewrite_to_seminormal(u), rewrite_to_seminormal(v))
        assert abelianize(prod.to_word()) == lhs


class TestWordProblem:
    def test_relation_equality(self):
        assert are_equal(w2((0, -1), (1, 1), (0, 1)), w2((2, 1)))

    def test_distinct_generators(self):
        assert not are_equal(w2((0, 1)), w2((1, 1)))

    def test_conjugation_collapse(self):
        # x_0 x_2 x_0^-1 = x_1 exercises the matched-pair reduction
        assert are_equal(w2((0, 1), (2, 1), (0, -1)), w2((1, 1)))

    def test_blocked_pair_stays(self):
        nf = normal_form(w2((0, 1), (1, 1), (0, -1)))
        assert nf.positive == (0, 1) and nf.negative == (0,)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            are_equal(w2((0, 1)), w3((0, 1)))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_scrambled_words_stay_equal(self, data):
        n = data.draw(st.sampled_from((2, 3)))
        letters = data.draw(
            st.lists(st.tuples(st.integers(0, 4), st.sampled_from((1, -1))), max_size=8)
        )
        u = word(n, letters)
        scrambled = list(letters)
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(scrambled)))
            i = data.draw(st.integers(0, 4))
            e = data.draw(st.sampled_from((1, -1)))
            scrambled[pos:pos] = [(i, e), (i, -e)]
        assert are_equal(u, word(n, scrambled))


class TestCanonicity:
    """normal_form(u) == normal_form(v) exactly when the PL maps agree."""

    @staticmethod
    def seeded_words(n):
        rng = random.Random(100 + n)
        for _ in range(250):
            length = rng.randrange(0, 9)
            yield word(n, [(rng.randrange(0, 4), rng.choice((1, -1))) for _ in range(length)])

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_same_partition_as_pl_oracle(self, n):
        by_form, by_map = {}, {}
        for w in self.seeded_words(n):
            by_form.setdefault(normal_form(w), set()).add(w)
            by_map.setdefault(plrep.evaluate_word(w).breakpoints, set()).add(w)
        assert set(map(frozenset, by_form.values())) == set(map(frozenset, by_map.values()))
        # both directions are exercised: many elements, some with several words
        assert len(by_form) > 100
        assert sum(len(words) > 1 for words in by_form.values()) > 5

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_idempotent(self, n):
        for w in self.seeded_words(n):
            nf = normal_form(w)
            assert normal_form(nf.to_word()) == nf


class TestReduceOracle:
    """normal_form equals the seminormal form reduced by the fixpoint oracle."""

    def test_matches_fixpoint_reduction(self):
        rng = random.Random(2024)
        several_pairs = blocked = 0
        for t in range(2400):
            n = 2 + t % 4
            top = rng.choice((1, 2, 3, 6, 10))
            length = rng.randrange(rng.choice((12, 60, 401)))
            letters = [(rng.randrange(top + 1), rng.choice((1, -1))) for _ in range(length)]
            if t % 3 == 0:  # x_i^a ... x_i^-b around the word: repeated pairs
                i, a, b = rng.randrange(top + 1), rng.randrange(1, 4), rng.randrange(1, 4)
                letters = [(i, 1)] * a + letters + [(i, -1)] * b
            w = word(n, letters)
            sn = pushed_seminormal(w)
            pos, neg = list(sn.positive), list(sn.negative)
            fixpoint_reduce(pos, neg, n)
            nf = normal_form(w)
            assert (nf.positive, nf.negative) == (tuple(pos), tuple(neg))
            common = set(sn.positive) & set(sn.negative)
            several_pairs += any(min(sn.positive.count(i), sn.negative.count(i)) > 1 for i in common)
            blocked += bool(set(nf.positive) & set(nf.negative))
        # the hard cases occur: several pairs at one index, blocked pairs
        assert several_pairs > 500 and blocked > 500, (several_pairs, blocked)


class TestLongWords:
    """The chunked route of normal_form on words longer than _LEAF."""

    @staticmethod
    def long_words():
        rng = random.Random(3200)
        for t in range(19):
            n = 2 + t % 3
            top = rng.choice((2, 4))
            length = rng.randrange(1000, 3201)
            yield word(n, [(rng.randrange(top + 1), rng.choice((1, -1))) for _ in range(length)])
        # x_800^-1 ... x_0^-1 x_1^800: every x_1 passes the whole inverse part
        yield word(2, [(i, -1) for i in range(800, -1, -1)] + [(1, 1)] * 800)

    def test_matches_fixpoint_reduction(self):
        chunk_counts = set()
        for w in self.long_words():
            sn = pushed_seminormal(w)
            pos, neg = list(sn.positive), list(sn.negative)
            fixpoint_reduce(pos, neg, w.arity)
            nf = normal_form(w)
            assert (nf.positive, nf.negative) == (tuple(pos), tuple(neg))
            chunk_counts.add(-(-len(w) // _LEAF) % 2)
        assert chunk_counts == {0, 1}  # odd and even numbers of runs

    @staticmethod
    def route(w):
        # the documented route: runs of _LEAF letters rewritten left to
        # right, their forms multiplied pairwise, level by level
        forms = [
            pushed_seminormal(word(w.arity, w.letters[i : i + _LEAF]))
            for i in range(0, len(w), _LEAF)
        ]
        while len(forms) > 1:
            odd = forms[-1:] if len(forms) % 2 else []
            forms = [sequential_multiply(a, b) for a, b in zip(forms[::2], forms[1::2])] + odd
        return forms[0]

    def test_index_cap_boundary(self, monkeypatch):
        rng = random.Random(400)
        for t in range(40):
            top = rng.choice((3, 8, 20))
            letters = [(rng.randrange(top + 1), rng.choice((1, -1))) for _ in range(rng.randrange(70, 401))]
            w = word(2 + t % 4, letters)
            monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", errors.MAX_GENERATOR_INDEX)
            unbounded = normal_form(w)
            highest = lowest_passing_cap(monkeypatch, lambda: self.route(w), max(i for i, _ in letters))
            monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", highest)
            assert normal_form(w) == unbounded
            monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", highest - 1)
            with pytest.raises(ResourceLimitError):
                normal_form(w)

    def test_index_cap_boundary_of_balanced_product(self, monkeypatch):
        # four runs, each padded in front with cancelling x_0 x_0^-1 pairs;
        # the pairwise product reaches x_6, while multiplying the runs left
        # to right, or rewriting the whole word, reaches x_9
        runs = ([(4, -1), (0, 1)], [(5, -1), (4, -1)], [(0, -1), (4, -1)], [(4, 1), (1, 1)])
        pad = [(0, 1), (0, -1)] * (_LEAF // 2 - 1)
        w = word(2, [let for run in runs for let in pad + run])
        unbounded = normal_form(w)
        monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", 6)
        assert normal_form(w) == unbounded
        monkeypatch.setattr(words, "MAX_GENERATOR_INDEX", 5)
        with pytest.raises(ResourceLimitError):
            normal_form(w)
        assert lowest_passing_cap(monkeypatch, lambda: rewrite_to_seminormal(w), 5) == 9


class TestTextSyntax:
    def test_parse(self):
        w = parse_word(2, "x0 x1^-1 x3^2")
        assert w == w2((0, 1), (1, -1), (3, 1), (3, 1))

    def test_parse_zero_power_and_empty(self):
        assert parse_word(3, "x4^0") == identity_word(3)
        assert parse_word(3, "") == identity_word(3)

    def test_negative_powers_expand(self):
        assert parse_word(2, "x1^-3") == w2((1, -1), (1, -1), (1, -1))

    def test_bad_tokens(self):
        for text in ("y0", "x", "x1^", "x-1", "x1 ^2"):
            with pytest.raises(ParseError):
                parse_word(2, text)

    def test_letter_budget(self):
        # only inputs just past the budget: the check runs before a token
        # expands, so none of these builds a long word
        over = MAX_WORD_LETTERS + 1
        for text in (f"x1^{over}", f"x0^-{over}", f"x0 x1^{MAX_WORD_LETTERS}", f"x2^-1 x0^-{MAX_WORD_LETTERS}"):
            with pytest.raises(ResourceLimitError, match=f"^word length {over} exceeds the budget of {MAX_WORD_LETTERS}$"):
                parse_word(2, text)

    def test_letter_budget_on_a_repeated_token(self, monkeypatch):
        # each distinct token is matched once, yet every repeat counts
        monkeypatch.setattr(words, "MAX_WORD_LETTERS", 5)
        assert len(parse_word(2, "x1 x0^-2 x1 x0^-1")) == 5
        for text in ("x1 x0^-2 x1 x0^-2", "x1 " * 6, "x1 x0^2 x1 x0^2 y0"):
            with pytest.raises(ResourceLimitError, match="^word length 6 exceeds the budget of 5$"):
                parse_word(2, text)
        with pytest.raises(ParseError, match="^bad word token 'y0'$"):
            parse_word(2, "x1 x1 y0 x1 x1 x1 x1")

    def test_digit_budget(self):
        # tokens just past the budget, and past CPython's 4300-digit limit
        # for `int`, raise ParseError for the index and for the exponent
        for digits in (MAX_TOKEN_DIGITS + 1, 5000):
            big = "9" * digits
            for text in (f"x{big}", f"x0 x{big}^-1", f"x1^{big}", f"x1^-{big}", f"x{'0' * digits}"):
                with pytest.raises(ParseError, match=f"^word token digit count {digits} exceeds the budget of {MAX_TOKEN_DIGITS}$"):
                    parse_word(2, text)
        at_budget = "1" + "0" * (MAX_TOKEN_DIGITS - 1)
        assert parse_word(2, f"x{at_budget}") == w2((10 ** (MAX_TOKEN_DIGITS - 1), 1))
        for text in (f"x1^{at_budget}", f"x1^-{at_budget}"):
            message = f"^word length {10 ** (MAX_TOKEN_DIGITS - 1)} exceeds the budget of {MAX_WORD_LETTERS}$"
            with pytest.raises(ResourceLimitError, match=message):
                parse_word(2, text)

    def test_format_round_trip(self):
        w = w2((0, 1), (2, -1), (2, -1), (5, 1))
        assert parse_word(2, format_word(w)) == w


def test_words_are_immutable():
    w = w2((0, 1))
    with pytest.raises(AttributeError):
        w.arity = 3
    with pytest.raises(ValueError):
        GroupWord(2, ((0, 2),))
