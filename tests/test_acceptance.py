"""Acceptance suite: one test per exit criterion, exact tolerances.

Each criterion prints a PASS/FAIL line (visible with `pytest -s`).  All
comparisons are exact integer or rational equality; there are no numeric
tolerances anywhere.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from thompson_sigma.autos import d_orbit, matrix_A, matrix_C
from thompson_sigma.charspace import (
    character,
    chi1,
    chi2,
    in_sigma1,
    in_sigma_m,
    kernel_finiteness,
    sphere_point,
)
from thompson_sigma.complexes import (
    cells_for_subgroup_F,
    chi_m,
    classical_f_cells,
    d_bound,
)
from thompson_sigma.gradients import (
    certify_convergence,
    chi_m_gradient_series,
    deficiency_gradient_series,
    rank_gradient_series,
)
from thompson_sigma.lattices import (
    ChainSpec,
    hnf,
    chain,
    enumerate_subgroups,
    index,
)
from thompson_sigma.plrep import evaluate_word, maps_equal
from thompson_sigma.words import are_equal, word

from oracles import (
    apply,
    brute_force_index_count,
    divisor_sum,
    identity_matrix,
    mat_mul,
    order_of,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_cell_count_exactness_to_index_100():
    with criterion(1, "exact cell counts for every n=2 subgroup of index <= 100"):
        lattices = enumerate_subgroups(2, 100)
        assert len(lattices) == sum(divisor_sum(k) for k in range(1, 101))
        for lat in lattices:
            vec, case = cells_for_subgroup_F(lat)
            if case == 3:
                assert vec.prefix(2) == (1, 5, 12)
                assert all(vec.value(j) == 8 * j - 4 for j in range(3, 17))
            else:
                assert vec.prefix(1) == (1, 3)
                assert all(vec.value(j) == 4 for j in range(2, 17))


def test_criterion_2_pl_relation_suite():
    with criterion(2, "PL relations x_j^-1 x_i x_j = x_{i+n-1}, n in {2,3,4}, i <= 8"):
        for n in (2, 3, 4):
            for i in range(1, 9):
                for j in range(i):
                    lhs = evaluate_word(word(n, [(j, -1), (i, 1), (j, 1)]))
                    rhs = evaluate_word(word(n, [(i + n - 1, 1)]))
                    assert maps_equal(lhs, rhs), (n, i, j)


def _random_word(rng, n, max_len=12, max_index=4):
    length = rng.randrange(0, max_len + 1)
    return word(
        n, [(rng.randrange(0, max_index + 1), rng.choice((1, -1))) for _ in range(length)]
    )


def _scrambled_copy(rng, w, max_index=4):
    letters = list(w.letters)
    for _ in range(rng.randrange(1, 4)):
        pos = rng.randrange(0, len(letters) + 1)
        i = rng.randrange(0, max_index + 1)
        e = rng.choice((1, -1))
        letters[pos:pos] = [(i, e), (i, -e)]
    return word(w.arity, letters)


def test_criterion_3_word_problem_matches_oracle():
    with criterion(3, "word problem agrees with the PL oracle on 1000+ pairs"):
        rng = random.Random(20260809)
        pairs = []
        for k in range(1100):
            n = 2 if k % 2 == 0 else 3
            u = _random_word(rng, n)
            v = _scrambled_copy(rng, u) if k % 3 == 0 else _random_word(rng, n)
            pairs.append((u, v))
        equal_count = 0
        for u, v in pairs:
            decided = are_equal(u, v)
            oracle = maps_equal(evaluate_word(u), evaluate_word(v))
            assert decided == oracle, (u, v)
            equal_count += oracle
        # both outcomes must actually occur
        assert 0 < equal_count < len(pairs)


def test_criterion_4_automorphism_identities():
    with criterion(4, "flip matrix identities, orbit of the exceptional pair"):
        for n in range(2, 9):
            c = matrix_C(n)
            assert mat_mul(c, c) == identity_matrix(n)
            assert apply(c, chi1(n)) == chi2(n)
            computed = order_of(matrix_A(n))
            assert computed == max(1, n - 1)
        orbit = d_orbit(sphere_point(chi1(2)))
        assert orbit == {sphere_point(chi1(2)), sphere_point(chi2(2))}
        # the displayed shift matrix has order n-1, not the nominal n;
        # both values are reported here rather than reconciled silently
        print(
            "note: order(shift matrix) computed = n-1 for 2 <= n <= 8 "
            "(nominal description says order n)"
        )


def _direction_grid(n, span):
    def rec(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(-span, span + 1):
            yield from rec(prefix + [v])

    for values in rec([]):
        if any(values):
            yield character(n, values)


def test_criterion_5_sigma_decisions():
    with criterion(5, "Sigma^1 grid, Sigma^2 wedge, kernel finiteness types"):
        # >= 10^3 rational directions for each n; only chi1, chi2 fail
        for n, span in ((2, 16), (3, 5)):
            grid = list(_direction_grid(n, span))
            assert len(grid) >= 1000
            failing = {sphere_point(chi) for chi in grid if not in_sigma1(chi)}
            assert failing == {sphere_point(chi1(n)), sphere_point(chi2(n))}
        # the Sigma^2 wedge boundary cases
        assert not in_sigma_m(character(2, (0, 1)), 2)
        assert in_sigma_m(character(2, (1, -1)), 2)
        # kernel classifications
        ker_chi2 = kernel_finiteness([[1, -1]])  # image lattice of Ker(chi2), n=2
        assert not ker_chi2.is_finitely_generated
        ker_x1 = kernel_finiteness([[0, 1]])  # G' and x_1
        assert not ker_x1.is_finitely_generated
        ker_x0x1 = kernel_finiteness([[1, 1]])  # G' and x_0 x_1
        assert ker_x0x1.is_finitely_generated
        assert ker_x0x1.max_certified_f_type == 1
        for n in (3, 4, 5):  # G' and {x_0, x_{n-1}}
            rows = [
                [1 if c == 0 else 0 for c in range(n)],
                [1 if c == n - 1 else 0 for c in range(n)],
            ]
            report = kernel_finiteness(rows)
            assert report.is_finitely_generated
            assert report.max_certified_f_type in (2, "infinity")
            assert report.max_certified_f_type == 2  # without the conjecture flag
        # generator bound for generic n >= 3 subgroups: structure is checked,
        # the unknown constant stays symbolic
        for n in (3, 4):
            generic = hnf(
                [[2 if i == j and i < 2 else (1 if i == j else 0) for j in range(n)]
                 for i in range(n)]
            )
            report = d_bound(generic)
            assert report.d_upper is None
            assert report.d_upper_symbolic == f"{n + 2}+d0"
            assert d_bound(generic, d0_override=3).d_upper == n + 2 + 3


def test_criterion_6_gradient_limits():
    # The stated expectation for the deficiency lower bound was -6/4^s, but
    # 1 - r0 + r1 - r2 on the case-3 counts (1, 5, 12) is -7, so the exact
    # interval is [-7/4^s, 2/4^s]; with it the deficiency and chi_2 series
    # first reach 1/1000 at s = 7 (rank at s = 6).  See the decisions ledger.
    with criterion(6, "gradient series on the scaling(2) chain, s <= 10"):
        spec = ChainSpec("scaling", p=2)
        eps = Fraction(1, 1000)

        rg = rank_gradient_series(spec, 2, steps=11)
        assert rg.rows[0].upper == 1
        for row in rg.rows[1:]:
            assert row.upper == Fraction(4, 4**row.s)
            assert row.lower == 0
        ok, first = certify_convergence(rg, eps)
        assert ok and first == 6

        dg = deficiency_gradient_series(spec, 2, steps=11)
        assert (dg.rows[0].lower, dg.rows[0].upper) == (0, 2)
        for row in dg.rows[1:]:
            assert row.lower == Fraction(-7, 4**row.s)
            assert row.upper == Fraction(2, 4**row.s)
        ok, first = certify_convergence(dg, eps)
        assert ok and first == 7

        cg = chi_m_gradient_series(spec, 2, 2, steps=11)
        assert cg.rows[0].upper == 1
        for row in cg.rows[1:]:
            assert row.upper == Fraction(8, 4**row.s)
            assert row.lower == 0
        ok, first = certify_convergence(cg, eps)
        assert ok and first == 7


def test_criterion_7_chi_nonnegative_everywhere():
    with criterion(7, "alternating cell sums >= 0 for all m <= 16"):
        vectors = [classical_f_cells()]
        for lat in enumerate_subgroups(2, 100):
            vectors.append(cells_for_subgroup_F(lat)[0])
        spec = ChainSpec("scaling", p=2)
        for s in range(11):
            lat = chain(spec, s, 2)
            if index(lat) > 1:
                vectors.append(cells_for_subgroup_F(lat)[0])
        for vec in vectors:
            for m in range(17):
                assert chi_m(vec, m) >= 0  # raises on violation as well


def test_criterion_8_enumeration_count_oracle():
    with criterion(8, "index-k sublattice counts match sigma(k) for k <= 10"):
        all_lattices = enumerate_subgroups(2, 10)
        for k in range(1, 11):
            enumerated = sum(1 for lat in all_lattices if index(lat) == k)
            assert enumerated == divisor_sum(k) == brute_force_index_count(2, k)
