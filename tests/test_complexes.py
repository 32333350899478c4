"""Cell-count recursions, the n = 2 classification, bounds, chi_m."""

import random

import pytest

from thompson_sigma import complexes
from thompson_sigma.complexes import (
    CASE_1_2_CELLS,
    CASE_3_CELLS,
    AffineTail,
    BoundReport,
    CellVector,
    cell_vector,
    cells_for_subgroup_F,
    chi_m,
    classical_f_cells,
    d_bound,
    deficiency_bounds,
    graph_of_groups_cells,
    hnn_cells,
    ones_cells,
    stack_cells,
)
from thompson_sigma.errors import MAX_DIM, DomainError, InvariantViolationError, RankDeficientError, ResourceLimitError
from thompson_sigma.lattices import enumerate_subgroups, hnf, member

from oracles import binomial_cells, full_lattice, per_m_chi_values


def values(vec, upto):
    return vec.prefix(upto)


class TestCellVector:
    def test_tail_evaluation(self):
        vec = cell_vector((1, 5), AffineTail(8, -4, 2))
        assert values(vec, 5) == (1, 5, 12, 20, 28, 36)

    def test_finite_means_zero_beyond(self):
        vec = cell_vector((1, 3))
        assert vec.value(7) == 0

    def test_tail_start_minimized(self):
        vec = cell_vector((1, 2, 2, 2, 2), AffineTail(0, 2, 4))
        assert vec.tail.start == 1
        assert vec.counts == (1,)
        assert CellVector((1, 2, 2, 2, 2), AffineTail(0, 2, 4)) == vec

    def test_constructor_is_canonical(self):
        assert CellVector((1, 2, 0)) == cell_vector((1, 2, 0)) == CellVector((1, 2))
        assert CellVector((1, 2, 0)).counts == (1, 2)
        assert CellVector((1, 2), AffineTail(0, 2, 1)) == classical_f_cells()
        assert CellVector((1, 3, 0), AffineTail(0, 0, 2)) == CellVector((1, 3))
        assert CellVector((1, 3, 0), AffineTail(0, 0, 2)).tail is None

    def test_negative_count_refused(self):
        for counts in ((-5,), (1, -2), (1, 3, -1)):
            message = rf"^negative cell count in \[{', '.join(map(str, counts))}\]$"
            for build in (CellVector, cell_vector):
                with pytest.raises(ValueError, match=message):
                    build(counts)

    def test_inconsistent_tail_rejected(self):
        with pytest.raises(ValueError):
            cell_vector((1, 5, 11), AffineTail(8, -4, 2))

    def test_tail_refuses_non_ints(self):
        with pytest.raises(ValueError, match=r"^tail slope, offset and start must be ints, got 1\.5$"):
            CellVector((1,), AffineTail(1.5, 1, 1))
        with pytest.raises(ValueError, match="^tail slope, offset and start must be ints, got 'a'$"):
            AffineTail("a", 1, 1)
        assert AffineTail(True, 0, 1) == AffineTail(1, 0, 1)

    def test_needs_a_vertex(self):
        with pytest.raises(ValueError):
            cell_vector((0, 1))
        with pytest.raises(ValueError, match="^a complex needs at least one 0-cell$"):
            CellVector((0, 1))


class TestHNN:
    def test_f_complex(self):
        # 1,2,2,... -> 1,3,4,4,...
        got = hnn_cells(classical_f_cells())
        assert values(got, 5) == (1, 3, 4, 4, 4, 4)

    def test_iterated(self):
        # 1,3,4,4,... -> 1,4,7,8,8,...
        got = hnn_cells(hnn_cells(classical_f_cells()))
        assert values(got, 5) == (1, 4, 7, 8, 8, 8)

    def test_trivial_base(self):
        got = hnn_cells(cell_vector((1,)))
        assert got == cell_vector((1, 1))


class TestStack:
    def test_partial_sums_with_cyclic_quotient(self):
        r_b = hnn_cells(hnn_cells(classical_f_cells()))
        got = stack_cells(r_b, ones_cells())
        assert values(got, 6) == (1, 5, 12, 20, 28, 36, 44)
        assert got.tail.slope == 8 and got.tail.offset == -4

    def test_point_kernel_gives_quotient(self):
        for k in (1, 2, 3):
            got = stack_cells(cell_vector((1,)), binomial_cells(k))
            assert got == binomial_cells(k)

    def test_trivial_quotient(self):
        r_n = cell_vector((1, 4, 2))
        assert stack_cells(r_n, cell_vector((1,))) == r_n

    def test_binomial_times_binomial(self):
        # Z^a x Z^b complexes stack to the Z^(a+b) complex
        got = stack_cells(binomial_cells(2), binomial_cells(3))
        assert got == binomial_cells(5)

    def test_quadratic_growth_rejected(self):
        linear = cell_vector((1,), AffineTail(1, 1, 1))
        with pytest.raises(DomainError):
            stack_cells(linear, ones_cells())


class TestGraphOfGroups:
    def test_loop_is_hnn(self):
        r_t = classical_f_cells()
        assert graph_of_groups_cells([r_t], [r_t]) == hnn_cells(r_t)

    def test_segment(self):
        got = graph_of_groups_cells(
            [cell_vector((1, 1)), cell_vector((1, 1))], [cell_vector((1,))]
        )
        assert values(got, 2) == (2, 3, 0)

    def test_no_edges(self):
        got = graph_of_groups_cells([cell_vector((1, 2)), cell_vector((1,))], [])
        assert values(got, 1) == (2, 2)


class TestSubgroupCells:
    def test_case1(self):
        vec, case = cells_for_subgroup_F(hnf([[2, 0], [0, 1]]))
        assert case == 1
        assert values(vec, 3) == (1, 3, 4, 4)

    def test_case2(self):
        vec, case = cells_for_subgroup_F(hnf([[1, 1], [1, -1]]))
        assert case == 2
        assert values(vec, 3) == (1, 3, 4, 4)

    def test_case3(self):
        vec, case = cells_for_subgroup_F(hnf([[2, 0], [0, 2]]))
        assert case == 3
        assert values(vec, 4) == (1, 5, 12, 20, 28)

    def test_full_lattice_is_case1(self):
        _, case = cells_for_subgroup_F(full_lattice(2))
        assert case == 1

    def test_needs_n2(self):
        with pytest.raises(DomainError):
            cells_for_subgroup_F(full_lattice(3))

    def test_exact_counts_to_index_40(self):
        # the closed forms, not just the truncations, across many subgroups
        for lat in enumerate_subgroups(2, 40):
            vec, case = cells_for_subgroup_F(lat)
            if case == 3:
                assert values(vec, 2) == (1, 5, 12)
                assert all(vec.value(j) == 8 * j - 4 for j in range(3, 20))
            else:
                assert values(vec, 1) == (1, 3)
                assert all(vec.value(j) == 4 for j in range(2, 20))


class TestChiM:
    def test_examples(self):
        assert chi_m(cell_vector((1, 5, 12)), 2) == 8
        assert chi_m(cell_vector((1, 3, 4)), 2) == 2
        assert chi_m(cell_vector((1,)), 0) == 1

    def test_case3_linear_growth(self):
        vec, _ = cells_for_subgroup_F(hnf([[2, 0], [0, 2]]))
        for m in range(2, 17):
            direct = sum((-1) ** (m - i) * vec.value(i) for i in range(m + 1))
            assert chi_m(vec, m) == direct == 4 * m

    def test_negative_sum_is_invariant_violation(self):
        with pytest.raises(InvariantViolationError):
            chi_m(cell_vector((1, 3, 1)), 2)


class TestDimensionBudget:
    def test_refused_just_past_the_budget(self):
        over = MAX_DIM + 1
        message = f"^dimension {over} exceeds the budget of {MAX_DIM}$"
        vec, _ = cells_for_subgroup_F(hnf([[2, 0], [0, 2]]))
        for call in (
            lambda: vec.prefix(over),
            lambda: chi_m(vec, over),
            lambda: d_bound(hnf([[2, 0], [0, 2]]), chi_upto=over),
            lambda: d_bound(hnf([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), chi_upto=over),
        ):
            with pytest.raises(ResourceLimitError, match=message):
                call()


    def test_negative_dimension_refused(self):
        message = "^dimension must be >= 0, got -1$"
        vec, _ = cells_for_subgroup_F(hnf([[2, 0], [0, 2]]))
        for call in (
            lambda: vec.prefix(-1),
            lambda: chi_m(vec, -1),
            lambda: d_bound(hnf([[2, 0], [0, 2]]), chi_upto=-1),
            lambda: d_bound(hnf([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), chi_upto=-1),
        ):
            with pytest.raises(ValueError, match=message):
                call()
        with pytest.raises(ValueError, match="^dimension must be >= 0, got -3$"):
            vec.prefix(-3)


class TestDeficiency:
    def test_presentation_bound(self):
        # 1 - r0 + r1 - r2; the case-3 vector gives -7 (= 1 - 1 + 5 - 12)
        assert deficiency_bounds(cell_vector((1, 5, 12)), 2) == (-7, 2)
        assert deficiency_bounds(cell_vector((1, 3, 4)), 2) == (-1, 2)
        assert deficiency_bounds(classical_f_cells(), 2) == (0, 2)

    def test_lower_below_upper(self):
        for lat in enumerate_subgroups(2, 20):
            vec, _ = cells_for_subgroup_F(lat)
            lower, upper = deficiency_bounds(vec, 2)
            assert lower <= upper


class TestDBound:
    def test_n2_case3(self):
        report = d_bound(hnf([[2, 0], [0, 2]]))
        assert report.d_upper == 5
        assert report.case_tag == "cells-case-3"
        assert report.def_lower == -7 and report.def_upper == 2
        assert report.chi_values[:3] == (1, 4, 8)

    def test_n2_case1(self):
        report = d_bound(hnf([[3, 0], [0, 1]]))
        assert report.d_upper == 3
        assert report.case_tag == "cells-case-1"

    def test_n3_m_contained(self):
        report = d_bound(hnf([[5, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert report.d_upper == 4  # 1 + n
        assert report.case_tag == "m-contained"
        assert report.def_upper == 3
        assert report.def_lower is None and report.chi_values is None

    def test_n3_generic_symbolic(self):
        report = d_bound(hnf([[2, 0, 0], [0, 2, 0], [0, 0, 1]]))
        assert report.d_upper is None
        assert report.d_upper_symbolic == "5+d0"
        assert report.case_tag == "generic"

    def test_n3_generic_with_override(self):
        report = d_bound(hnf([[2, 0, 0], [0, 2, 0], [0, 0, 1]]), d0_override=7)
        assert report.d_upper == 3 + 2 + 7
        assert report.d_upper_symbolic is None

    def test_report_type(self):
        assert isinstance(d_bound(full_lattice(2)), BoundReport)


class TestChiValues:
    # d_bound's one running sum against one alternating sum per m
    def test_matches_per_m_sums_at_every_dimension(self):
        for lat, cells in (
            (hnf([[3, 0], [0, 1]]), CASE_1_2_CELLS),
            (hnf([[2, 0], [0, 2]]), CASE_3_CELLS),
        ):
            assert cells_for_subgroup_F(lat)[0] == cells
            expected = per_m_chi_values(cells, MAX_DIM)
            for m in range(MAX_DIM + 1):
                assert d_bound(lat, chi_upto=m).chi_values == expected[: m + 1], m

    def test_slices_agree_with_chi_m_in_any_order(self):
        complexes._chi_sums.cache_clear()
        ups = (0, 1, 2, 16, 1023, 1024)
        for lat, cells in ((hnf([[3, 0], [0, 1]]), CASE_1_2_CELLS), (hnf([[2, 0], [0, 2]]), CASE_3_CELLS)):
            for chi_upto in ups + ups[::-1]:
                got = d_bound(lat, chi_upto=chi_upto).chi_values
                assert got == tuple(chi_m(cells, m) for m in range(chi_upto + 1)), chi_upto

    def test_sums_are_kept_per_vector_not_per_case(self, monkeypatch):
        lat = hnf([[2, 0], [0, 2]])
        real = d_bound(lat, chi_upto=4).chi_values
        assert real == (1, 4, 8, 12, 16)
        other = cell_vector((1, 7, 9))  # chi = 1, 6, 3, -3, 3
        monkeypatch.setattr(complexes, "cells_for_subgroup_F", lambda lat: (other, 3))
        assert d_bound(lat, chi_upto=2).chi_values == (1, 6, 3)
        monkeypatch.undo()
        assert d_bound(lat, chi_upto=4).chi_values == real

    def test_first_negative_sum_raises_as_chi_m(self, monkeypatch):
        vec = cell_vector((1, 0, 5))  # chi = 1, -1, 6
        with pytest.raises(InvariantViolationError) as by_chi_m:
            chi_m(vec, 1)
        assert chi_m(vec, 2) == 6  # chi_m checks only its own m
        with pytest.raises(InvariantViolationError) as by_oracle:
            per_m_chi_values(vec, 2)
        monkeypatch.setattr(complexes, "cells_for_subgroup_F", lambda lat: (vec, 3))
        lat = hnf([[2, 0], [0, 2]])
        assert d_bound(lat, chi_upto=0).chi_values == (1,)
        for m in (1, 2, 5):
            with pytest.raises(InvariantViolationError) as by_d_bound:
                d_bound(lat, chi_upto=m)
            assert str(by_d_bound.value) == str(by_chi_m.value) == str(by_oracle.value)
        assert "at m = 1 " in str(by_chi_m.value)


def test_chi_nonnegative_across_enumeration():
    for lat in enumerate_subgroups(2, 30):
        vec, _ = cells_for_subgroup_F(lat)
        for m in range(17):
            assert chi_m(vec, m) >= 0


def seeded_cell_vectors(count: int, seed: str):
    # random counts up to a random start, then an affine tail, flat (slope 0,
    # zero when its offset is) or rising, spelled out for up to 3 dimensions
    rng = random.Random(seed)
    for k in range(count):
        start = rng.randint(0, 8)
        slope = 0 if k % 2 else rng.randint(1, 9)
        offset = rng.randint(max(-slope * start, int(start == 0)), 9)
        head = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(start - 1)]
        spelled = [slope * j + offset for j in range(start, start + rng.randint(0, 3))]
        yield cell_vector(tuple(head[:start] + spelled), AffineTail(slope, offset, start))


class TestPrefixRoute:
    # prefix slices the counts and runs the tail; value(j) reads one dimension
    @staticmethod
    def assert_prefix_matches(vec, dims):
        top = max(dims)
        expected = tuple(vec.value(j) for j in range(top + 1))
        for m in dims:
            assert vec.prefix(m) == expected[: m + 1], (vec, m)

    def test_named_and_finite_vectors_at_every_dimension(self):
        finite = [cell_vector((1,)), cell_vector((1, 3)), cell_vector((1, 2, 0)), cell_vector((2, 0, 0, 5))]
        finite += [binomial_cells(k) for k in range(7)]
        for vec in [CASE_1_2_CELLS, CASE_3_CELLS, classical_f_cells(), ones_cells(), *finite]:
            self.assert_prefix_matches(vec, range(MAX_DIM + 1))

    def test_seeded_vectors(self):
        # every dimension where counts and tail meet, then a stride to MAX_DIM
        kinds = set()
        for vec in seeded_cell_vectors(200, "prefix"):
            kinds.add(None if vec.tail is None else vec.tail.slope > 0)
            self.assert_prefix_matches(vec, [*range(40), 100, 511, MAX_DIM - 1, MAX_DIM])
        assert kinds == {None, False, True}


class TestContainmentRoute:
    # d_bound reads rows 1..n-1 of the canonical HNF; the reference asks member
    @staticmethod
    def by_member(lat):
        n = lat.arity
        return all(member(lat, tuple(int(c == i) for c in range(n))) for i in range(1, n))

    def assert_same(self, lats):
        tags = set()
        for lat in lats:
            tag = d_bound(lat).case_tag
            assert (tag == "m-contained") == self.by_member(lat), lat
            tags.add(tag)
        assert tags == {"m-contained", "generic"}

    def test_every_enumerated_lattice(self):
        for n, top in ((3, 20), (4, 8), (5, 4)):
            self.assert_same(enumerate_subgroups(n, top))

    def test_hnf_of_seeded_dense_rows(self):
        # half dense rows, half a lattice d Z + Z^(n-1) scrambled by row operations
        rng = random.Random("containment")
        lats = []
        for k in range(300):
            n = 3 + k % 4
            if k % 2:
                rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n + rng.randint(0, 1))]
            else:
                rows = [[rng.randint(1, 6)] + [rng.randint(-6, 6) for _ in range(n - 1)]]
                rows += [[int(c == i) for c in range(n)] for i in range(1, n)]
                for _ in range(3 * n):
                    i, j = rng.sample(range(n), 2)
                    q = rng.randint(-3, 3)
                    rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
            try:
                lats.append(hnf(rows))
            except RankDeficientError:
                continue
        assert len(lats) > 250
        self.assert_same(lats)
