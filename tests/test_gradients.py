"""Gradient series rows, limits, and convergence certificates."""

from fractions import Fraction

import pytest

from thompson_sigma import gradients
from thompson_sigma.complexes import cells_for_subgroup_F, chi_m, classical_f_cells, d_bound
from thompson_sigma.errors import MAX_INDEX_DIGITS, DomainError, ParseError, ResourceLimitError
from thompson_sigma.gradients import (
    certify_convergence,
    chi_m_gradient_series,
    deficiency_gradient_series,
    rank_gradient_series,
)
from thompson_sigma.lattices import ChainSpec, chain, hnf

SCALING2 = ChainSpec("scaling", p=2)


class TestRankGradient:
    def test_scaling_rows(self):
        series = rank_gradient_series(SCALING2, 2, steps=5)
        rows = {row.s: row for row in series.rows}
        assert rows[0].upper == 1  # the whole group: (d - 1)/1 with d = 2
        assert rows[3].index == 64
        assert rows[3].upper == Fraction(4, 64) == Fraction(1, 16)
        assert all(row.lower == 0 for row in series.rows)

    def test_case1_chain_uses_smaller_bound(self):
        # coordinate chains keep e_1, so d <= 3 and the upper is 2/index
        series = rank_gradient_series(ChainSpec("coordinate", p=2), 2, steps=4)
        assert series.rows[2].upper == Fraction(2, 4)

    def test_upper_bound_shrinks_like_inverse_index(self):
        series = rank_gradient_series(SCALING2, 2, steps=11)
        for row in series.rows[1:]:
            assert row.upper == Fraction(4, row.index)
            assert row.upper <= Fraction(4, row.index)

    def test_symbolic_rows_for_n3(self):
        series = rank_gradient_series(SCALING2, 3, steps=3)
        assert series.rows[0].upper == 2  # (n - 1)/1 at the group itself
        assert series.rows[1].upper is None
        assert series.rows[1].upper_symbolic == "(4+d0)/8"

    def test_numeric_rows_with_override(self):
        series = rank_gradient_series(SCALING2, 3, steps=3, d0_override=2)
        assert series.rows[1].upper == Fraction(3 + 2 + 2 - 1, 8)

    def test_override_below_one_refused_on_entry(self):
        # for every lattice, whether or not its bound reads d0, and before the first row
        for rows in ([[2, 0], [0, 2]], [[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]):
            with pytest.raises(ParseError, match="^d0 override must be >= 1, got -5$"):
                d_bound(hnf(rows), d0_override=-5)
        for spec in (ChainSpec("coordinate", p=2), SCALING2):
            for n, steps in ((2, 3), (3, 3), (3, 1)):
                with pytest.raises(ParseError, match="^d0 override must be >= 1, got 0$"):
                    rank_gradient_series(spec, n, steps, d0_override=0)

    def test_steps_required(self):
        for steps in (None, 0, 2.5, "3"):
            for build in (
                lambda: rank_gradient_series(SCALING2, 2, steps),
                lambda: deficiency_gradient_series(SCALING2, 2, steps),
                lambda: chi_m_gradient_series(SCALING2, 2, 2, steps),
            ):
                with pytest.raises(ValueError, match="positive number of chain steps"):
                    build()


class TestDeficiencyGradient:
    def test_scaling_rows(self):
        series = deficiency_gradient_series(SCALING2, 2, steps=5)
        rows = {row.s: row for row in series.rows}
        assert (rows[0].lower, rows[0].upper) == (0, 2)
        assert rows[3].lower == Fraction(-7, 64)
        assert rows[3].upper == Fraction(2, 64)

    def test_needs_n2(self):
        with pytest.raises(DomainError):
            deficiency_gradient_series(SCALING2, 3, steps=2)

    def test_relaxed_chain(self):
        # increasing indices without nesting is enough for the limit
        terms = (
            hnf([[2, 0], [0, 1]]),
            hnf([[3, 0], [0, 1]]),
            hnf([[2, 0], [0, 2]]),
            hnf([[5, 0], [0, 2]]),
            hnf([[7, 0], [0, 3]]),
        )
        series = deficiency_gradient_series(
            ChainSpec("explicit", terms=terms), 2, steps=5
        )
        widths = [row.upper - row.lower for row in series.rows]
        assert widths[-1] < widths[0]
        indices = [row.index for row in series.rows]
        assert indices == sorted(indices) and len(set(indices)) == len(indices)


class TestChiGradient:
    def test_rows(self):
        series = chi_m_gradient_series(SCALING2, 2, 2, steps=4)
        rows = {row.s: row for row in series.rows}
        assert rows[2].upper == Fraction(8, 16) == Fraction(1, 2)
        assert rows[0].upper == 1  # chi_2 of the group complex is 1
        assert all(row.lower == 0 for row in series.rows)

    def test_m0_is_inverse_index(self):
        series = chi_m_gradient_series(SCALING2, 0, 2, steps=4)
        for row in series.rows:
            assert row.upper == Fraction(1, row.index)


# cases 3, 1, 2 and 3 of the n = 2 cell counts, none of index 1
EXPLICIT_TERMS = tuple(
    hnf(rows) for rows in ([[2, 0], [0, 2]], [[3, 0], [0, 1]], [[1, -1], [0, 4]], [[5, 0], [0, 7]])
)


class TestRowsEqualTheirSources:
    """Each row past the whole group is its subgroup's own data over the index."""

    CHAINS = (
        SCALING2,
        ChainSpec("scaling", p=3),
        ChainSpec("coordinate", p=2),
        ChainSpec("coordinate", p=5),
        ChainSpec("explicit", terms=EXPLICIT_TERMS),
    )

    @staticmethod
    def _terms(spec, n, series):
        for row in series.rows:
            lat = chain(spec, row.s, n)
            assert row.index == lat.index()
            if row.index > 1:
                yield row, lat

    def test_n2_rows(self):
        for spec in self.CHAINS:
            for row, lat in self._terms(spec, 2, rank_gradient_series(spec, 2, 4)):
                assert (row.lower, row.upper) == (0, Fraction(d_bound(lat).d_upper - 1, row.index))
            for row, lat in self._terms(spec, 2, deficiency_gradient_series(spec, 2, 4)):
                report = d_bound(lat)
                assert row.lower == Fraction(report.def_lower, row.index)
                assert row.upper == Fraction(report.def_upper, row.index)
            for m in (0, 1, 2, 5):
                for row, lat in self._terms(spec, 2, chi_m_gradient_series(spec, m, 2, 4)):
                    value = chi_m(cells_for_subgroup_F(lat)[0], m)
                    assert (row.lower, row.upper) == (0, Fraction(value, row.index))

    def test_n3_rank_rows(self):
        for spec in (ChainSpec("scaling", p=2), ChainSpec("coordinate", p=3)):
            for override in (None, 1, 4):
                series = rank_gradient_series(spec, 3, 4, d0_override=override)
                for row, lat in self._terms(spec, 3, series):
                    report = d_bound(lat, d0_override=override)
                    assert row.lower == 0
                    if report.d_upper is None:
                        assert row.upper is None
                        assert row.upper_symbolic == f"(4+d0)/{row.index}"
                    else:
                        assert row.upper == Fraction(report.d_upper - 1, row.index)
                        assert row.upper_symbolic is None

    def test_whole_group_row(self):
        # d = n, and for n = 2 the classical complex 1, 2, 2, ..., not the
        # cells of its lattice Z^2 (1, 3, 4, 4, ...)
        assert classical_f_cells().prefix(5) == (1, 2, 2, 2, 2, 2)
        for spec in (SCALING2, ChainSpec("coordinate", p=3)):
            for n in (2, 3, 4):
                first = rank_gradient_series(spec, n, 2, d0_override=1).rows[0]
                assert (first.s, first.index, first.lower, first.upper) == (0, 1, 0, n - 1)
            first = deficiency_gradient_series(spec, 2, 2).rows[0]
            assert (first.lower, first.upper) == (1 - 1 + 2 - 2, 2)
            for m in range(6):
                first = chi_m_gradient_series(spec, m, 2, 2).rows[0]
                assert (first.lower, first.upper) == (0, chi_m(classical_f_cells(), m)) == (0, 1)


class TestCertification:
    def test_deficiency_certified_at_ten_percent(self):
        series = deficiency_gradient_series(SCALING2, 2, steps=8)
        ok, first = certify_convergence(series, Fraction(1, 10))
        # |-7|/4^s <= 1/10 first holds at s = 4 (4^4 = 256 >= 70)
        assert ok and first == 4

    def test_constant_zero_series(self):
        series = chi_m_gradient_series(SCALING2, 0, 2, steps=3)
        shifted = type(series)(
            series.kind,
            series.arity,
            series.m,
            tuple(
                type(row)(row.s, row.index, Fraction(0), Fraction(0), None)
                for row in series.rows
            ),
        )
        ok, first = certify_convergence(shifted, Fraction(0))
        assert ok and first == 0

    def test_epsilon_zero_never_certified(self):
        series = rank_gradient_series(SCALING2, 2, steps=6)
        ok, first = certify_convergence(series, Fraction(0))
        assert not ok and first is None

    def test_symbolic_rows_rejected(self):
        series = rank_gradient_series(SCALING2, 3, steps=3)
        with pytest.raises(DomainError):
            certify_convergence(series, Fraction(1, 10))

    def test_empty_series_rejected(self):
        series = rank_gradient_series(SCALING2, 2, steps=2)
        empty = type(series)(series.kind, series.arity, None, ())
        with pytest.raises(DomainError):
            certify_convergence(empty, Fraction(1))


class _RowsBegan(Exception):
    pass


class TestIndexBudget:
    """The last index of a chain is checked before its first row."""

    SERIES = (
        rank_gradient_series,
        deficiency_gradient_series,
        lambda spec, n, steps: chi_m_gradient_series(spec, 2, n, steps),
    )
    # 2^e has more than MAX_INDEX_DIGITS digits from this exponent on
    E0 = (10**MAX_INDEX_DIGITS).bit_length()
    # (chain, steps whose last index has at most MAX_INDEX_DIGITS digits,
    # steps whose last index has more), all at n = 2
    EDGES = (
        (ChainSpec("coordinate", p=10), 4300, 4301),  # 10^4299 and 10^4300
        (ChainSpec("coordinate", p=2), E0, E0 + 1),
        (ChainSpec("scaling", p=10**2150 - 1), 2, None),  # (10^2150 - 1)^2
        (ChainSpec("scaling", p=10**2150), None, 2),  # 10^4300
        (ChainSpec("scaling", p=5), 1, 3100),
        (ChainSpec("scaling", p=5), None, 10**6),
        (ChainSpec("coordinate", p=2**20000), 1, 2),
    )

    def test_refused_just_past_the_budget(self, monkeypatch):
        def no_rows(*args):
            raise _RowsBegan

        monkeypatch.setattr(gradients, "chain", no_rows)
        message = f"^last chain index digit count exceeds the budget of {MAX_INDEX_DIGITS}$"
        for spec, at, past in self.EDGES:
            for series in self.SERIES:
                if at is not None:
                    with pytest.raises(_RowsBegan):
                        series(spec, 2, at)
                if past is not None:
                    with pytest.raises(ResourceLimitError, match=message):
                        series(spec, 2, past)

    def test_last_row_at_the_budget(self):
        series = deficiency_gradient_series(ChainSpec("coordinate", p=10**1433), 2, steps=4)
        assert series.rows[-1].index == 10**4299
