"""Extremal search: exhaustive enumeration and annealing."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import newmanlab.search
from newmanlab.poly import NewmanPolynomial, RatioReport, _square_columns, metrics, square_oracle
from newmanlab.search import (
    SearchMetadata,
    SearchSpec,
    _flip,
    _Incumbent,
    exhaustive_search,
    local_search,
)
from newmanlab.sparsify import verify_hypothesis


def canonical_candidates(degree: int) -> list[list[int]]:
    """Coefficients of every canonical candidate of one degree, in enumeration order."""
    return [[1] + [(interior >> j) & 1 for j in range(degree - 1)] + [1]
            for interior in range(1 << (degree - 1))]


def reversal(interior: int, degree: int) -> int:
    """The interior pattern of the reversed candidate."""
    return int(f"{interior:0{degree - 1}b}"[::-1], 2)


def naive_minimum(degree: int, floor: Fraction = Fraction(0)) -> Fraction:
    """Dumb enumerator over all canonical candidates of one degree."""
    best = None
    for coeffs in canonical_candidates(degree):
        p = NewmanPolynomial(coeffs)
        if Fraction(p.l1) < floor * degree:
            continue
        product = metrics(p, square_coeffs=square_oracle(p)).product
        if best is None or product < best:
            best = product
    return best


class TestExhaustive:
    def test_degree_one_single_candidate(self):
        res = exhaustive_search(SearchSpec(1, 1))
        assert res.best.coefficients.tolist() == [1, 1]
        assert res.report.product == Fraction(1, 2)
        assert res.metadata.candidates_examined == 1

    def test_degree_two_pair(self):
        res = exhaustive_search(SearchSpec(2, 2))
        assert res.report.product == Fraction(2, 3)
        assert res.best.coefficients.tolist() == [1, 1, 1]

    def test_all_ones_witness_bound(self):
        res = exhaustive_search(SearchSpec(1, 10))
        by_degree = {row.degree: row for row in res.degree_table}
        for degree in range(1, 11):
            assert by_degree[degree].report.product <= Fraction(degree, degree + 1)

    def test_matches_naive_enumerator(self):
        res = exhaustive_search(SearchSpec(1, 14))
        by_degree = {row.degree: row.report.product for row in res.degree_table}
        for degree in range(1, 15):
            assert by_degree[degree] == naive_minimum(degree)

    # floor * degree is a whole number at some degrees and not at others,
    # which exercises the ceiling taken on the term-count threshold.
    @pytest.mark.parametrize("floor", [Fraction(1), Fraction(2, 3), Fraction(1, 2)],
                             ids=["one", "two_thirds", "half"])
    def test_density_floor_keeps_only_dense_candidates(self, floor):
        res = exhaustive_search(SearchSpec(3, 8, density_floor=floor))
        for row in res.degree_table:
            assert row.report.l1 >= floor * row.degree  # feasibility
            assert row.report.product <= Fraction(row.degree, row.degree + 1)
        # and the minima agree with the dumb enumerator under the same floor
        by_degree = {row.degree: row.report.product for row in res.degree_table}
        for degree in range(3, 9):
            assert by_degree[degree] == naive_minimum(degree, floor=floor)
        # A canonical interior is skipped when its reversal encodes smaller;
        # each of the others is either rejected by the floor or examined.
        interiors = [(degree, interior) for degree in range(3, 9)
                     for interior in range(1 << (degree - 1))]
        skipped = sum(reversal(interior, degree) < interior for degree, interior in interiors)
        sparse = sum(
            Fraction(interior.bit_count() + 2) < floor * degree
            for degree, interior in interiors
            if reversal(interior, degree) >= interior
        )
        assert res.metadata.reversal_skipped == skipped
        assert res.metadata.density_rejected == sparse
        assert res.metadata.candidates_examined == len(interiors) - skipped - sparse

    def test_density_rejections_counted(self):
        res = exhaustive_search(SearchSpec(6, 6, density_floor=Fraction(9, 10)))
        assert res.metadata.density_rejected > 0

    def test_equal_products_resolve_to_the_lowest_degree(self):
        # The minima of degrees 2 and 3 tie: 1 + x + x**2 and 1 + x + x**3 both
        # have product 2/3.  Ranges from degree 1 never tie, as 1 + x has 1/2.
        res = exhaustive_search(SearchSpec(2, 3))
        assert [row.report.product for row in res.degree_table] == [Fraction(2, 3)] * 2
        assert res.best == NewmanPolynomial([1, 1, 1])
        assert res.report == res.degree_table[0].report
        assert res.to_json_dict()["best_polynomial"] == "0,1,2"

    def test_deterministic(self):
        a = exhaustive_search(SearchSpec(1, 9))
        b = exhaustive_search(SearchSpec(1, 9))
        assert a.best == b.best
        assert a.report == b.report

    def test_best_satisfies_own_hypothesis(self):
        res = exhaustive_search(SearchSpec(2, 12))
        for row in res.degree_table:
            c0 = Fraction(row.report.l1, row.degree)
            assert verify_hypothesis(row.report, c0, row.report.product)

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(0, 5)
        with pytest.raises(ValueError):
            SearchSpec(5, 3)
        with pytest.raises(ValueError):
            exhaustive_search(SearchSpec(1, 29))  # exhaustive cap
        with pytest.raises(ValueError):
            SearchSpec(1, 5, density_floor=Fraction(3, 2))
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
                SearchSpec(1, 5, seed=seed)
        with pytest.raises(ValueError, match="iteration_budget must be nonnegative"):
            SearchSpec(1, 5, iteration_budget=-1)

    def test_floor_one_skips_a_block_with_no_feasible_pattern(self, monkeypatch):
        # At degree 16 a candidate needs 16 of its 17 terms: the all-ones
        # polynomial or one interior zero.  The first block of 8192 interior
        # patterns holds none of them, so only the other three are squared.
        calls = []
        square_columns = newmanlab.search._square_columns
        monkeypatch.setattr(newmanlab.search, "_square_columns",
                            lambda columns: calls.append(columns.shape[1]) or square_columns(columns))
        res = exhaustive_search(SearchSpec(16, 16, density_floor=Fraction(1)))
        assert newmanlab.search._BLOCK == 1 << 13 and len(calls) == 3
        # The all-ones polynomial and 8 of the 15 one-zero patterns (the
        # rest are reversals of those, and the middle zero is its own).
        assert res.metadata.candidates_examined == sum(calls) == 9
        assert res.report.l1 >= 16
        assert res.report.product == naive_minimum(16, floor=Fraction(1))


class TestSquareKernels:
    def test_square_columns_matches_oracle(self):
        for degree in range(1, 11):
            candidates = canonical_candidates(degree)
            squares = _square_columns(np.array(candidates, dtype=np.uint8).T)
            for k, coeffs in enumerate(candidates):
                expected = square_oracle(NewmanPolynomial(coeffs)).tolist()
                assert squares[:, k].tolist() == expected
        # The exhaustive cap's all-ones candidate: its centre, 29, is the
        # largest coefficient the uint8 kernel meets in a search.
        ones = _square_columns(np.ones((29, 1), dtype=np.uint8))[:, 0]
        assert ones[28] == 29
        assert ones.tolist() == square_oracle(NewmanPolynomial.all_ones(28)).tolist()

    @given(st.data())
    @settings(max_examples=80)
    def test_flip_and_swap_update_the_square(self, data):
        degree = data.draw(st.integers(min_value=2, max_value=200))
        interior = data.draw(st.lists(st.integers(0, 1), min_size=degree - 1, max_size=degree - 1))
        bits = [1, *interior, 1]
        twice = 2 * np.array(bits, dtype=np.int32)
        sq = square_oracle(NewmanPolynomial(bits)).astype(np.int32)
        if data.draw(st.booleans()):  # a swap: one interior term out, another in
            ones = [j for j in range(1, degree) if bits[j]]
            zeros = [j for j in range(1, degree) if not bits[j]]
            assume(ones and zeros)
            moved = [data.draw(st.sampled_from(ones)), data.draw(st.sampled_from(zeros))]
        else:
            moved = [data.draw(st.integers(min_value=1, max_value=degree - 1))]
        for i in moved:
            _flip(bits, twice, sq, i)
        assert sq.tolist() == square_oracle(NewmanPolynomial(bits)).tolist()
        assert twice.tolist() == [2 * b for b in bits]


class TestLocalSearch:
    def test_budget_zero_returns_dense_start(self):
        spec = SearchSpec(8, 8, iteration_budget=0, seed=4)
        res = local_search(spec)
        assert res.best == NewmanPolynomial.all_ones(8)
        assert res.report.product == Fraction(8, 9)

    def test_same_seed_identical_trajectory(self):
        spec = SearchSpec(10, 10, iteration_budget=4000, seed=902)
        a = local_search(spec)
        b = local_search(spec)
        assert a.best == b.best
        assert a.metadata.trajectory == b.metadata.trajectory
        assert a.metadata.candidates_examined == b.metadata.candidates_examined

    def test_never_beats_exhaustive_and_usually_matches(self):
        target = exhaustive_search(SearchSpec(12, 12)).report.product
        hits = 0
        for seed in range(10):
            spec = SearchSpec(12, 12, iteration_budget=8000, seed=seed)
            found = local_search(spec).report.product
            assert found >= target  # regression bound: may match, never beat
            hits += found == target
        assert hits >= 9

    # At degree 10, floor * degree is whole for 1 and 1/2 but not for 2/3.
    @pytest.mark.parametrize("floor", [Fraction(4, 5), Fraction(1), Fraction(2, 3), Fraction(1, 2)],
                             ids=["four_fifths", "one", "two_thirds", "half"])
    def test_respects_density_floor(self, floor):
        spec = SearchSpec(10, 10, density_floor=floor, iteration_budget=2000, seed=7)
        res = local_search(spec)
        assert Fraction(res.report.l1) >= floor * res.report.degree

    def test_multi_degree_table(self):
        spec = SearchSpec(4, 7, iteration_budget=2000, seed=1)
        res = local_search(spec)
        assert [row.degree for row in res.degree_table] == [4, 5, 6, 7]

    def test_multi_degree_trajectory_improves_the_best_product(self):
        # A later degree's first incumbents are not improvements of the best.
        res = local_search(SearchSpec(4, 7, iteration_budget=2000, seed=1))
        values = [value for _, value in res.metadata.trajectory]
        assert all(later < earlier for earlier, later in zip(values, values[1:]))
        assert values[-1] == res.report.product

    def test_trajectory_from_degree_one_holds_only_the_best(self):
        res = local_search(SearchSpec(1, 3, iteration_budget=40))
        assert res.metadata.trajectory == [(0, Fraction(1, 2))]

    def test_range_from_degree_one(self):
        """Degree 1 has no interior bit to move, so its restarts take no step."""
        res = local_search(SearchSpec(1, 3, iteration_budget=40))
        assert res.degree_table == exhaustive_search(SearchSpec(1, 3)).degree_table
        first = res.degree_table[0]
        assert first.polynomial == NewmanPolynomial([1, 1])
        assert first.report.product == Fraction(1, 2)


class TestIncumbentRows:
    """Each degree row is built from copies of the incumbent's bits and square,
    taken when it was found; rebuild its report from an independent square."""

    @staticmethod
    def assert_rows_match_the_oracle(result):
        for row in result.degree_table:
            oracle = RatioReport(row.polynomial.l1, row.degree,
                                 int(square_oracle(row.polynomial).max()))
            assert (row.report.l1, row.report.height, row.report.product) == \
                (oracle.l1, oracle.height, oracle.product)
            assert row.polynomial.degree == row.degree

    def test_incumbent_outlives_the_walk(self):
        # A walk goes on changing its bits and square in place after an improvement.
        incumbent = _Incumbent(3, SearchSpec(3, 3))
        bits = [1, 1, 0, 1]
        sq = square_oracle(NewmanPolynomial(bits)).astype(np.int32)
        meta = SearchMetadata(mode="local_search", seed=0)
        assert incumbent.score(int(sq.max()), 3, bits, sq, meta, 0) == (6, 9)
        bits[2] = 1
        sq[:] = 9
        row = incumbent.row()
        assert row.polynomial == NewmanPolynomial([1, 1, 0, 1])
        assert row.report == metrics(row.polynomial)
        assert meta.trajectory == [(0, Fraction(2, 3))]

    @pytest.mark.parametrize("degree", [40, 256])
    @pytest.mark.parametrize("seed", [0, 5, 31])
    def test_local_rows_and_trajectory(self, degree, seed):
        res = local_search(SearchSpec(degree, degree, density_floor=Fraction(1, 2),
                                      iteration_budget=2000, seed=seed))
        self.assert_rows_match_the_oracle(res)
        assert res.report == res.degree_table[0].report
        values = [value for _, value in res.metadata.trajectory]
        assert len(values) > 1
        assert all(later < earlier for earlier, later in zip(values, values[1:]))
        assert values[-1] == res.report.product

    def test_exhaustive_rows(self):
        res = exhaustive_search(SearchSpec(1, 12))
        assert [row.degree for row in res.degree_table] == list(range(1, 13))
        self.assert_rows_match_the_oracle(res)
