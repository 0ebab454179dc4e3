"""Tests for the prefix-cumulative moment engine.

The engine's contract: every per-fraction statistic it serves in O(1) must
equal the statistic numpy computes directly on the sliced prefix (within
the repo's 1e-9 numerical-equivalence policy — cumulative sums accumulate
in a different order than numpy's pairwise reductions).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, EstimationError
from repro.stats.prefix_moments import PrefixMoments
from tests.scalar_oracle import EagerPrefixMoments

RTOL = 1e-9
ATOL = 1e-12


@pytest.fixture
def matrix() -> np.ndarray:
    return np.random.default_rng(7).gamma(2.0, 3.0, size=(9, 80))


@pytest.fixture
def moments(matrix) -> PrefixMoments:
    return PrefixMoments(matrix)


class TestConstruction:
    def test_shape_properties(self, moments):
        assert moments.trials == 9
        assert moments.max_size == 80

    def test_rejects_one_dimensional(self):
        with pytest.raises(ConfigurationError):
            PrefixMoments(np.arange(5.0))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            PrefixMoments(np.empty((0, 4)))

    def test_rejects_non_finite(self):
        bad = np.ones((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(EstimationError):
            PrefixMoments(bad)

    def test_row_returns_original_values(self, moments, matrix):
        np.testing.assert_array_equal(moments.row(4), matrix[4])


class TestMomentsMatchDirect:
    @pytest.mark.parametrize("n", [1, 2, 37, 80])
    def test_mean(self, moments, matrix, n):
        np.testing.assert_allclose(
            moments.mean(n), matrix[:, :n].mean(axis=1), rtol=RTOL, atol=ATOL
        )

    @pytest.mark.parametrize("n", [1, 2, 37, 80])
    def test_population_variance(self, moments, matrix, n):
        np.testing.assert_allclose(
            moments.variance(n), matrix[:, :n].var(axis=1), rtol=RTOL, atol=ATOL
        )

    @pytest.mark.parametrize("n", [2, 37, 80])
    def test_sample_std(self, moments, matrix, n):
        np.testing.assert_allclose(
            moments.std(n, ddof=1),
            matrix[:, :n].std(axis=1, ddof=1),
            rtol=RTOL,
            atol=ATOL,
        )

    @pytest.mark.parametrize("n", [1, 37, 80])
    def test_range(self, moments, matrix, n):
        prefix = matrix[:, :n]
        np.testing.assert_array_equal(moments.minimum(n), prefix.min(axis=1))
        np.testing.assert_array_equal(moments.maximum(n), prefix.max(axis=1))
        np.testing.assert_array_equal(
            moments.value_range(n), prefix.max(axis=1) - prefix.min(axis=1)
        )

    def test_prefix_matrices_match_per_step(self, moments, matrix):
        n = 23
        means = moments.prefix_mean_matrix(n)
        variances = moments.prefix_variance_matrix(n)
        for t in range(1, n + 1):
            np.testing.assert_allclose(
                means[:, t - 1], matrix[:, :t].mean(axis=1), rtol=RTOL, atol=ATOL
            )
            np.testing.assert_allclose(
                variances[:, t - 1],
                matrix[:, :t].var(axis=1),
                rtol=RTOL,
                atol=ATOL,
            )

    def test_constant_rows_have_zero_variance(self):
        moments = PrefixMoments(np.full((3, 10), 4.2))
        np.testing.assert_array_equal(moments.variance(10), np.zeros(3))
        np.testing.assert_array_equal(moments.value_range(10), np.zeros(3))


class TestSizeValidation:
    @pytest.mark.parametrize("n", [0, -1, 81])
    def test_rejects_out_of_range_prefix(self, moments, n):
        with pytest.raises(ConfigurationError):
            moments.mean(n)

    def test_rejects_ddof_at_least_n(self, moments):
        with pytest.raises(ConfigurationError):
            moments.variance(1, ddof=1)


def _oracle_matrices():
    rng = np.random.default_rng(11)
    signed = rng.normal(0.0, 5.0, size=(7, 60))
    signed[:, ::9] = 0.0
    signed[::2, 4::9] = -0.0
    return {
        "signed": signed,
        "offset": 1e8 + rng.normal(0.0, 1e-3, size=(5, 40)),
        "counts": rng.poisson(3.0, size=(6, 50)).astype(float),
        "single-column": rng.normal(size=(4, 1)),
        "single-row": rng.gamma(2.0, 3.0, size=(1, 33)),
    }


ORACLE_MATRICES = _oracle_matrices()


def assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestMatchesEagerOracle:
    """The lazily built moments equal the eager construction bit for bit."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
    def test_every_statistic_at_every_length(self, name):
        matrix = ORACLE_MATRICES[name]
        eager = EagerPrefixMoments(matrix)
        # Extrema first: they must not depend on the shifted sums.
        lazy = PrefixMoments(matrix)
        for n in range(1, matrix.shape[1] + 1):
            for method in ("minimum", "maximum", "value_range", "mean",
                           "second_moment", "prefix_mean_matrix",
                           "prefix_variance_matrix"):
                assert_bytes_equal(
                    getattr(lazy, method)(n), getattr(eager, method)(n)
                )
            for ddof in (0, 1):
                if n > ddof:
                    assert_bytes_equal(
                        lazy.variance(n, ddof), eager.variance(n, ddof)
                    )
                    assert_bytes_equal(lazy.std(n, ddof), eager.std(n, ddof))

    @pytest.mark.parametrize(
        "first", ["variance", "std", "second_moment", "prefix_variance_matrix"]
    )
    def test_first_variance_call_order_is_invisible(self, first):
        matrix = ORACLE_MATRICES["offset"]
        eager = EagerPrefixMoments(matrix)
        lazy = PrefixMoments(matrix)
        n = matrix.shape[1]
        assert_bytes_equal(getattr(lazy, first)(n), getattr(eager, first)(n))
        assert_bytes_equal(lazy.variance(7, 1), eager.variance(7, 1))


#: Values with negatives and both signed zeros, so ties between ``0.0``
#: and ``-0.0`` occur often.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _matrix_and_lengths(draw):
    trials = draw(st.integers(1, 4))
    size = draw(st.integers(1, 30))
    flat = draw(st.lists(_VALUES, min_size=trials * size, max_size=trials * size))
    lengths = draw(st.lists(st.integers(1, size), min_size=1, max_size=12))
    order = draw(st.sampled_from(["drawn", "ascending", "descending"]))
    if order == "ascending":
        lengths = sorted(lengths)
    elif order == "descending":
        lengths = sorted(lengths, reverse=True)
    return np.array(flat).reshape(trials, size), lengths


class TestRunningExtrema:
    """Running extrema equal a direct ``matrix[:, :n]`` reduction.

    ``array_equal`` compares numbers, so ``0.0 == -0.0``: which signed
    zero a tie returns depends on the reduction order, and no bound reads
    the sign of a zero range.
    """

    @settings(max_examples=150, deadline=None)
    @given(_matrix_and_lengths())
    def test_any_length_sequence_matches_direct(self, case):
        matrix, lengths = case
        moments = PrefixMoments(matrix)
        for n in lengths:
            low, high = matrix[:, :n].min(axis=1), matrix[:, :n].max(axis=1)
            assert np.array_equal(moments.minimum(n), low)
            assert np.array_equal(moments.maximum(n), high)
            assert np.array_equal(moments.value_range(n), high - low)

    @settings(max_examples=80, deadline=None)
    @given(_matrix_and_lengths())
    def test_grid_rows_match_single_lengths(self, case):
        matrix, lengths = case
        grid = sorted(lengths)
        moments = PrefixMoments(matrix)
        for method in ("minimum", "maximum", "value_range", "mean"):
            rows = getattr(moments, method)(grid)
            assert rows.shape == (len(grid), matrix.shape[0])
            assert rows.flags["C_CONTIGUOUS"]
            for f, n in enumerate(grid):
                single = getattr(PrefixMoments(matrix), method)(n)
                assert np.array_equal(rows[f], single)

    @pytest.mark.parametrize("method", ["minimum", "maximum", "value_range"])
    def test_returned_arrays_do_not_alias_the_cache(self, matrix, method):
        moments = PrefixMoments(matrix)
        for n in (10, 10, 40, (40, 80), 80):
            getattr(moments, method)(n)[...] = 1e300
        for n in (5, 10, 40, 80):
            prefix = matrix[:, :n]
            assert np.array_equal(moments.minimum(n), prefix.min(axis=1))
            assert np.array_equal(moments.maximum(n), prefix.max(axis=1))
