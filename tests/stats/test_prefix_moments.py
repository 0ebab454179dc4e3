"""Tests for the prefix-cumulative moment engine.

The engine's contract: every per-fraction statistic it serves in O(1) must
equal the statistic numpy computes directly on the sliced prefix (within
the repo's 1e-9 numerical-equivalence policy — cumulative sums accumulate
in a different order than numpy's pairwise reductions).
"""

from __future__ import annotations

import numpy as np
import pytest

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
