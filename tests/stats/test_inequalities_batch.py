"""Property tests: batch radii match the scalar forms elementwise.

The batch variants exist so the profiler can price a whole trial matrix in
one call; the only contract worth testing is elementwise equality with the
scalar functions (including the edges the sweep actually hits: ``n = 1``
and near-full-population Serfling sample sizes) plus shared validation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.stats.inequalities import (
    clt_radius,
    clt_radius_batch,
    empirical_bernstein_radius,
    empirical_bernstein_radius_batch,
    empirical_bernstein_serfling_radius,
    empirical_bernstein_serfling_radius_batch,
    empirical_bernstein_union_radius,
    empirical_bernstein_union_radius_batch,
    hoeffding_radius,
    hoeffding_radius_batch,
    hoeffding_serfling_radius,
    hoeffding_serfling_radius_batch,
    hoeffding_serfling_rho,
    hoeffding_serfling_rho_batch,
)

POPULATION = 500

#: Sample sizes the sweeps actually hit: the n=1 edge, interior points, and
#: the near-exhaustion Serfling edge where rho_n collapses toward zero.
EDGE_SIZES = np.array([1, 2, 7, 100, POPULATION - 1, POPULATION])

deltas = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
ranges = st.floats(min_value=0.0, max_value=1e6)
stds = st.floats(min_value=0.0, max_value=1e6)


def assert_matches_scalar(batch_values, scalar_fn, sizes):
    scalar_values = np.array([scalar_fn(int(n)) for n in sizes])
    np.testing.assert_array_equal(np.asarray(batch_values), scalar_values)


class TestBatchMatchesScalar:
    @settings(max_examples=25)
    @given(delta=deltas, value_range=ranges)
    def test_hoeffding(self, delta, value_range):
        assert_matches_scalar(
            hoeffding_radius_batch(EDGE_SIZES, delta, value_range),
            lambda n: hoeffding_radius(n, delta, value_range),
            EDGE_SIZES,
        )

    def test_serfling_rho(self):
        assert_matches_scalar(
            hoeffding_serfling_rho_batch(EDGE_SIZES, POPULATION),
            lambda n: hoeffding_serfling_rho(n, POPULATION),
            EDGE_SIZES,
        )

    def test_serfling_rho_collapses_at_full_population(self):
        rho = hoeffding_serfling_rho_batch(EDGE_SIZES, POPULATION)
        assert rho[-1] == 0.0

    @settings(max_examples=25)
    @given(delta=deltas, value_range=ranges)
    def test_hoeffding_serfling(self, delta, value_range):
        assert_matches_scalar(
            hoeffding_serfling_radius_batch(
                EDGE_SIZES, POPULATION, delta, value_range
            ),
            lambda n: hoeffding_serfling_radius(n, POPULATION, delta, value_range),
            EDGE_SIZES,
        )

    @settings(max_examples=25)
    @given(delta=deltas, value_range=ranges, sample_std=stds)
    def test_empirical_bernstein(self, delta, value_range, sample_std):
        assert_matches_scalar(
            empirical_bernstein_radius_batch(
                EDGE_SIZES, delta, value_range, sample_std
            ),
            lambda n: empirical_bernstein_radius(n, delta, value_range, sample_std),
            EDGE_SIZES,
        )

    @settings(max_examples=25)
    @given(delta=deltas, value_range=ranges, sample_std=stds)
    def test_empirical_bernstein_union(self, delta, value_range, sample_std):
        assert_matches_scalar(
            empirical_bernstein_union_radius_batch(
                EDGE_SIZES, delta, value_range, sample_std
            ),
            lambda t: empirical_bernstein_union_radius(
                t, delta, value_range, sample_std
            ),
            EDGE_SIZES,
        )

    # Deltas where an ``np.log`` of the per-step delta_t is 1 ulp off the
    # scalar form's ``math.log`` (at t=7 and t=1 respectively).
    @pytest.mark.parametrize("delta", [0.42586564495756235, 0.820528717520108])
    def test_empirical_bernstein_union_log_ulp_cases(self, delta):
        assert_matches_scalar(
            empirical_bernstein_union_radius_batch(EDGE_SIZES, delta, 0.0, 1.0),
            lambda t: empirical_bernstein_union_radius(t, delta, 0.0, 1.0),
            EDGE_SIZES,
        )

    @settings(max_examples=25)
    @given(delta=deltas, value_range=ranges, sample_std=stds)
    def test_empirical_bernstein_serfling(self, delta, value_range, sample_std):
        assert_matches_scalar(
            empirical_bernstein_serfling_radius_batch(
                EDGE_SIZES, POPULATION, delta, value_range, sample_std
            ),
            lambda n: empirical_bernstein_serfling_radius(
                n, POPULATION, delta, value_range, sample_std
            ),
            EDGE_SIZES,
        )

    @settings(max_examples=25)
    @given(delta=deltas, sample_std=stds)
    def test_clt(self, delta, sample_std):
        assert_matches_scalar(
            clt_radius_batch(EDGE_SIZES, delta, sample_std),
            lambda n: clt_radius(n, delta, sample_std),
            EDGE_SIZES,
        )

    def test_per_element_ranges_broadcast(self):
        value_ranges = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
        batch = hoeffding_radius_batch(EDGE_SIZES, 0.05, value_ranges)
        expected = np.array([
            hoeffding_radius(int(n), 0.05, float(r))
            for n, r in zip(EDGE_SIZES, value_ranges)
        ])
        np.testing.assert_array_equal(batch, expected)

    def test_scalar_inputs_give_zero_dim_result(self):
        batch = hoeffding_radius_batch(100, 0.05, 2.0)
        assert float(batch) == hoeffding_radius(100, 0.05, 2.0)


class TestBatchValidation:
    def test_rejects_any_nonpositive_n(self):
        with pytest.raises(ConfigurationError):
            hoeffding_radius_batch(np.array([5, 0, 3]), 0.05, 1.0)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ConfigurationError):
            hoeffding_radius_batch(EDGE_SIZES, delta, 1.0)

    def test_rejects_any_negative_range(self):
        with pytest.raises(ConfigurationError):
            hoeffding_radius_batch(EDGE_SIZES, 0.05, np.array([1.0] * 5 + [-1.0]))

    def test_rejects_any_negative_std(self):
        with pytest.raises(ConfigurationError):
            clt_radius_batch(EDGE_SIZES, 0.05, np.array([1.0] * 5 + [-0.5]))

    def test_rejects_sample_exceeding_population(self):
        with pytest.raises(ConfigurationError):
            hoeffding_serfling_radius_batch(
                np.array([POPULATION + 1]), POPULATION, 0.05, 1.0
            )

    def test_union_variant_rejects_bad_delta_array(self):
        with pytest.raises(ConfigurationError):
            empirical_bernstein_radius_batch(
                EDGE_SIZES, np.array([0.05] * 5 + [0.0]), 1.0, 1.0
            )


#: Every batch form with good arguments, keyed by parameter name.
_BATCH_FORMS = {
    hoeffding_radius_batch: {"n": EDGE_SIZES, "delta": 0.05, "value_range": 2.0},
    hoeffding_serfling_rho_batch: {"n": EDGE_SIZES, "population": POPULATION},
    hoeffding_serfling_radius_batch: {
        "n": EDGE_SIZES, "population": POPULATION, "delta": 0.05,
        "value_range": 2.0,
    },
    empirical_bernstein_radius_batch: {
        "n": EDGE_SIZES, "delta": 0.05, "value_range": 2.0, "sample_std": 0.5,
    },
    empirical_bernstein_union_radius_batch: {
        "t": EDGE_SIZES, "delta": 0.05, "value_range": 2.0, "sample_std": 0.5,
    },
    empirical_bernstein_serfling_radius_batch: {
        "n": EDGE_SIZES, "population": POPULATION, "delta": 0.05,
        "value_range": 2.0, "sample_std": 0.5,
    },
    clt_radius_batch: {"n": EDGE_SIZES, "delta": 0.05, "sample_std": 0.5},
}

#: Bad values of each argument; ``n``'s also stand for ``t``.
_BAD_ARGUMENTS = {
    "n": [np.array([5, 0, 3]), np.array([-1]), 0],
    "population": [POPULATION - 1],
    "delta": [0.0, 1.0, -0.1, float("nan"), 1.5],
    "value_range": [np.array([1.0, -1.0]), -0.5],
    "sample_std": [np.array([0.5, -0.5]), -1.0],
}


@pytest.mark.parametrize(
    "form, argument, bad",
    [
        pytest.param(form, argument, bad, id=f"{form.__name__}-{argument}-{i}")
        for form, good in _BATCH_FORMS.items()
        for argument in good
        for i, bad in enumerate(_BAD_ARGUMENTS["n" if argument == "t" else argument])
    ],
)
def test_each_bad_argument_is_refused_by_every_batch_form(form, argument, bad):
    good = _BATCH_FORMS[form]
    form(**good)  # the good arguments price
    with pytest.raises(ConfigurationError):
        form(**{**good, argument: bad})


def test_bernstein_batch_refuses_a_nan_in_a_delta_array():
    with pytest.raises(ConfigurationError):
        empirical_bernstein_radius_batch(
            EDGE_SIZES, np.array([0.05] * 5 + [float("nan")]), 1.0, 1.0
        )


class TestEbgsPrefixUse:
    """The EBGS envelope spends delta_t = delta/(t(t+1)) per prefix."""

    def test_union_equals_plain_bernstein_at_spent_delta(self):
        t = np.arange(1, 20)
        delta = 0.05
        union = empirical_bernstein_union_radius_batch(t, delta, 3.0, 1.2)
        spent = empirical_bernstein_radius_batch(
            t, delta / (t * (t + 1.0)), 3.0, 1.2
        )
        np.testing.assert_array_equal(union, spent)
