"""Statistical substrate: concentration inequalities and sampling designs.

This subpackage contains the probabilistic machinery that the Smokescreen
estimators (:mod:`repro.estimators`) are built on:

- :mod:`repro.stats.inequalities` — interval radii from Hoeffding,
  Hoeffding–Serfling, empirical Bernstein (single-``n`` and the
  union-over-time form used by the EBGS stopping algorithm) and the CLT,
  each in a scalar and an array-broadcasting ``*_batch`` form.
- :mod:`repro.stats.prefix_moments` — cumulative moments of nested prefix
  samples, the engine behind the profiler's vectorized fraction sweeps.
- :mod:`repro.stats.hypergeometric` — moments and the normal approximation of
  the hypergeometric distribution used by the MAX/MIN quantile bound
  (Theorem 3.2 of the paper).
- :mod:`repro.stats.sampling` — sampling-without-replacement designs,
  including the progressive (nested) sampler that lets profile generation
  reuse model invocations across sample fractions (paper §3.3.2).
- :mod:`repro.stats.quantiles` — rank and distinct-value-frequency utilities
  underlying the rank-based quantile error metric.
"""

from repro.stats.hypergeometric import (
    hypergeometric_mean,
    hypergeometric_variance,
    normal_approximation_interval,
    z_score,
)
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
from repro.stats.prefix_moments import PrefixMoments
from repro.stats.quantiles import (
    DistinctValueTable,
    empirical_quantile,
    quantile_rank_index,
    rank_of_value,
    relative_rank_error,
)
from repro.stats.sampling import (
    ProgressiveSampler,
    SampleDesign,
    stratified_time_sample,
)

__all__ = [
    "DistinctValueTable",
    "PrefixMoments",
    "ProgressiveSampler",
    "SampleDesign",
    "clt_radius",
    "clt_radius_batch",
    "empirical_bernstein_radius",
    "empirical_bernstein_radius_batch",
    "empirical_bernstein_serfling_radius",
    "empirical_bernstein_serfling_radius_batch",
    "empirical_bernstein_union_radius",
    "empirical_bernstein_union_radius_batch",
    "empirical_quantile",
    "hoeffding_radius",
    "hoeffding_radius_batch",
    "hoeffding_serfling_radius",
    "hoeffding_serfling_radius_batch",
    "hoeffding_serfling_rho",
    "hoeffding_serfling_rho_batch",
    "hypergeometric_mean",
    "hypergeometric_variance",
    "normal_approximation_interval",
    "quantile_rank_index",
    "rank_of_value",
    "relative_rank_error",
    "stratified_time_sample",
    "z_score",
]
