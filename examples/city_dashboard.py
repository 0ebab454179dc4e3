"""A city dashboard: one degradation setting serving a query workload.

A transport department runs several analytical queries over the same
intersection camera (the paper's §1: "each query in a workload"):

- AVG cars per frame      -> congestion level for signal timing
- COUNT frames with cars  -> busy-time share for lane-closure planning
- MAX (0.99-quantile)     -> peak crowding for incident staffing

The camera applies *one* degradation setting for all of them, so the
administrator needs the most aggressive sampling fraction whose bounded
error satisfies every query's own accuracy target. The workload shares the
expensive machinery: model outputs, the degraded samples, and a single
correction set sized at the most demanding query's elbow.

Run with: ``python examples/city_dashboard.py``
"""

from __future__ import annotations

import numpy as np

from repro import Aggregate, InterventionPlan, QueryWorkload, ua_detrac, yolo_v4_like
from repro.detection import default_suite
from repro.query import AggregateQuery, QueryProcessor
from repro.system import TransmissionModel


def main() -> None:
    dataset = ua_detrac(frame_count=5000)
    model = yolo_v4_like()
    processor = QueryProcessor(default_suite())

    queries = [
        AggregateQuery(dataset, model, Aggregate.AVG),
        AggregateQuery(dataset, model, Aggregate.COUNT),
        AggregateQuery(dataset, model, Aggregate.MAX),
    ]
    workload = QueryWorkload(queries, processor, trials=5)

    correction = workload.build_shared_correction_set(1)
    print(
        f"shared correction set: {correction.size} frames "
        f"({correction.size / dataset.frame_count:.1%} of the corpus)"
    )

    fractions = (0.02, 0.05, 0.1, 0.2, 0.4, 0.7)
    profiles = workload.profile_sampling(fractions, 2, correction=correction)
    print("\nper-query sampling profiles (fraction -> bounded error):")
    for label, profile in profiles.items():
        bounds = ", ".join(
            f"{knob:g}:{bound:.2f}"
            for knob, bound in zip(profile.knob_values(), profile.error_bounds())
        )
        print(f"  {label}\n    {bounds}")

    # Each query has its own accuracy requirement.
    targets = {
        queries[0].label(): 0.40,  # congestion: rough level is enough
        queries[1].label(): 0.15,  # busy-time share: drives budget decisions
        queries[2].label(): 0.05,  # peak crowding: rank error must be small
    }
    choice = workload.choose_sampling(profiles, targets)
    print(f"\nchosen shared fraction: f={choice.fraction:g}")
    for label, bound in choice.bounds.items():
        print(f"  {label}: bounded at {bound:.3f} (target {targets[label]:.2f})")

    # What every dashboard tile shows under the shared plan, vs truth.
    plan = InterventionPlan.from_knobs(f=choice.fraction)
    rng = np.random.default_rng(3)
    print("\ndashboard under the shared degradation:")
    transmission = TransmissionModel()
    for query in queries:
        execution = processor.execute(query, plan, rng)
        from repro.estimators import estimate_query

        estimate = estimate_query(query, execution)
        truth = processor.true_answer(query)
        print(
            f"  {query.aggregate.name:<6} estimate {estimate.value:10.2f}  "
            f"truth {truth:10.2f}"
        )
    print(
        f"\ntransmission saved vs full video: "
        f"{transmission.savings_ratio(dataset, plan):.1%}"
    )


if __name__ == "__main__":
    main()
