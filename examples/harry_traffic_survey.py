"""The paper's running example: Harry schedules road construction.

Harry administers a city camera on a night street (paper EXAMPLES 1-3).
The maintenance department needs the frame-averaged car count; the city
wants to protect faces (GDPR-style) and cut transmission energy. Harry:

1. activates profiling for the AVG car-count query,
2. reads the resolution-axis tradeoff curve (with a correction set, since
   resolution reduction is a non-random intervention),
3. picks the lowest resolution whose *guaranteed* error bound fits his
   budget — privacy policy already caps the resolution at 448x448, low
   enough that the face detector finds almost nothing,
4. configures the camera and runs the degraded query,
5. checks what the policy bought: privacy exposure and radio energy.

Guaranteed bounds are conservative by design (they hold in at least 95% of
worlds); the achieved error is typically far below the budget.

Run with: ``python examples/harry_traffic_survey.py``
"""

from __future__ import annotations

from repro import (
    Aggregate,
    PublicPreferences,
    Resolution,
    Smokescreen,
    mask_rcnn_like,
    night_street,
)
from repro.detection import default_suite
from repro.interventions import InterventionPlan
from repro.system import Administrator, Camera, TransmissionModel, privacy_report


def main() -> None:
    dataset = night_street(frame_count=6000)
    suite = default_suite()
    system = Smokescreen(dataset, mask_rcnn_like(), suite=suite, trials=10)
    query = system.query(Aggregate.AVG)

    # Profile generation: resolution is the knob Harry tunes, at half the
    # frames sampled; the correction set keeps the bounds trustworthy
    # under this non-random intervention.
    correction = system.build_correction_set(query)
    profile = system.profiler.profile_resolution_seeded(
        query,
        tuple(system.candidates(resolution_count=8).resolutions),
        7,
        fraction=0.5,
        correction=correction,
    )
    print("resolution-axis profile (f=0.5, correction-set repaired):")
    for knob, bound in zip(profile.knob_values(), profile.error_bounds()):
        print(f"  {int(knob)}x{int(knob)}  err_b={bound:.3f}")

    # Harry's public preferences: a guaranteed error ceiling, plus the
    # privacy policy's resolution cap (nothing sharper than 448x448 leaves
    # the camera — faces are unrecognisable well before that).
    harry = Administrator(
        name="Harry",
        preferences=PublicPreferences(
            max_error=0.80, max_resolution=Resolution(448)
        ),
    )
    camera = Camera("road-camera", dataset, suite, TransmissionModel())
    choice, estimate = harry.deploy(system, camera, query, profile)

    truth = system.processor.true_answer(query)
    print(f"\n{harry.name} chose: {choice.point.plan.label()}")
    print(
        f"degraded answer {estimate.value:.3f} vs truth {truth:.3f} "
        f"(achieved error {abs(estimate.value - truth) / truth:.1%}, "
        f"guaranteed ceiling {choice.point.error_bound:.1%})"
    )

    # What the policy bought.
    report = privacy_report(dataset, suite, choice.point.plan)
    transmission = TransmissionModel()
    print(
        f"\nface frames still recognisable: {report.face_frames_exposed:.0f} "
        f"({report.face_exposure_ratio:.1%} of undegraded exposure)"
    )
    print(
        f"person frames still recognisable: "
        f"{report.person_exposure_ratio:.1%} of undegraded exposure"
    )
    baseline_energy = transmission.plan_energy_joules(dataset, InterventionPlan())
    chosen_energy = transmission.plan_energy_joules(dataset, choice.point.plan)
    print(
        f"transmission saved: "
        f"{transmission.savings_ratio(dataset, choice.point.plan):.1%} "
        f"({chosen_energy:.1f} J per corpus pass instead of "
        f"{baseline_energy:.1f} J)"
    )


if __name__ == "__main__":
    main()
