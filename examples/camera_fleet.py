"""A two-camera fleet: one city-wide answer, one guaranteed bound.

The paper's deployment (§1) is a *set* of networked cameras feeding one
central processor. Here a city monitors a busy downtown intersection and
a quiet suburban street; the transport department wants the city-wide
average cars per frame. Each camera samples its own frames under its own
degradation plan; the central system combines the per-camera intervals
(at delta/2 each) into one fleet-level estimate with a single 95% bound,
weighted by each camera's corpus size.

Run with: ``python examples/camera_fleet.py``
"""

from __future__ import annotations

from repro import mask_rcnn_like, night_street, ua_detrac, yolo_v4_like
from repro.detection import default_suite
from repro.query import QueryProcessor
from repro.system import Camera, FleetQueryProcessor


def main() -> None:
    suite = default_suite()
    downtown = Camera("downtown", ua_detrac(frame_count=4000), suite)
    suburb = Camera("suburb", night_street(frame_count=3000), suite)

    # Each camera has its own constraint: downtown has good backhaul
    # (20% sampling), the suburb runs on a constrained link (5%).
    downtown.configure(fraction=0.2)
    suburb.configure(fraction=0.05)

    # No fault model: every camera answers over a perfect channel.
    fleet = FleetQueryProcessor([downtown, suburb], QueryProcessor(suite))

    def model_for(camera):
        # The paper's pairing: YOLOv4 downtown (UA-DETRAC-like scenes),
        # Mask R-CNN for the night street.
        return yolo_v4_like() if camera.name == "downtown" else mask_rcnn_like()

    report = fleet.execute(model_for, seed=7)

    print("per-camera estimates (each at delta/2):")
    for name, camera in report.per_camera.items():
        estimate = camera.estimate
        print(
            f"  {name:<9} value {estimate.value:6.3f}  "
            f"bound {estimate.error_bound:5.3f}  (n={estimate.n})"
        )

    combined = report.combined
    print(
        f"\nfleet-wide AVG: {combined.value:.3f} cars/frame "
        f"(bounded error {combined.error_bound:.3f} at 95%)"
    )

    # Oracle check (demonstration only).
    total = fleet.total_frames
    truth = sum(
        model_for(camera).run(camera.dataset).counts.mean()
        * camera.dataset.frame_count
        for camera in fleet.cameras
    ) / total
    print(
        f"oracle fleet truth: {truth:.3f} "
        f"(achieved error {abs(combined.value - truth) / truth:.3f})"
    )
    transmitted = sum(camera.frames_delivered for camera in report.per_camera.values())
    print(f"frames transmitted: {transmitted} of {total}")


if __name__ == "__main__":
    main()
