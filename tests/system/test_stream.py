"""Tests for the live-feed replay harness (``repro stream``).

The end-to-end contract: replaying a clean corpus keeps the sentinel
quiet; splicing a zoo scenario into the feed mid-stream trips it after
the onset and triggers exactly one Algorithm 3 repair, all of it recorded
as ``facts.stream.*`` and per-window ledger events.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.estimators.streaming import WindowedMeanEstimator
from repro.system.observe import ledger as run_ledger
from repro.system.stream import (
    ESTIMATOR_KINDS,
    StreamConfig,
    StreamReport,
    replay_stream,
)

FRAMES = 2000


@pytest.fixture(autouse=True)
def clean_ledger_state():
    yield
    if run_ledger.active_run() is not None:
        run_ledger.finish_run("ok", 0)


class TestStreamConfig:
    def test_defaults_are_valid(self):
        config = StreamConfig()
        assert config.estimator in ESTIMATOR_KINDS

    @pytest.mark.parametrize(
        "overrides",
        [
            {"estimator": "psychic"},
            {"scenario": "not-a-scenario"},
            {"onset": 1.0},
            {"onset": -0.1},
            {"window": 0},
            {"fraction": 0.0},
            {"fraction": 1.5},
            {"fps": -1.0},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigurationError):
            StreamConfig(**overrides)


class TestCleanReplay:
    def test_clean_feed_stays_quiet(self):
        report = replay_stream(StreamConfig(frames=FRAMES))
        assert isinstance(report, StreamReport)
        assert not report.verdict.tripped
        assert report.violations == 0
        assert report.repairs == 0
        assert len(report.windows) == FRAMES // report.config.window + (
            1 if FRAMES % report.config.window else 0
        )
        assert report.frames_per_sec > 0.0

    def test_payload_shape(self):
        payload = replay_stream(StreamConfig(frames=FRAMES)).as_payload()
        for key in (
            "dataset", "scenario", "severity", "estimator", "window",
            "frames", "onset_index", "windows", "violations", "repairs",
            "tripped", "first_breach_count", "profiled_bound",
            "repaired_bound", "wall_seconds", "ingest_seconds",
            "frames_per_sec",
        ):
            assert key in payload, key
        assert payload["tripped"] is False
        assert payload["repaired_bound"] is None


#: Replay seeds of the hostile configurations. Whether one replay trips
#: rides on its profiled sample: Algorithm 1 prices that sample with its
#: own range, so the profiled bound sits near 0.18 when the sample misses
#: the corpus's largest count and near 0.25 when it holds it. Recall is
#: therefore asserted as a trip rate over these seeds, and the trip-path
#: checks run on every replay that trips.
SEEDS = range(100)


class TestHostileReplay:
    """Weather at near-whiteout severity takes over at half-feed."""

    @pytest.fixture(scope="class")
    def replayed(self):
        replays = []
        for seed in SEEDS:
            run_ledger.begin_run("stream-test", {}, None)
            report = replay_stream(
                StreamConfig(
                    frames=FRAMES, scenario="weather", severity=0.95, seed=seed
                )
            )
            replays.append((report, run_ledger.finish_run("ok", 0)))
        return replays

    @pytest.fixture
    def tripped(self, replayed):
        return [report for report, _ in replayed if report.verdict.tripped]

    def test_sentinel_trips_after_onset(self, tripped):
        # A marginal drift for the windowed sentinel: 13 of these seeds
        # trip. Were the profiled bound always in its upper mode, ~1 would.
        assert len(tripped) >= 10
        for report in tripped:
            assert report.verdict.first_breach_count > report.onset_index
            assert report.violations >= report.config.patience
            assert report.repairs == 1
            assert report.verdict.repair.error_bound > 0.0

    def test_windows_trace_the_takeover(self, replayed, tripped):
        for report, _ in replayed:
            pre = [w for w in report.windows if w.end <= report.onset_index]
            assert pre and not any(w.breached for w in pre)
        for report in tripped:
            assert any(w.breached for w in report.windows)
            assert report.windows[-1].tripped

    def test_facts_and_events_reach_the_ledger(self, replayed):
        for report, record in replayed:
            facts = record["facts"]["stream"]
            assert facts["tripped"] is report.verdict.tripped
            assert facts["repairs"] == report.repairs
            assert facts["scenario"] == "weather"
            assert facts["severity"] == 0.95
            kinds = [event["event"] for event in record["events"]]
            assert kinds.count("stream.window") == len(report.windows)
            assert ("sentinel.violation" in kinds) is report.verdict.tripped
            assert ("sentinel.repair" in kinds) is report.verdict.tripped

    def test_severity_defaults_to_harshest(self):
        config = replay_stream(
            StreamConfig(
                frames=FRAMES, scenario="targeted-corruption", window=480
            )
        ).config
        assert config.severity is not None


class TestEstimatorVariants:
    def test_decayed_estimator_trips_on_occlusion(self):
        # 71 of these seeds trip. Were the profiled bound always in its
        # upper mode, ~48 would.
        reports = [
            replay_stream(
                StreamConfig(
                    frames=FRAMES,
                    scenario="occlusion",
                    severity=0.7,
                    estimator="decayed",
                    seed=seed,
                )
            )
            for seed in SEEDS
        ]
        tripped = [report for report in reports if report.verdict.tripped]
        assert len(tripped) >= 60
        for report in reports:
            assert report.repairs == (1 if report.verdict.tripped else 0)

    def test_cumulative_estimator_is_diluted(self):
        """The failure mode motivating the windowed default: the all-time
        mean absorbs the drift and the sentinel stays silent."""
        report = replay_stream(
            StreamConfig(
                frames=FRAMES,
                scenario="weather",
                severity=0.95,
                estimator="cumulative",
            )
        )
        assert not report.verdict.tripped


class TestPacedReplay:
    def test_fps_throttle_slows_wall_clock_not_ingest(self):
        # 2000 frames at 100k fps = at least 20ms of pacing sleep. The
        # sleep lands in wall_seconds only: ingest_seconds (and hence the
        # gated frames_per_sec) measures processing capability, not the
        # configured throttle.
        report = replay_stream(StreamConfig(frames=FRAMES, fps=100_000.0))
        assert report.wall_seconds >= 0.018
        assert report.ingest_seconds < report.wall_seconds
        assert report.frames_per_sec > 100_000.0


class TestOneEstimatePerChunk:
    """A readout reuses the estimate the chunk's drift check priced."""

    def test_replay_prices_each_window_once(self, monkeypatch):
        calls = []
        original = WindowedMeanEstimator.estimate

        def counted(self):
            calls.append(self.count)
            return original(self)

        monkeypatch.setattr(WindowedMeanEstimator, "estimate", counted)
        report = replay_stream(
            StreamConfig(frames=FRAMES, window=400, min_count=30)
        )
        # Every window is past the 30-frame warm-up: one call each.
        assert len(report.windows) == 5
        assert calls == [window.end for window in report.windows]

