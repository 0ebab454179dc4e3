"""One frame draw per removal, shared by every resolution of a cube.

A cube keys each trial's draw by ``(root, removal index, trial)``, and
:func:`repro.core.profiler.trial_orderings` memoises the draw, so the
resolutions of one removal gather through the same orderings. These tests
pin what that sharing may and may not change:

- every cube cell ``(ri, ci)`` is byte for byte the standalone seeded
  sweep at draw key ``ci``, at any worker count, so each cell's marginal
  is that of an ordinary seeded sweep;
- a serial cube draws ``removals x trials`` orderings, not ``x
  resolutions``;
- the shared orderings are read-only;
- the memo is invisible: clearing it between units, or running the units
  last to first, leaves the cube unchanged.
"""

from __future__ import annotations

import pytest

from repro.core.candidates import CandidateGrid
from repro.core.correction import determine_correction_set
from repro.core.profiler import DegradationProfiler, trial_orderings
from repro.query import Aggregate, AggregateQuery
from repro.stats.sampling import ProgressiveSampler
from repro.system.executor import ExecutorConfig, ParallelExecutor
from repro.video import ObjectClass
from repro.video.geometry import resolution_grid

FRACTIONS = (0.02, 0.05, 0.1)
TRIALS = 3
ROOT = 7
REMOVALS = ((), (ObjectClass.PERSON,))


def _grid(query: AggregateQuery) -> CandidateGrid:
    return CandidateGrid(
        fractions=FRACTIONS,
        resolutions=tuple(resolution_grid(query.dataset.native_resolution, 3)),
        removals=REMOVALS,
    )


def _setup(processor, dataset, model, aggregate: str, corrected: bool):
    query = AggregateQuery(dataset, model, Aggregate[aggregate])
    correction = (
        determine_correction_set(processor, query, 3)
        if corrected
        else None
    )
    return query, correction


def _cube(processor, query, correction, executor=None):
    profiler = DegradationProfiler(processor, trials=TRIALS)
    return profiler.generate_hypercube_seeded(
        query, _grid(query), root=ROOT, correction=correction,
        executor=executor,
    )


def _bytes(cube) -> tuple[bytes, bytes]:
    return cube.bounds.tobytes(), cube.values.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "aggregate, corrected", [("AVG", False), ("MAX", True)]
)
def test_each_cell_is_the_standalone_seeded_sweep(
    processor, detrac_dataset, yolo_car, aggregate, corrected, workers
):
    query, correction = _setup(
        processor, detrac_dataset, yolo_car, aggregate, corrected
    )
    cube = _cube(
        processor, query, correction,
        ParallelExecutor(ExecutorConfig(workers=workers)),
    )
    grid = _grid(query)
    profiler = DegradationProfiler(processor, trials=TRIALS)
    for ci, removal in enumerate(grid.removals):
        for ri, resolution in enumerate(grid.resolutions):
            trial_orderings.cache_clear()
            swept = profiler.sweep_fractions_seeded(
                query, FRACTIONS, resolution=resolution, removal=removal,
                correction=correction, root=ROOT, unit_index=ci,
                trial_indices=tuple(range(TRIALS)),
            )
            assert swept.sizes and len(swept.sizes) == len(FRACTIONS)
            assert (
                cube.bounds[:, ri, ci].tobytes()
                == swept.bounds.mean(axis=1).tobytes()
            ), (ri, ci)
            assert (
                cube.values[:, ri, ci].tobytes()
                == swept.values.mean(axis=1).tobytes()
            ), (ri, ci)


def test_serial_cube_draws_once_per_removal(
    processor, detrac_dataset, yolo_car, monkeypatch
):
    query, _ = _setup(processor, detrac_dataset, yolo_car, "AVG", False)
    built = []
    construct = ProgressiveSampler.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        construct(self, *args, **kwargs)

    monkeypatch.setattr(ProgressiveSampler, "__init__", counting)
    trial_orderings.cache_clear()
    _cube(processor, query, None)
    resolutions = len(_grid(query).resolutions)
    assert resolutions > 1
    assert len(built) == len(REMOVALS) * TRIALS
    # One population per removal: the person removal leaves fewer frames.
    assert len(set(built)) == len(REMOVALS)


def test_shared_orderings_are_read_only():
    trial_orderings.cache_clear()
    orderings = trial_orderings((5,), 1, (0, 1, 2), 100, 10)
    assert trial_orderings((5,), 1, (0, 1, 2), 100, 10) is orderings
    assert len(orderings) == 3
    for ordering in orderings:
        assert ordering.shape == (10,) and not ordering.flags.writeable
        with pytest.raises(ValueError):
            ordering[0] = 0
        with pytest.raises(ValueError):
            ordering.flags.writeable = True
        assert len(set(ordering.tolist())) == 10


class _ClearingExecutor:
    """Runs units in-process, optionally last to first, and can clear the
    draw memo before each unit; results come back in unit order."""

    def __init__(self, reverse: bool, clear: bool) -> None:
        self._reverse = reverse
        self._clear = clear

    def map(self, fn, payloads):
        indexed = list(enumerate(payloads))
        if self._reverse:
            indexed.reverse()
        results = {}
        for index, unit in indexed:
            if self._clear:
                trial_orderings.cache_clear()
            results[index] = fn(unit)
        return [results[index] for index in range(len(indexed))]


@pytest.mark.parametrize(
    "reverse, clear", [(False, True), (True, False), (True, True)],
    ids=["cleared", "reversed", "reversed-cleared"],
)
def test_cube_ignores_memo_and_unit_order(
    processor, detrac_dataset, yolo_car, reverse, clear
):
    query, correction = _setup(
        processor, detrac_dataset, yolo_car, "AVG", True
    )
    trial_orderings.cache_clear()
    reference = _bytes(_cube(processor, query, correction))
    trial_orderings.cache_clear()
    cube = _cube(processor, query, correction, _ClearingExecutor(reverse, clear))
    assert _bytes(cube) == reference
