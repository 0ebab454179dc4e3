"""Tests for intervention-candidate design."""

from __future__ import annotations

import pytest

from repro.core.candidates import (
    CandidateGrid,
    default_candidates,
    fraction_candidates,
    removal_candidates,
)
from repro.errors import ConfigurationError
from repro.video.frame import ObjectClass
from repro.video.geometry import Resolution


class TestFractionCandidates:
    def test_one_percent_intervals(self):
        fractions = fraction_candidates()
        assert len(fractions) == 100
        assert fractions[0] == pytest.approx(0.01)
        assert fractions[-1] == pytest.approx(1.0)

    def test_custom_step_and_max(self):
        fractions = fraction_candidates(step=0.05, maximum=0.2)
        assert fractions == (0.05, 0.1, 0.15, 0.2)

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            fraction_candidates(step=0.0)
        with pytest.raises(ConfigurationError):
            fraction_candidates(step=0.5, maximum=0.3)


class TestRemovalCandidates:
    def test_all_subsets_of_paper_classes(self):
        combos = removal_candidates()
        assert () in combos
        assert (ObjectClass.PERSON,) in combos
        assert (ObjectClass.FACE,) in combos
        assert (ObjectClass.PERSON, ObjectClass.FACE) in combos
        assert len(combos) == 4

    def test_single_class(self):
        combos = removal_candidates((ObjectClass.FACE,))
        assert combos == ((), (ObjectClass.FACE,))


class TestCandidateGrid:
    def test_default_grid_for_corpus(self, detrac_dataset):
        grid = default_candidates(detrac_dataset)
        assert len(grid.fractions) == 100
        assert grid.resolutions[-1] == detrac_dataset.native_resolution
        assert len(grid.removals) == 4
        assert grid.cell_count == 100 * len(grid.resolutions) * 4

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            CandidateGrid(fractions=(), resolutions=(Resolution(64),), removals=((),))
        with pytest.raises(ConfigurationError):
            CandidateGrid(
                fractions=(0.5, 0.1),
                resolutions=(Resolution(64),),
                removals=((),),
            )
        with pytest.raises(ConfigurationError):
            CandidateGrid(
                fractions=(0.1,),
                resolutions=(Resolution(128), Resolution(64)),
                removals=((),),
            )

    def test_duplicate_fractions_rejected(self):
        # The hypercube indexes cells by fraction value, so a repeated
        # fraction's first row would stay NaN like an early-stop skip.
        with pytest.raises(ConfigurationError, match="strictly ascending"):
            CandidateGrid(
                fractions=(0.1, 0.1, 0.2),
                resolutions=(Resolution(64),),
                removals=((),),
            )

    def test_filtered_by_goals(self, detrac_dataset):
        grid = default_candidates(detrac_dataset)
        filtered = grid.filtered(
            min_fraction=0.05,
            max_fraction=0.5,
            max_resolution=Resolution(320),
            required_removed=(ObjectClass.FACE,),
        )
        assert all(0.05 <= f <= 0.5 for f in filtered.fractions)
        assert all(r.side <= 320 for r in filtered.resolutions)
        assert all(ObjectClass.FACE in combo for combo in filtered.removals)

    def test_filtered_keeps_everything_by_default(self, detrac_dataset):
        grid = default_candidates(detrac_dataset)
        assert grid.filtered().cell_count == grid.cell_count
