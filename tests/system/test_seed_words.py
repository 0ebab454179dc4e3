"""Property tests: one-pass seed words equal the SeedSequence contract.

:func:`~repro.system.executor.child_rngs` re-derives numpy's SeedSequence
hash for every trial of a unit at once. ``child_seed`` stays the reference
definition, so the words and the draws must match it exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.system.executor import (
    child_rng,
    child_rngs,
    child_seed,
    child_seed_words,
    trial_chunks,
)

#: Root of the benchmark's cache-fill sweep.
FILL_ROOT = 1 << 30

entropy_ints = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 3, FILL_ROOT]),
    st.integers(min_value=0, max_value=2**96),
)
roots = st.one_of(entropy_ints, st.tuples(entropy_ints, entropy_ints))
units = st.one_of(
    st.sampled_from([0, 2**32 + 5]), st.integers(min_value=0, max_value=2**40)
)
trial_lists = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=6
)


def reference_words(root, unit, trials) -> np.ndarray:
    return np.stack(
        [child_seed(root, unit, t).generate_state(4, np.uint64) for t in trials]
    )


class TestChildSeedWords:
    @settings(max_examples=150, deadline=None)
    @given(root=roots, unit=units, trials=trial_lists)
    @example(root=0, unit=0, trials=[0])
    @example(root=(7, 3), unit=0, trials=[0, 5, 2])
    @example(root=FILL_ROOT, unit=2**33, trials=[99, 0])
    @example(root=(0, 0, 0, 0, 0, 9), unit=4, trials=[1])
    def test_words_match_seed_sequence(self, root, unit, trials):
        words = child_seed_words(root, unit, trials)
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        np.testing.assert_array_equal(words, reference_words(root, unit, trials))

    @settings(max_examples=40, deadline=None)
    @given(root=roots, unit=units, trials=trial_lists)
    def test_generators_draw_like_child_rng(self, root, unit, trials):
        for t, rng in zip(trials, child_rngs(root, unit, trials)):
            twin = child_rng(root, unit, t)
            np.testing.assert_array_equal(
                rng.choice(1000, 50, replace=False, shuffle=True),
                twin.choice(1000, 50, replace=False, shuffle=True),
            )
            assert rng.random() == twin.random()

    @pytest.mark.parametrize("root", [42, (42, 1), FILL_ROOT])
    def test_chunked_trials_match_the_whole_range(self, root):
        # A worker sees a non-contiguous or offset slice of the trials.
        whole = child_seed_words(root, 3, range(100))
        for chunk in trial_chunks(100, 3):
            np.testing.assert_array_equal(
                child_seed_words(root, 3, chunk), whole[list(chunk)]
            )
        picked = (97, 4, 60, 4)
        np.testing.assert_array_equal(
            child_seed_words(root, 3, picked), whole[list(picked)]
        )

    def test_no_trials_no_words(self):
        assert child_seed_words(1, 2, ()).shape == (0, 4)
        assert child_rngs(1, 2, ()) == []

    @pytest.mark.parametrize(
        "root,unit,trials",
        [(-1, 0, [0]), (1, -2, [0]), (1, 0, [-1]), (1, 0, [2**32])],
        ids=["negative-root", "negative-unit", "negative-trial", "wide-trial"],
    )
    def test_out_of_range_entropy_refused(self, root, unit, trials):
        with pytest.raises(ConfigurationError):
            child_seed_words(root, unit, trials)
