"""No two differently keyed draws share a stream.

numpy zero-pads a root's entropy to four words before it appends the
spawn key, so ``child_seed(5, 1, 2)`` and ``child_seed((5, 0), 1, 2)``
are one stream: ``Smokescreen.profile``'s first root ``(seed, 0)`` is the
bare ``seed``. Two draws keyed apart can therefore still collide. The
checks here compare PCG64 seed states directly, after a source scan:

- no ``src`` module but the executor and the two real roots (corpus
  presets, fault streams) calls ``np.random.default_rng(``;
- every key of :class:`~repro.system.executor.SeedKey` and the root
  stream differ;
- each entry point of ``tests/seed_entry_points.py`` runs with every
  ``child_seed`` and ``child_seed_words`` call recorded. A seed state
  reached from two different ``(root, *key)`` paths fails, and so does
  one path drawn from two different call sites (two draws meant to be
  apart, such as a clean reference query and trial 0, that got the same
  key). A key shared on purpose (one trial stream for every knob of a
  figure row) is one path drawn at one site, so it passes.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.system import executor
from repro.system.executor import SeedKey, child_seed, normalize_root
from tests.seed_entry_points import ENTRY_POINTS

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The only modules that may build a generator from raw entropy: the
#: stream helpers themselves, and the two real roots (the corpus presets
#: and the fault streams).
RAW_GENERATOR_MODULES = {"system/executor.py", "video/presets.py", "system/faults.py"}


def _state(sequence) -> tuple[int, ...]:
    return tuple(sequence.generate_state(4, np.uint64).tolist())


def test_raw_generators_only_at_real_roots():
    sites = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "np.random.default_rng(" in path.read_text()
    }
    assert sites <= RAW_GENERATOR_MODULES, sorted(sites - RAW_GENERATOR_MODULES)


def test_zero_padding_merges_roots():
    assert _state(child_seed(5, 1, 2)) == _state(child_seed((5, 0), 1, 2))
    assert _state(child_seed(5)) == _state(child_seed((5, 0)))


def test_table_keys_and_root_stream_differ():
    keys = list(SeedKey.__members__.values())
    states = [_state(child_seed(7))]
    states += [_state(child_seed(7, key)) for key in keys]
    states += [_state(child_seed(7, key, 0)) for key in keys]
    assert len(set(states)) == len(states)


#: The executor's own stream helpers, left out of a draw's call site.
_HELPERS = {"child_seed", "child_rng", "child_seed_words", "child_rngs"}


def _call_site() -> tuple[tuple[str, str], ...]:
    """The ``src`` functions on the stack above the stream helpers."""
    site = []
    frame = sys._getframe(2)
    while frame is not None:
        path = Path(frame.f_code.co_filename)
        if SRC in path.parents and frame.f_code.co_name not in _HELPERS:
            site.append((path.relative_to(SRC).as_posix(), frame.f_code.co_name))
        frame = frame.f_back
    return tuple(site)


class _Draws:
    """Every recorded stream's seed state, mapped to its key paths, and
    every key path mapped to the call sites that drew it."""

    def __init__(self, monkeypatch) -> None:
        self.paths: dict[tuple[int, ...], set[tuple]] = defaultdict(set)
        self.sites: dict[tuple, set[tuple]] = defaultdict(set)
        real_seed, real_words = executor.child_seed, executor.child_seed_words

        def seed(root, *key):
            sequence = real_seed(root, *key)
            path = (normalize_root(root), tuple(int(k) for k in key))
            self.paths[_state(sequence)].add(path)
            self.sites[path].add(_call_site())
            return sequence

        def words(root, unit, trials):
            rows = real_words(root, unit, trials)
            site = _call_site()
            for trial, row in zip(trials, rows):
                path = (normalize_root(root), (int(unit), int(trial)))
                self.paths[tuple(row.tolist())].add(path)
                self.sites[path].add(site)
            return rows

        monkeypatch.setattr(executor, "child_seed", seed)
        monkeypatch.setattr(executor, "child_seed_words", words)

    def collisions(self) -> dict[tuple[int, ...], set[tuple]]:
        return {
            state: paths for state, paths in self.paths.items() if len(paths) > 1
        }

    def shared_paths(self) -> dict[tuple, set[tuple]]:
        return {path: sites for path, sites in self.sites.items() if len(sites) > 1}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_streams_do_not_collide(name, monkeypatch):
    draws = _Draws(monkeypatch)
    ENTRY_POINTS[name](1)
    assert draws.paths, f"{name} drew no child stream"
    assert not draws.collisions(), draws.collisions()
    assert not draws.shared_paths(), draws.shared_paths()
