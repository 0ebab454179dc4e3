"""Shared fixtures: small calibrated corpora and detectors.

Datasets are scaled-down versions of the paper presets (a few thousand
frames instead of ~15k-19k) so the suite stays fast while preserving the
statistical structure the algorithms depend on. Session scope: corpora and
detector caches are immutable, so sharing them across tests is safe and
saves most of the suite's runtime.
"""

from __future__ import annotations

import numpy as np
import pytest

# ``z_score`` imports scipy.special on its first call so the package import
# stays scipy-free; pay that once here, so hypothesis' per-example deadline
# times the math under test and not a one-time import.
import scipy.special  # noqa: F401

from repro.detection import (
    DetectorSuite,
    default_suite,
    mask_rcnn_like,
    mtcnn_like,
    yolo_v4_like,
)
from repro.query import QueryProcessor
from repro.video import night_street, ua_detrac


@pytest.fixture(scope="session")
def night_dataset():
    """A small night-street corpus (sparse traffic, native 640)."""
    return night_street(frame_count=4000)


@pytest.fixture(scope="session")
def detrac_dataset():
    """A small UA-DETRAC corpus (busy traffic, native 608)."""
    return ua_detrac(frame_count=4000)


@pytest.fixture(scope="session")
def suite() -> DetectorSuite:
    """The default restricted-class detector suite (shared caches)."""
    return default_suite()


@pytest.fixture(scope="session")
def yolo_car():
    """A YOLOv4-like car detector (shared output cache)."""
    return yolo_v4_like()


@pytest.fixture(scope="session")
def mask_rcnn_car():
    """A Mask R-CNN-like car detector (shared output cache)."""
    return mask_rcnn_like()


@pytest.fixture(scope="session")
def mtcnn_face():
    """An MTCNN-like face detector."""
    return mtcnn_like()


@pytest.fixture(scope="session")
def processor(suite) -> QueryProcessor:
    """A query processor wired to the default suite."""
    return QueryProcessor(suite)


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic randomness per test."""
    return np.random.default_rng(12345)
