"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.media.gop import GOP_12
from repro.media.stream import make_video_stream
from repro.traces.synthetic import calibrated_stream


@pytest.fixture(scope="session", autouse=True)
def _isolated_perm_cache(tmp_path_factory):
    """Point the persistent permutation cache at a per-run temp dir.

    Keeps the suite hermetic: no reads of (possibly stale) entries from
    the user's home cache, no writes outside the pytest tmp tree.
    """
    cache_dir = tmp_path_factory.mktemp("perm-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def kernel_implementations():
    """Iterate a block once per implementation of the kernel step.

    ``for name in kernel_implementations(): ...`` runs the body under
    the array program (only when the accel backend is NumPy at the time
    of iteration) and then under the pure-Python cohort loop, which it
    forces by setting ``kernel._ARRAY_MAX_FRAMES`` to 0 for that turn
    only.  Session-scoped, so Hypothesis tests may take it.
    """
    from repro import accel
    from repro.core import kernel

    def implementations():
        if accel.backend_name() == "numpy":
            yield "array program"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_ARRAY_MAX_FRAMES", 0)
            yield "cohort loop"

    return implementations


@pytest.fixture(scope="session")
def small_mpeg_stream():
    """Six GOPs of GOP-12 video with constant per-type sizes."""
    return make_video_stream(GOP_12, gop_count=6)


@pytest.fixture(scope="session")
def jurassic_stream():
    """A calibrated Jurassic Park-like stream, 30 GOPs."""
    return calibrated_stream("jurassic_park_corrected", gop_count=30, seed=7)
