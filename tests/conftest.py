"""Checks that run around every test."""

import threading

import pytest

from stemfuse.sweeps import _THREAD_PREFIX


@pytest.fixture(autouse=True)
def no_block_thread_outlives_its_test():
    """Fail a test that leaves a sweep's worker thread alive: every
    `_Sweeps.ordered` (separation, the Wiener functions, SDR scoring and
    the weight search) joins its workers before it returns or raises."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith(_THREAD_PREFIX)]
    if alive:
        pytest.fail(f"worker threads still alive after the test: {alive}")
