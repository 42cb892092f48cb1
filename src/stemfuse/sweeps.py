"""The block engine: sweeps over blocks of work on worker threads.

Every loop of stemfuse over a track is a sweep: the Wiener filter's EM
passes and filter steps over blocks of frames, `separate`'s output step,
`blend`'s weighted sums over blocks of samples and the SDR scorer's
windows. `_Sweeps.ordered` runs a sweep's blocks on `_worker_count()`
threads, read as it starts them, while the calling thread waits; the
ordered work on their results runs on the workers too, one block at a
time and strictly in block order, so what a sweep computes does not
depend on the number of workers. `_blocks` cuts a count of units into
blocks of about `_BLOCK_BYTES`. A sweep keeps nothing for the next: each
worker takes its temporaries, and the arrays a block hands to the
ordered work, from its own buffers in the `_Workspace`, made by its
first blocks and dropped when its thread ends. This module imports no
other stemfuse module: it knows blocks, threads and buffers, not what
the blocks hold.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

_BLOCK_BYTES = 2_200_000  # per block: small enough that its working set stays in cache
_THREAD_PREFIX = "stemfuse-block"


def _worker_count() -> int:
    """Threads for the per-block work: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocks(count: int, unit_bytes: int) -> List[Tuple[int, int]]:
    """(start, stop) blocks of `count` units of `unit_bytes` bytes each:
    about `_BLOCK_BYTES` each, and one empty block when `count` is 0."""
    step = max(1, _BLOCK_BYTES // unit_bytes)
    return [(start, min(start + step, count)) for start in range(0, max(count, 1), step)]


class _Workspace(threading.local):
    """Arrays reused from block to block; every thread sees its own, which
    end with it.

    `take(name, shape, dtype)` gives the leading bytes of the buffer kept
    under `name`, made again only when a larger one is asked for. A
    sweep's first block is its largest, so a worker makes each buffer
    once. A name is a temporary of one step; steps that run one after
    the other may share it. `keep` gives the arrays a block of a sweep
    hands to the ordered work: its n-th is the buffer "kept<n>", which the
    worker's next block overwrites (see `_Sweeps.ordered`).
    """

    def __init__(self):
        self._buffers, self._views = {}, {}
        self._wait, self._count = None, 0

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        view = self._views.get((name, shape, dtype))
        if view is None:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            buffer = self._buffers.get(name)
            if buffer is None or buffer.size < nbytes:
                buffer = self._buffers[name] = np.empty(nbytes, np.uint8)
                self._views.clear()  # views of the buffer this one replaces
            view = self._views[name, shape, dtype] = buffer[:nbytes].view(dtype).reshape(shape)
        return view

    def copy(self, name: str, a: np.ndarray, dtype=None) -> np.ndarray:
        """A C-ordered copy of `a`, cast to `dtype` if given, in the buffer `name`."""
        out = self.take(name, a.shape, dtype or a.dtype)
        np.copyto(out, a)
        return out

    def lend(self, wait: Callable) -> None:
        """Start a block of a sweep: its first `keep` calls wait() before it takes a buffer."""
        self._wait, self._count = wait, 0

    def keep(self, *specs) -> list:
        """Arrays of the (shape, dtype) `specs` that the block hands to the
        ordered work."""
        if not self._count:
            self._wait()
        first, self._count = self._count, self._count + len(specs)
        return [self.take(f"kept{first + k}", *spec) for k, spec in enumerate(specs)]


class _Sweeps:
    """Sweeps over `blocks`, argument tuples of the block work, run by
    `ordered`. Each sweep is a run of its own: `workspace` is where its
    workers take their buffers, which end with their threads.
    """

    def __init__(self, blocks: Sequence[tuple]):
        self.blocks = list(blocks)
        self.workspace = _Workspace()
        self._turn = threading.Condition()

    def ordered(self, work: Callable, consume: Callable) -> None:
        """Run work(*block) for every block on `_worker_count()` threads
        started here, in copies of the caller's context, while this thread
        waits. A worker stores its block's result, then calls
        consume(result) on every result ready in block order; a result is
        taken only once the one before it is consumed, so consume runs on
        one thread at a time, in block order. A block's first
        `workspace.keep` waits until the worker's block before it is
        consumed, so a kept array is consumed before it is overwritten
        and at most one block per worker holds kept arrays. The first
        failure in block order, of a block or of consume, is raised;
        nothing after it is consumed."""
        self._taken = self._consumed = 0
        self._ready, self._failure = {}, None
        threads = [threading.Thread(target=contextvars.copy_context().run, args=(
            self._serve, work, consume), name=f"{_THREAD_PREFIX}-{k}")
                   for k in range(_worker_count())]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        except BaseException as exc:  # an interrupt, or a thread that did not start
            self._finish(exc)
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
            raise
        if self._failure is not None:
            raise self._failure

    def _serve(self, work: Callable, consume: Callable) -> None:
        last = -1  # the worker's block before this one, whose kept arrays this one reuses
        while True:
            with self._turn:
                if self._failure is not None or self._taken == len(self.blocks):
                    return
                index, self._taken = self._taken, self._taken + 1
            self.workspace.lend(lambda last=last: self._await(last))
            last = index
            try:
                result = work(*self.blocks[index]), None
            except BaseException as exc:  # raised by the calling thread in its turn
                result = None, exc
            with self._turn:
                self._ready[index] = result
            while True:  # the next result is taken only once the one before it is consumed
                with self._turn:
                    if self._failure is not None or self._consumed not in self._ready:
                        break
                    value, error = self._ready.pop(self._consumed)
                if error is None:
                    try:
                        consume(value)
                    except BaseException as exc:  # raised by the calling thread
                        error = exc
                self._finish(error)

    def _finish(self, error: Optional[BaseException]) -> None:
        """Count a consumed block, or stop the sweep at its first `error`."""
        with self._turn:
            self._consumed += error is None
            if self._failure is None:
                self._failure = error
            self._turn.notify_all()

    def _await(self, index: int) -> None:
        """Wait until block `index` is consumed, or the sweep has failed."""
        with self._turn:
            self._turn.wait_for(lambda: self._failure is not None or self._consumed > index)
