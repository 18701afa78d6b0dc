"""Helpers shared by the test modules."""

import contextlib
import math
import tracemalloc

from hrt import tensor as T

# the synthetic recipe of bench/run.py's train_wide_grid workload
WIDE_GRID = dict(r_patches=36, d_feat=128, samples_per_class=20)


def peak_traced_bytes(fn, *args):
    """The most memory traced at once while ``fn(*args)`` runs, including
    what it returns."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def gradient_helper(on: bool, min_size: int = 0):
    """Inside the block, hrt.tensor's helper thread runs every parameter
    gradient on BLAS with at least ``min_size`` elements and a C- or
    F-contiguous other operand if ``on``, and none otherwise.  The block
    gets a pool of its own, shut down at its end; the process's pool and
    threshold are restored."""
    saved = T._HELPER_MIN_SIZE, T._Helper.pool
    T._HELPER_MIN_SIZE = min_size if on else math.inf
    T._Helper.pool = None
    try:
        yield
    finally:
        if T._Helper.pool is not None:
            T._Helper.pool.shutdown()
        T._HELPER_MIN_SIZE, T._Helper.pool = saved
