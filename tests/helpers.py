"""Helpers shared by the test modules."""

import tracemalloc

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
