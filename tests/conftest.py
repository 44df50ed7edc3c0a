"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn):
    """Run fn() under tracemalloc and return (its result, peak, retained).

    peak is the most memory traced at once during the call and retained what
    is still traced when it returns, its result included, both in bytes above
    what was traced when it started.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, current - base
