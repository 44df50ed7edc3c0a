"""Helpers shared by the test modules."""

import tracemalloc

from roughnls import TrajectoryWriter, solve_w


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


def discard(t, w, v, w_hat, v_hat):
    """A snapshot sink that keeps nothing."""


def kept_snapshots(w0, v0, cfg):
    """Solve with a sink that keeps a copy of every snapshot; returns (snapshots, series).

    Each snapshot is (t, w, v, w_hat, v_hat) as the sink received it, with
    None kept where the solve handed None.
    """
    snapshots = []

    def keep(t, w, v, w_hat, v_hat):
        copy = lambda a: None if a is None else a.copy()
        snapshots.append((t, w.copy(), copy(v), w_hat.copy(), copy(v_hat)))

    return snapshots, solve_w(w0, v0, cfg, keep)


def write_trajectory(out, grid, times, channels, meta=None):
    """Write a trajectory directory through TrajectoryWriter; returns the directory.

    channels maps each channel, in the manifest's order, to its snapshot
    values, one per time.
    """
    writer = TrajectoryWriter(out, grid, channels, meta)
    for k, t in enumerate(times):
        writer.add(t, {name: snaps[k] for name, snaps in channels.items()})
    return writer.close()
