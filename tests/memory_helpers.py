"""The tracemalloc peak of one call, for the memory tests.  numpy reports
its array buffers to tracemalloc, so the peak counts them."""
import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the most memory the call held at once, in bytes,
    above what was traced when it began; its result counts)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return result, peak
