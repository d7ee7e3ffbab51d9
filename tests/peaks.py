"""The tracemalloc peak of a block of code, for the tests that bound what a call holds."""
import tracemalloc
from contextlib import contextmanager
from typing import Iterator


class Peak:
    """Bytes at the traced peak; set when the block exits."""

    bytes = 0


@contextmanager
def traced_peak() -> Iterator[Peak]:
    """Trace the allocations made inside the block; .bytes is their peak.

    Memory allocated before the block is not counted, so a warm thread's
    block workspace is not, and whatever the block still holds on exit
    counts at its full size.
    """
    peak = Peak()
    tracemalloc.start()
    try:
        yield peak
        peak.bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
