"""Fixed glibc malloc thresholds, so peak memory follows the live arrays.

When the brk heap has no free chunk large enough, glibc gives a request
of at least ``M_MMAP_THRESHOLD`` bytes its own ``mmap``, and ``free``
returns those pages at once. By default that threshold slides: freeing an
mmapped block raises it to the block's size (up to 32 MiB) and the
heap-trim threshold to twice that. Once one 19.5 MiB feature matrix of a
5 000-client population has been freed, the next ones land on the heap,
which is trimmed only when the free space at its top reaches twice that
size. Freeing the two matrices a rebuild leaves behind comes within a few
KiB of it, so where small allocations happen to sit decides whether
~39 MiB stay resident: peak RSS of one and the same run came out at 153
or 171 MB (``columnar_churn``, about one run in three high).

:func:`pin_malloc_thresholds` fixes the mmap threshold at 16 MiB and the
trim threshold at twice that, glibc's own ratio. Large arrays then leave
with their last reference whenever the heap cannot hold them; smaller
ones reuse the heap as before. A lower trim threshold re-faults every
training step's buffers (at glibc's 128 KiB default a ``dense_static``
round ran about 60 % slower on a 2-core Xeon). The price is paid by
arrays just above 16 MiB that the sliding rule would have kept on the
heap: ``conv_static`` evaluates 256 images at a time through an 18 MiB
column matrix, now mapped afresh per batch — about 10 MB more peak RSS
and 1–3 % more round time there. ``import repro`` calls it once.
"""

from __future__ import annotations

import ctypes

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "pin_malloc_thresholds"]

#: ``mallopt`` parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: requests of at least this many bytes are always mmapped
MMAP_THRESHOLD = 16 << 20
#: free space at the top of the heap beyond which it is returned
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds (which also stops them sliding).

    Returns False, changing nothing, where the C library has no
    ``mallopt`` (macOS, Windows) or refuses the values (musl's stub).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
