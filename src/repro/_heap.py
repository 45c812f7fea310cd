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
heap: each is mapped afresh every time it is built. Hot loops stay
below the threshold instead. ``Model.evaluate`` runs 64-image batches,
so ResNetLite's block-1 column matrix is 4.7 MB (at 256 images it was
18.9 MB, mapped per batch). ``import repro`` calls it once.

A forked process-pool worker counts every resident page it inherits,
the parent's free heap included: up to the 32 MiB trim threshold of
freed set-up buffers that glibc keeps for reuse. So ``dense_process``'s
peak followed where small allocations happened to land (a docstring edit
moved it from 243 to 266 MB) rather than what the run holds live.
:func:`trim_free_heap` (``malloc_trim(0)``) hands those pages back, and
``ParallelMap`` calls it just before it builds a process pool, so each
worker starts from the parent's live memory only (``dense_process`` then
peaked at 219 MB instead of 243 MB on a 2-core Xeon).
"""

from __future__ import annotations

import ctypes

__all__ = [
    "MMAP_THRESHOLD",
    "TRIM_THRESHOLD",
    "pin_malloc_thresholds",
    "trim_free_heap",
]

#: ``mallopt`` parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: requests of at least this many bytes are always mmapped
MMAP_THRESHOLD = 16 << 20
#: free space at the top of the heap beyond which it is returned
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _libc_function(name: str):
    """The C library's ``name``, or None where it has none."""
    try:
        return getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError, TypeError):
        return None


def pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds (which also stops them sliding).

    Returns False, changing nothing, where the C library has no
    ``mallopt`` (macOS, Windows) or refuses the values (musl's stub).
    """
    mallopt = _libc_function("mallopt")
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )


def trim_free_heap() -> bool:
    """Return the free pages of every malloc arena to the kernel.

    Returns False, doing nothing, where the C library has no
    ``malloc_trim`` (it is a glibc extension).
    """
    malloc_trim = _libc_function("malloc_trim")
    if malloc_trim is None:
        return False
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)
    return True
