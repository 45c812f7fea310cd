"""glibc malloc thresholds pinned at import: once a large array has been
freed, the next one of that size still gets its own mapping instead of
growing the brk heap.

Each case runs in a fresh interpreter, whose heap has no free chunk that
could serve the array — in a long test session one may exist, and glibc
serves a request from free heap space before it considers ``mmap``.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._heap import MMAP_THRESHOLD, TRIM_THRESHOLD, pin_malloc_thresholds

try:
    _GLIBC = hasattr(ctypes.CDLL(None), "gnu_get_libc_version")
except (OSError, TypeError):
    _GLIBC = False

pytestmark = pytest.mark.skipif(
    not (_GLIBC and Path("/proc/self/maps").exists()), reason="needs glibc on Linux"
)

_PROBE = """
import sys
import numpy as np
if sys.argv[1] == "repro":
    import repro
size = int(sys.argv[2])
first = np.ones(size, dtype=np.uint8)
del first
second = np.ones(size, dtype=np.uint8)
address = second.ctypes.data
on_heap = False
for line in open("/proc/self/maps"):
    if line.rstrip().endswith("[heap]"):
        lo, hi = (int(v, 16) for v in line.split()[0].split("-"))
        on_heap = on_heap or lo <= address < hi
print(on_heap)
"""


def _second_array_on_heap(imports: str) -> bool:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    size = MMAP_THRESHOLD + (4 << 20)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, imports, str(size)],
        capture_output=True, text=True, check=True, env=env,
    )
    return out.stdout.strip() == "True"


def test_large_array_stays_off_the_heap_after_a_free():
    if not _second_array_on_heap("numpy"):
        pytest.skip("this libc does not slide its mmap threshold")
    assert not _second_array_on_heap("repro")


def test_thresholds_are_accepted():
    assert TRIM_THRESHOLD == 2 * MMAP_THRESHOLD
    assert pin_malloc_thresholds()
