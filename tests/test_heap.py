"""glibc malloc thresholds pinned at import: once a large array has been
freed, the next one of that size still gets its own mapping instead of
growing the brk heap. Free heap below the trim threshold stays resident
until ``trim_free_heap`` hands it back.

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


_TRIM_PROBE = """
import numpy as np
import repro
from repro._heap import trim_free_heap

def rss_anon():
    for line in open("/proc/self/status"):
        if line.startswith("RssAnon:"):
            return int(line.split()[1]) << 10

before = rss_anon()
blocks = [np.ones(256 << 10, dtype=np.uint8) for _ in range(64)]
held = rss_anon()
del blocks
freed = rss_anon()
trimmed = trim_free_heap()
print(before, held, freed, rss_anon(), trimmed)
"""


def _run_probe(*args: str) -> str:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", *args],
        capture_output=True, text=True, check=True, env=env,
    )
    return out.stdout.strip()


def _second_array_on_heap(imports: str) -> bool:
    size = MMAP_THRESHOLD + (4 << 20)
    return _run_probe(_PROBE, imports, str(size)) == "True"


def test_large_array_stays_off_the_heap_after_a_free():
    if not _second_array_on_heap("numpy"):
        pytest.skip("this libc does not slide its mmap threshold")
    assert not _second_array_on_heap("repro")


def test_thresholds_are_accepted():
    assert TRIM_THRESHOLD == 2 * MMAP_THRESHOLD
    assert pin_malloc_thresholds()


def test_trim_returns_freed_heap_below_the_trim_threshold():
    """64 freed 256 KiB blocks (16 MiB, half the trim threshold) stay
    resident on their own and leave with ``trim_free_heap``."""
    *rss, ran = _run_probe(_TRIM_PROBE).split()
    before, held, freed, trimmed = map(int, rss)
    assert ran == "True"
    assert held - before >= 12 << 20
    assert freed - before >= 12 << 20
    assert freed - trimmed >= 12 << 20
