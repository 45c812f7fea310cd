"""Benchmark-suite conftest: puts the repo root on ``sys.path`` so a
benchmark can time a kernel against its reference in ``tests/oracles/``
when run from ``benchmarks/`` as well as from the root."""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
