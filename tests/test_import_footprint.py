"""``import repro`` loads no optional heavy dependency.

SciPy's clustering is imported where a run first clusters, and nothing
imports networkx. The check runs in a fresh interpreter, whose
``sys.modules`` holds only what ``import repro`` pulled in.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_HEAVY = ("scipy.cluster", "scipy.spatial", "networkx")

_PROBE = """
import sys
import repro
heavy = tuple(sys.argv[1:])
print(sorted(m for m in sys.modules if m in heavy or m.startswith(tuple(h + "." for h in heavy))))
"""


def test_import_repro_loads_no_clustering_or_graph_module():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, *_HEAVY],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "[]"
