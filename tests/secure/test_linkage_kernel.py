"""The in-module average-linkage kernel against SciPy, bit for bit.

``_average_linkage`` / ``_flat_clusters`` stand in for SciPy's
``linkage(method="average")`` / ``fcluster`` in the backdoor filter and
FedCLAR. SciPy is the oracle here only: every dendrogram and every label
vector must be *equal* (``np.array_equal``), not close, across random,
duplicate-row and integer-quantised inputs — the last two full of tied
distances, where tie-breaking decides the tree.
"""

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from repro.secure.backdoor import BackdoorDetector, _average_linkage, _flat_clusters

CASES_PER_KIND = 1_000


def _updates(kind: str, rng: np.random.Generator) -> np.ndarray:
    s, d = int(rng.integers(2, 41)), int(rng.integers(1, 12))
    x = rng.normal(size=(s, d))
    if kind == "duplicate":
        x[rng.integers(0, s, size=s // 2)] = x[rng.integers(0, s)]
    elif kind == "quantised":
        x = rng.integers(-2, 3, size=(s, d)).astype(np.float64)
    return x


@pytest.mark.parametrize("kind", ["random", "duplicate", "quantised"])
def test_matches_scipy_linkage_and_fcluster(kind):
    rng = np.random.default_rng(["random", "duplicate", "quantised"].index(kind))
    for case in range(CASES_PER_KIND):
        dist = BackdoorDetector.cosine_distance_matrix(_updates(kind, rng))
        s = dist.shape[0]
        want = linkage(squareform(dist, checks=False), method="average")
        tree = _average_linkage(dist)
        assert np.array_equal(tree, want), (kind, case)
        # One cut per case, in turn: at most t clusters, a cut on an exact
        # merge height (the ``<=`` boundary), a cut anywhere.
        if case % 3 == 0:
            t, criterion = int(rng.integers(1, s + 2)), "maxclust"
        elif case % 3 == 1:
            t, criterion = float(rng.choice(want[:, 2])), "distance"
        else:
            t, criterion = rng.uniform(0.0, 2.0), "distance"
        assert np.array_equal(
            _flat_clusters(tree, t, criterion), fcluster(want, t, criterion)
        ), (kind, case, criterion, t)

