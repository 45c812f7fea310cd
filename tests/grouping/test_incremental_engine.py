"""Engine-equality and metric-semantics tests for CoVGrouping.

The running-moment engine's bit-identity with the verbatim transcription
of Algorithm 2 (``tests/oracles/cov_grouping_reference.py``) is a
constructed property (exact integer moments + windowed metric-float tie
resolution); these tests pin it across seeds, parameter grids, and both
``cov_metric`` settings, and pin the Eq. (27) vs canonical-CoV divergence
that the old ``repro.grouping.cov`` docstring wrongly denied.
"""

import numpy as np
import pytest

from repro.grouping import CoVGrouping, Group
from repro.grouping.cov import cov_of_counts, cov_paper_eq27
from tests.oracles.cov_grouping_reference import ReferenceCoVGrouping


def label_matrix(seed, clients=30, classes=5, max_per=40):
    """Skewed integer label counts, including some all-zero rows."""
    rng = np.random.default_rng(seed)
    props = rng.dirichlet(np.full(classes, 0.3), size=clients)
    totals = rng.integers(1, max_per + 1, size=clients)
    L = np.stack(
        [rng.multinomial(int(totals[i]), props[i]) for i in range(clients)]
    ).astype(np.float64)
    # ~5% clients with no data at all: exercises the S1 = 0 / CoV = inf path.
    zero = rng.random(clients) < 0.05
    L[zero] = 0.0
    return L


def partitions_of(groups):
    """Partition as an order-sensitive list of member tuples."""
    return [tuple(g.members.tolist()) for g in groups]


GRID = [
    (2, 0.3),
    (3, 0.5),
    (5, 0.5),
    (5, 1.0),
    (4, 0.0),
    (3, float("inf")),
]


class TestEngineEquality:
    @pytest.mark.parametrize("cov_metric", ["cov", "eq27"])
    @pytest.mark.parametrize("mgs,mcov", GRID)
    def test_partitions_bit_identical_across_seeds(self, cov_metric, mgs, mcov):
        """≥20 seeds × the (MinGS, MaxCoV) grid: engines agree exactly —
        same groups, same member insertion order, for both metrics."""
        for seed in range(20):
            L = label_matrix(seed)
            ids = np.arange(L.shape[0])
            ref = ReferenceCoVGrouping(mgs, mcov, cov_metric=cov_metric)
            inc = CoVGrouping(mgs, mcov, cov_metric=cov_metric)
            got_ref = partitions_of(ref.group(L, ids, rng=seed))
            got_inc = partitions_of(inc.group(L, ids, rng=seed))
            assert got_inc == got_ref, (
                f"engine divergence: metric={cov_metric} mgs={mgs} "
                f"mcov={mcov} seed={seed}"
            )

    def test_equality_on_larger_label_space(self):
        """Label-rich regime (many classes) where the hot path matters most."""
        for seed in range(5):
            L = label_matrix(seed, clients=120, classes=20)
            ids = np.arange(120)
            ref = ReferenceCoVGrouping(5, 0.5).group(L, ids, rng=seed)
            inc = CoVGrouping(5, 0.5).group(L, ids, rng=seed)
            assert partitions_of(inc) == partitions_of(ref)

    def test_empty_and_single_client(self):
        inc = CoVGrouping(3, 0.5)
        assert inc.group(np.zeros((0, 4)), np.arange(0), rng=0) == []
        with pytest.raises(ValueError, match="min_group_size=3"):
            inc.group(np.array([[2.0, 3.0]]), np.array([9]), rng=0)
        groups = CoVGrouping(1, 0.5).group(np.array([[2.0, 3.0]]), np.array([9]), rng=0)
        assert len(groups) == 1
        assert groups[0].members.tolist() == [9]


class TestCountValidation:
    """Label counts must be non-negative integers with an exact total:
    fractional or negative counts used to be grouped by their fractional
    CoV and then truncated (or stored negative) by ``Group``."""

    def test_non_integer_counts_rejected(self):
        L = np.random.default_rng(7).random((25, 4)) * 10.0
        with pytest.raises(ValueError, match=rf"client 100, class 0 has {L[0, 0]}"):
            CoVGrouping(3, 0.5).group(L, np.arange(100, 125), rng=1)

    def test_negative_counts_rejected(self):
        L = np.array([[2, 2], [3, -1], [1, 1]])
        with pytest.raises(ValueError, match=r"client 11, class 1 has -1\.0"):
            CoVGrouping(1, 0.5).group(L, np.array([10, 11, 12]), rng=0)

    def test_nan_rejected(self):
        L = np.array([[2.0, np.nan], [1.0, 1.0]])
        with pytest.raises(ValueError, match="class 1 has nan"):
            CoVGrouping(1, 0.5).group(L, np.arange(2), rng=0)

    def test_total_above_exact_bound_rejected(self):
        L = np.full((2, 2), 2**25)
        with pytest.raises(ValueError, match=r"134217728 samples.*67108864"):
            CoVGrouping(1, 0.5).group(L, np.arange(2), rng=0)
        at_bound = CoVGrouping(1, 0.5).group(L // 2, np.arange(2), rng=0)
        assert sum(g.n_g for g in at_bound) == 2**26

    def test_integral_floats_group_like_ints(self):
        L = label_matrix(3)
        ids = np.arange(L.shape[0])
        as_float = CoVGrouping(3, 0.5).group(L, ids, rng=3)
        as_int = CoVGrouping(3, 0.5).group(L.astype(np.int64), ids, rng=3)
        assert partitions_of(as_float) == partitions_of(as_int)
        for a, b in zip(as_float, as_int):
            assert np.array_equal(a.label_counts, b.label_counts)

    def test_group_rejects_instead_of_truncating(self):
        with pytest.raises(ValueError, match="class 0 has 23.16"):
            Group(4, 0, np.array([1]), np.array([23.16, 22.0]))
        with pytest.raises(ValueError, match="class 1 has -1"):
            Group(4, 0, np.array([1]), np.array([3, -1]))
        g = Group(4, 0, np.array([1]), np.array([23.0, 22.0]))
        assert g.label_counts.dtype == np.int64
        assert g.label_counts.tolist() == [23, 22]


class TestMetricSemantics:
    def test_eq27_is_cov_scaled_by_group_total(self):
        """Eq. (27) = CoV · √(n_g/m): equal only when n_g = m."""
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 30, size=(10, 6)).astype(np.float64)
        counts[0] = [1, 2, 3, 0, 0, 0]  # n_g = 6 = m ⇒ the two agree
        m = counts.shape[1]
        n_g = counts.sum(axis=1)
        expected = cov_of_counts(counts) * np.sqrt(n_g / m)
        assert np.allclose(cov_paper_eq27(counts), expected)

    def test_greedy_argmin_counterexample(self):
        """The pinned counterexample: candidate A wins under canonical CoV,
        candidate B wins under Eq. (27) — the metrics are NOT interchangeable
        inside a greedy candidate scan (contra the old cov.py docstring)."""
        A = np.array([30.0, 20.0])  # CoV = 0.2,  eq27 = 1.0
        B = np.array([4.0, 2.0])  # CoV ≈ 0.33, eq27 ≈ 0.577
        assert cov_of_counts(A) == pytest.approx(0.2)
        assert cov_paper_eq27(A) == pytest.approx(1.0)
        assert cov_of_counts(B) == pytest.approx(1.0 / 3.0)
        assert cov_paper_eq27(B) == pytest.approx(np.sqrt(1.0 / 3.0))
        cand = np.stack([A, B])
        assert int(np.argmin(cov_of_counts(cand))) == 0
        assert int(np.argmin(cov_paper_eq27(cand))) == 1

    def test_metrics_can_produce_different_partitions(self):
        """On skewed data the two objectives eventually pick different
        groups — cov_metric is a real knob, not a relabeling."""
        diverged = False
        for seed in range(30):
            L = label_matrix(seed, clients=40, classes=8)
            ids = np.arange(40)
            cov = CoVGrouping(3, 0.4, cov_metric="cov").group(L, ids, rng=seed)
            e27 = CoVGrouping(3, 0.4, cov_metric="eq27").group(L, ids, rng=seed)
            if partitions_of(cov) != partitions_of(e27):
                diverged = True
                break
        assert diverged


class TestParamValidation:
    def test_bad_engine_rejected(self):
        """There is one engine; ``engine=`` is not an argument any more."""
        for engine in ("turbo", "incremental", "reference"):
            with pytest.raises(TypeError, match="engine"):
                CoVGrouping(3, 0.5, engine=engine)

    def test_bad_metric_rejected(self):
        with pytest.raises(ValueError, match="cov_metric"):
            CoVGrouping(3, 0.5, cov_metric="variance")

    def test_repr_names_metric(self):
        r = repr(CoVGrouping(3, 0.5, cov_metric="eq27"))
        assert r == "CoVGrouping(min_group_size=3, max_cov=0.5, cov_metric='eq27')"
