"""Tests for the cloud-edge-client topology and communication model."""

import numpy as np
import pytest

from repro.grouping import Group
from repro.topology import CommModel, HierarchicalTopology, LinkParams


class TestLinkParams:
    def test_transfer_time(self):
        link = LinkParams(latency_s=0.01, bandwidth_bps=8e6)
        # 1 MB over 8 Mbps = 1 s, plus latency.
        assert link.transfer_time(1e6) == pytest.approx(1.01)


class TestHierarchicalTopology:
    def test_even_assignment(self):
        topo = HierarchicalTopology(num_clients=9, num_edges=3)
        assert [e.num_clients for e in topo.edges] == [3, 3, 3]

    def test_uneven_assignment(self):
        topo = HierarchicalTopology(num_clients=10, num_edges=3)
        assert sum(e.num_clients for e in topo.edges) == 10
        assert min(e.num_clients for e in topo.edges) >= 3

    def test_explicit_assignment(self):
        assignment = np.array([0, 0, 1, 1, 1])
        topo = HierarchicalTopology(5, 2, assignment=assignment)
        assert topo.edges[0].client_ids.tolist() == [0, 1]
        assert topo.edges[1].client_ids.tolist() == [2, 3, 4]

    @pytest.mark.parametrize(
        "num_clients, num_edges, hops",
        [(1, 1, 2), (6, 1, 2), (6, 2, 4), (9, 3, 4), (50, 7, 4)],
        ids=["one-client", "one-edge", "two-edges", "three-edges", "seven-edges"],
    )
    def test_diameter_is_four(self, num_clients, num_edges, hops):
        """client -> edge -> cloud -> edge -> client; one edge: client -> edge -> client."""
        assert HierarchicalTopology(num_clients, num_edges).diameter_hops == hops

    def test_edge_of(self):
        topo = HierarchicalTopology(6, 2)
        for c in range(6):
            assert c in topo.edges[topo.edge_of(c)].client_ids

    def test_edge_assignment_matches_algorithm1_input(self):
        topo = HierarchicalTopology(8, 2)
        cj = topo.edge_assignment()
        assert len(cj) == 2
        assert np.concatenate(cj).tolist() == list(range(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            HierarchicalTopology(0, 1)
        with pytest.raises(ValueError):
            HierarchicalTopology(2, 5)
        with pytest.raises(ValueError):
            HierarchicalTopology(4, 2, assignment=np.array([0, 0, 0, 5]))
        with pytest.raises(ValueError):
            # edge 1 gets no clients
            HierarchicalTopology(3, 2, assignment=np.array([0, 0, 0]))


class TestCommModel:
    def make(self, payload_factor=1.0):
        topo = HierarchicalTopology(8, 2)
        return CommModel.for_model(topo, num_params=1000, payload_factor=payload_factor)

    def group(self, size=4):
        return Group(0, 0, np.arange(size), np.array([10 * size]))

    def test_model_bytes(self):
        cm = self.make()
        assert cm.model_bytes == 8000.0

    def test_round_traffic_positive(self):
        t = self.make().round_traffic([self.group()], group_rounds=3)
        assert t.download_bytes > 0
        assert t.upload_bytes > 0
        assert t.wall_clock_s > 0
        assert t.total_bytes == t.download_bytes + t.upload_bytes

    def test_upload_scales_with_group_rounds(self):
        cm = self.make()
        t1 = cm.round_traffic([self.group()], group_rounds=1)
        t5 = cm.round_traffic([self.group()], group_rounds=5)
        assert t5.upload_bytes > 4 * t1.upload_bytes

    def test_payload_factor_doubles_upload(self):
        t1 = self.make(1.0).round_traffic([self.group()], 2)
        t2 = self.make(2.0).round_traffic([self.group()], 2)
        assert t2.upload_bytes == pytest.approx(2 * t1.upload_bytes)
        assert t2.download_bytes == pytest.approx(t1.download_bytes)

    def test_wall_clock_takes_slowest_group(self):
        cm = self.make()
        small = self.group(2)
        large = self.group(6)
        t_small = cm.round_traffic([small], 2).wall_clock_s
        t_both = cm.round_traffic([small, large], 2).wall_clock_s
        t_large = cm.round_traffic([large], 2).wall_clock_s
        assert t_both == pytest.approx(t_large)
        assert t_large > t_small

    def test_training_traffic_accumulates(self):
        cm = self.make()
        rounds = [[self.group()], [self.group()]]
        total = cm.training_traffic(rounds, group_rounds=2)
        single = cm.round_traffic([self.group()], 2)
        assert total.total_bytes == pytest.approx(2 * single.total_bytes)

    def test_invalid_model_bytes(self):
        topo = HierarchicalTopology(4, 2)
        with pytest.raises(ValueError):
            CommModel(topo, model_bytes=0)
