"""The cloud–edge–client hierarchy of Fig. 1 and its link parameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.entities import Client, Cloud, EdgeServer

__all__ = ["LinkParams", "HierarchicalTopology"]


@dataclass(frozen=True)
class LinkParams:
    """One link's characteristics.

    latency_s:
        One-way propagation latency in seconds.
    bandwidth_bps:
        Usable bandwidth in bits per second.
    """

    latency_s: float
    bandwidth_bps: float

    def transfer_time(self, payload_bytes: float) -> float:
        """Time to push ``payload_bytes`` across this link, one direction."""
        return self.latency_s + 8.0 * payload_bytes / self.bandwidth_bps


#: Defaults reflecting the paper's premise: edge links are fast and stable,
#: the WAN hop to the cloud is the expensive one.
DEFAULT_CLIENT_EDGE = LinkParams(latency_s=0.005, bandwidth_bps=100e6)
DEFAULT_EDGE_CLOUD = LinkParams(latency_s=0.050, bandwidth_bps=20e6)


class HierarchicalTopology:
    """The client-edge-cloud structure of Fig. 1.

    Parameters
    ----------
    num_clients / num_edges:
        Clients are split across edges either evenly (default) or by an
        explicit assignment array.
    assignment:
        Optional array of length ``num_clients`` mapping client -> edge.
    client_edge / edge_cloud:
        Link parameters per tier.
    """

    def __init__(
        self,
        num_clients: int,
        num_edges: int,
        assignment: np.ndarray | None = None,
        client_edge: LinkParams = DEFAULT_CLIENT_EDGE,
        edge_cloud: LinkParams = DEFAULT_EDGE_CLOUD,
        rng: np.random.Generator | int | None = None,
    ):
        if num_clients < 1 or num_edges < 1:
            raise ValueError("need at least one client and one edge server")
        if num_edges > num_clients:
            raise ValueError(f"more edges ({num_edges}) than clients ({num_clients})")
        self.num_clients = int(num_clients)
        self.num_edges = int(num_edges)
        self.client_edge = client_edge
        self.edge_cloud = edge_cloud

        if assignment is None:
            # Even contiguous split: client i -> edge i*num_edges//num_clients.
            assignment = (np.arange(num_clients) * num_edges) // num_clients
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (num_clients,):
            raise ValueError(f"assignment shape {assignment.shape} != ({num_clients},)")
        if assignment.min() < 0 or assignment.max() >= num_edges:
            raise ValueError("assignment references an unknown edge server")
        self.assignment = assignment

        self.cloud = Cloud()
        self.edges = [
            EdgeServer(edge_id=j, client_ids=np.flatnonzero(assignment == j))
            for j in range(num_edges)
        ]
        for edge in self.edges:
            if edge.num_clients == 0:
                raise ValueError(f"edge server {edge.edge_id} has no clients")
        self.clients = [
            Client(client_id=i, edge_id=int(assignment[i])) for i in range(num_clients)
        ]

    def edge_assignment(self) -> list[np.ndarray]:
        """Client-id arrays per edge — the C_j inputs of Algorithm 1."""
        return [edge.client_ids for edge in self.edges]

    def edge_of(self, client_id: int) -> int:
        """Edge server managing a client."""
        return int(self.assignment[client_id])

    @property
    def diameter_hops(self) -> int:
        """Diameter of the two-tier tree in hops: client -> edge -> cloud ->
        edge -> client = 4 with two or more edges, client -> edge -> client
        = 2 with one (every edge serves at least one client)."""
        return 4 if self.num_edges >= 2 else 2

    def __repr__(self) -> str:
        return (
            f"HierarchicalTopology(clients={self.num_clients}, edges={self.num_edges})"
        )
