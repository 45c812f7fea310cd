"""Cloud–edge–client hierarchy (Fig. 1) and communication accounting.

The hierarchy assigns clients to edge servers (Algorithm 1's client sets
C_j), carries per-link latency/bandwidth, and costs
the message flows of one global round: global-model download, per-group-
round local uploads + group-model distribution at the edge, and the final
group-model upload to the cloud.
"""

from repro.topology.entities import Client, Cloud, EdgeServer
from repro.topology.network import HierarchicalTopology, LinkParams
from repro.topology.comm import CommModel, RoundTraffic

__all__ = [
    "Client",
    "EdgeServer",
    "Cloud",
    "LinkParams",
    "HierarchicalTopology",
    "CommModel",
    "RoundTraffic",
]
