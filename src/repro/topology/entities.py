"""Entity records for the three-tier hierarchy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Client", "EdgeServer", "Cloud"]


@dataclass
class Client:
    """A mobile/IoT client device.

    ``compute_factor`` scales local training time (device heterogeneity);
    1.0 = the reference RPi-4-class device.
    """

    client_id: int
    edge_id: int
    num_samples: int = 0
    compute_factor: float = 1.0


@dataclass
class EdgeServer:
    """An edge server managing a set of clients and forming their groups."""

    edge_id: int
    client_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        self.client_ids = np.asarray(self.client_ids, dtype=np.int64)

    @property
    def num_clients(self) -> int:
        return int(self.client_ids.size)


@dataclass
class Cloud:
    """The cloud parameter server performing group sampling + global aggregation."""

    name: str = "cloud"
