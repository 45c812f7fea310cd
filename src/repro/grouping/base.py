"""Group container and the Grouper interface."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.grouping.cov import cov_of_counts
from repro.rng import make_rng, spawn_many

__all__ = ["Group", "Grouper", "group_clients_per_edge"]


def non_count_mask(counts: np.ndarray) -> np.ndarray:
    """True where an entry is not a non-negative integer (NaN and ±inf
    included); integral floats count as integers."""
    if counts.dtype.kind in "iu":  # np.issubdtype(…, np.integer), cheaper
        return counts < 0
    return ~np.isfinite(counts) | (counts < 0) | (counts != np.floor(counts))


@dataclass(eq=False)
class Group:
    """A client group formed at one edge server.

    Groups compare (and hash) by identity: their fields are arrays, so a
    field-wise ``==`` has no single truth value.

    Attributes
    ----------
    group_id : global index of this group (assigned when pooled).
    edge_id : which edge server formed the group.
    members : client ids (global indexing) in this group.
    label_counts : summed per-class counts of the members (length m) —
        non-negative integers; anything else raises ``ValueError``.
    """

    group_id: int
    edge_id: int
    members: np.ndarray
    label_counts: np.ndarray

    def __post_init__(self) -> None:
        self.members = np.asarray(self.members, dtype=np.int64)
        counts = np.asarray(self.label_counts)
        bad = np.flatnonzero(non_count_mask(counts))
        if bad.size:
            j = int(bad[0])
            raise ValueError(
                f"group {self.group_id}: label counts must be non-negative "
                f"integers, class {j} has {counts.flat[j]}"
            )
        self.label_counts = counts.astype(np.int64, copy=False)

    @property
    def size(self) -> int:
        """Group size |g| (number of clients)."""
        return int(self.members.size)

    @property
    def n_g(self) -> int:
        """Total data samples in the group (the paper's n_g)."""
        return int(self.label_counts.sum())

    @property
    def cov(self) -> float:
        """Canonical CoV of the group's label counts."""
        return float(cov_of_counts(self.label_counts))

    def __repr__(self) -> str:
        return (
            f"Group(id={self.group_id}, edge={self.edge_id}, size={self.size}, "
            f"n_g={self.n_g}, cov={self.cov:.3f})"
        )


class Grouper:
    """Interface: partition one edge server's clients into groups.

    Subclasses implement :meth:`group` over the label matrix rows of the
    edge's clients. ``client_ids`` carries global client indices so groups
    can be pooled across edges.
    """

    name = "base"

    def group(
        self,
        label_matrix: np.ndarray,
        client_ids: np.ndarray,
        edge_id: int = 0,
        rng: np.random.Generator | int | None = None,
    ) -> list[Group]:
        raise NotImplementedError

    def group_edges(
        self,
        label_matrix: np.ndarray,
        edge_ids_lists: list[np.ndarray],
        rngs: list[np.random.Generator],
        edge_ids=None,
    ) -> list[list[Group]]:
        """Partition several edges: one group list per entry of
        ``edge_ids_lists`` (that edge's client ids, rows of the full
        ``label_matrix``), formed with the matching generator of ``rngs``
        and tagged with the matching ``edge_ids`` entry (default: the
        position). This default runs :meth:`group` edge by edge."""
        if edge_ids is None:
            edge_ids = range(len(edge_ids_lists))
        out = []
        for clients, rng, edge_id in zip(edge_ids_lists, rngs, edge_ids):
            clients = np.asarray(clients, dtype=np.int64)
            out.append(self.group(label_matrix[clients], clients, edge_id=edge_id, rng=rng))
        return out

    @staticmethod
    def _build_groups(
        partitions: list[list[int]],
        label_matrix: np.ndarray,
        client_ids: np.ndarray,
        edge_id: int,
    ) -> list[Group]:
        """Materialize Group objects from local-index partitions."""
        groups = []
        for local_members in partitions:
            local = np.asarray(local_members, dtype=np.int64)
            groups.append(
                Group(
                    group_id=-1,  # assigned when pooled globally
                    edge_id=edge_id,
                    members=client_ids[local],
                    label_counts=label_matrix[local].sum(axis=0),
                )
            )
        return groups


def group_clients_per_edge(
    grouper: Grouper,
    label_matrix: np.ndarray,
    edge_assignment: list[np.ndarray],
    rng: np.random.Generator | int | None = None,
) -> list[Group]:
    """Algorithm 1 lines 2–3: run group formation on every edge server.

    Parameters
    ----------
    label_matrix : full (clients × classes) label matrix L.
    edge_assignment : list of client-id arrays, one per edge server C_j.

    Returns the pooled global group list G with ``group_id`` assigned.
    """
    rng = make_rng(rng)
    child_rngs = spawn_many(rng, len(edge_assignment))
    per_edge = grouper.group_edges(label_matrix, edge_assignment, child_rngs)
    all_groups = [group for groups in per_edge for group in groups]
    for gid, group in enumerate(all_groups):
        group.group_id = gid
    return all_groups
