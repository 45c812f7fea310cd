"""The client population: one columnar store, and its constructors.

:class:`ColumnarPopulation` is the only population class. It holds every
client as rows of a handful of flat arrays:

* ``L``            — the label-count matrix (int64, |K| × m), the *only*
  per-client information grouping is allowed to see (§5.1);
* ``n``            — per-client sample counts n_i (int64, == L row sums);
* ``active``       — the churn mask maintained by the population engine;
* ``spawn_keys``   — per-client RNG spawn keys (uint64, splitmix64 over
  the store seed), so client-local randomness can be derived without
  materializing anything;
* ``unit_costs`` / ``latency_s`` — per-client cost/latency calibration
  hooks consumed by the vectorized accounting paths;
* the training samples, when present, in two shared arrays laid out
  contiguously per client (CSR-style ``sample_offsets``).

:meth:`~ColumnarPopulation.materialize` hands out :class:`ClientDataset`
**views** — zero copies — for exactly the ~S·|g| clients sampled into a
round; label drift and corruption write *through* those views (clients
own disjoint ranges), which is how ``y`` and the client's L row stay
consistent, and why checkpoint resume needs a store rebuilt over pristine
data. Stores built by :meth:`~ColumnarPopulation.synthetic` carry no
samples at all: grouping, sampling, and accounting at |K| ~ 10⁶ never
touch a client object. :class:`FederatedDataset` builds the store from a
train set and per-client shard indices.
"""

from __future__ import annotations

import numpy as np

from repro.data.client_data import ClientDataset
from repro.data.datasets import ArrayDataset
from repro.data.partition import label_matrix, partition_dataset
from repro.grouping.base import Group

__all__ = ["ColumnarPopulation", "FederatedDataset", "group_label_counts", "spawn_keys"]


def spawn_keys(seed: int, count: int) -> np.ndarray:
    """Per-client uint64 RNG spawn keys: splitmix64 over (seed, client id).

    Vectorized (no per-client Python calls), deterministic in the seed, and
    well-mixed — adjacent client ids land in unrelated streams. Feed a key
    to ``repro.rng.make_rng(int(key))`` for a client-local generator.
    """
    base = (int(seed) * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) % (1 << 64)
    z = np.arange(count, dtype=np.uint64)
    z = z + np.uint64(base)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def group_label_counts(
    L: np.ndarray, groups: list[Group] | list[np.ndarray]
) -> np.ndarray:
    """Per-group label-count rows Σ_{i∈g} L[i], vectorized over all groups.

    Accepts :class:`Group` objects or raw member-index arrays. One fancy
    index + one ``reduceat`` — no per-group Python sums, so 10⁵ groups
    aggregate in milliseconds.
    """
    members = [
        np.asarray(g.members if isinstance(g, Group) else g, dtype=np.int64)
        for g in groups
    ]
    if not members:
        return np.empty((0, L.shape[1]), dtype=np.int64)
    sizes = np.array([m.size for m in members], dtype=np.int64)
    if (sizes == 0).any():
        raise ValueError("cannot aggregate label counts over an empty group")
    flat = np.concatenate(members)
    offsets = np.zeros(len(members), dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    return np.add.reduceat(L[flat], offsets, axis=0)


class ColumnarPopulation:
    """A client population held as flat arrays (see module docstring).

    Parameters
    ----------
    L:
        Label-count matrix (|K| × m), copied to int64. Row sums define
        the per-client sizes ``n``.
    train_x / train_y / sample_offsets:
        Optional shared training data: client ``i`` owns rows
        ``sample_offsets[i]:sample_offsets[i+1]`` of both arrays (so
        per-client slices are true views). Omit all three for a
        metadata-only store (benchmarks, formation studies) —
        :meth:`materialize` then raises.
    test:
        Optional held-out :class:`repro.data.datasets.ArrayDataset`
        (needed by ``GroupFELTrainer.evaluate``).
    seed:
        Root of the per-client ``spawn_keys`` stream.
    """

    def __init__(
        self,
        L: np.ndarray,
        *,
        train_x: np.ndarray | None = None,
        train_y: np.ndarray | None = None,
        sample_offsets: np.ndarray | None = None,
        test=None,
        seed: int = 0,
        unit_costs: np.ndarray | None = None,
        latency_s: np.ndarray | None = None,
        name: str = "columnar",
    ):
        self.L = np.array(L, dtype=np.int64)
        if self.L.ndim != 2:
            raise ValueError(f"L must be 2-D (clients × classes), got shape {self.L.shape}")
        if (self.L < 0).any():
            raise ValueError("label counts must be non-negative")
        self.n = self.L.sum(axis=1)
        self.num_classes = int(self.L.shape[1])
        self.active = np.ones(self.num_clients, dtype=bool)
        self.seed = int(seed)
        self.spawn_keys = spawn_keys(self.seed, self.num_clients)
        self.unit_costs = (
            np.ones(self.num_clients, dtype=np.float64)
            if unit_costs is None
            else np.asarray(unit_costs, dtype=np.float64)
        )
        self.latency_s = (
            np.zeros(self.num_clients, dtype=np.float64)
            if latency_s is None
            else np.asarray(latency_s, dtype=np.float64)
        )
        for arr, label in ((self.unit_costs, "unit_costs"), (self.latency_s, "latency_s")):
            if arr.shape != (self.num_clients,):
                raise ValueError(
                    f"{label} must have shape ({self.num_clients},), got {arr.shape}"
                )
        self.test = test
        self.name = name

        data = (train_x, train_y, sample_offsets)
        if any(a is not None for a in data) and not all(a is not None for a in data):
            raise ValueError(
                "train_x, train_y, and sample_offsets must be given together"
            )
        self._train_x = train_x
        self._train_y = train_y
        if sample_offsets is None:
            self._offsets = None
        else:
            off = np.asarray(sample_offsets, dtype=np.int64)
            if off.shape != (self.num_clients + 1,):
                raise ValueError(
                    f"sample_offsets must have shape ({self.num_clients + 1},), "
                    f"got {off.shape}"
                )
            if off[0] != 0 or (np.diff(off) != self.n).any():
                raise ValueError("sample_offsets disagree with the L row sums")
            if train_y.shape[0] != off[-1] or train_x.shape[0] != off[-1]:
                raise ValueError(
                    f"train arrays hold {train_y.shape[0]} samples, offsets "
                    f"expect {int(off[-1])}"
                )
            self._offsets = off

    # ------------------------------------------------------------ constructors
    @classmethod
    def synthetic(
        cls,
        num_clients: int,
        num_classes: int,
        seed: int = 0,
        alpha: float = 0.3,
        size_low: int = 20,
        size_high: int = 60,
    ) -> "ColumnarPopulation":
        """A metadata-only population at arbitrary scale (no sample data).

        Dirichlet(α) per-client label skew with Poissonized per-class
        counts, vectorized over all clients. Every client ends up with
        ≥ 1 sample. At 10⁶ clients × 20 classes the build takes about 3 s
        and peaks at 530–575 MB RSS on a 2-core Xeon: five full |K| × m
        arrays are live in turn.
        """
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {num_classes}")
        rng = np.random.default_rng(seed)
        props = rng.dirichlet(np.full(num_classes, alpha), size=num_clients)
        totals = rng.integers(size_low, size_high + 1, size=num_clients)
        L = rng.poisson(props * totals[:, None]).astype(np.int64)
        empty = np.flatnonzero(L.sum(axis=1) == 0)
        if empty.size:
            L[empty, rng.integers(0, num_classes, size=empty.size)] = 1
        return cls(L, seed=seed, name=f"synthetic({num_clients})")

    # ------------------------------------------------------------- inspection
    @property
    def num_clients(self) -> int:
        return int(self.L.shape[0])

    @property
    def has_data(self) -> bool:
        """Whether clients can be materialized (sample arrays present)."""
        return self._offsets is not None

    def client_sizes(self) -> np.ndarray:
        """n_i for every client (a copy — the ledger may outlive drift)."""
        return self.n.copy()

    @property
    def total_samples(self) -> int:
        """The paper's n = Σ n_i."""
        return int(self.n.sum())

    def global_label_distribution(self) -> np.ndarray:
        """Fraction of each label across all client shards."""
        totals = self.L.sum(axis=0).astype(np.float64)
        s = totals.sum()
        return totals / s if s > 0 else totals

    def num_active(self) -> int:
        return int(self.active.sum())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, clients={self.num_clients}, "
            f"classes={self.num_classes}, active={self.num_active()}, "
            f"data={'yes' if self.has_data else 'no'})"
        )

    # ------------------------------------------------------- per-client access
    def _require_data(self) -> None:
        if not self.has_data:
            raise ValueError(
                f"{self.name!r} is a metadata-only population (no sample "
                "arrays); pass train_x / train_y / sample_offsets, or build "
                "it with FederatedDataset, to materialize clients"
            )

    def client_size(self, client_id: int) -> int:
        """n_i — valid with or without sample data."""
        return int(self.n[client_id])

    def client_labels(self, client_id: int) -> np.ndarray:
        """Client ``i``'s label vector, as a *mutable view* into the shared
        store — label drift writes through it (and updates ``L[i]``)."""
        self._require_data()
        a, b = self._offsets[client_id], self._offsets[client_id + 1]
        return self._train_y[a:b]

    def client_features(self, client_id: int) -> np.ndarray:
        """Client ``i``'s feature array, as a *mutable view* into the
        shared store — test-time corruption writes through it."""
        self._require_data()
        a, b = self._offsets[client_id], self._offsets[client_id + 1]
        return self._train_x[a:b]

    def snapshot_shards(self, include_features: bool = False) -> dict:
        """Copy the mutable shard data (labels + L, optionally features)
        so a sweep can restore pristine state between methods."""
        self._require_data()
        snap: dict = {"L": self.L.copy(), "y": self._train_y.copy()}
        if include_features:
            snap["x"] = self._train_x.copy()
        return snap

    def restore_shards(self, snapshot: dict) -> None:
        """Write a :meth:`snapshot_shards` copy back **in place** (via
        ``np.copyto``) so materialized views and L-row aliases stay
        valid."""
        self._require_data()
        np.copyto(self.L, snapshot["L"])
        np.copyto(self._train_y, snapshot["y"])
        if "x" in snapshot:
            np.copyto(self._train_x, snapshot["x"])

    def materialize(self, ids) -> dict[int, ClientDataset]:
        """Lazily materialize the given clients as zero-copy views.

        Returns ``{client_id: ClientDataset}`` where each dataset's ``x`` /
        ``y`` / ``label_counts`` are slices of the store's shared arrays
        (``x.base is`` the store's train array). This is the per-round
        hand-off to group training: only the sampled ~S·|g| clients ever
        exist as objects, and mutations through the views (drift) stay in
        the store.
        """
        self._require_data()
        out: dict[int, ClientDataset] = {}
        off = self._offsets
        for cid in ids:
            cid = int(cid)
            out[cid] = ClientDataset(
                client_id=cid,
                x=self._train_x[off[cid] : off[cid + 1]],
                y=self._train_y[off[cid] : off[cid + 1]],
                label_counts=self.L[cid],
            )
        return out

    # ----------------------------------------------------------------- updates
    def adopt_active(self, mask: np.ndarray) -> np.ndarray:
        """Install ``mask`` as the store's active mask and return the shared
        array — the population engine calls this so store and engine see one
        mask."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.active.shape:
            raise ValueError(
                f"active mask must have shape {self.active.shape}, got {mask.shape}"
            )
        np.copyto(self.active, mask)
        return self.active

    def set_active(self, ids, flag: bool) -> None:
        """Flip the active mask for the given clients."""
        self.active[np.asarray(ids, dtype=np.int64)] = bool(flag)

    def apply_relabel(self, client_id: int, indices: np.ndarray, offset: int) -> np.ndarray:
        """Rotate the given samples' labels by ``offset`` classes (mod m),
        keeping ``L[client_id]`` exact; returns the new count row.

        The size-preserving mutation label drift performs — n_i never
        changes, only the class histogram.
        """
        y = self.client_labels(client_id)
        indices = np.asarray(indices, dtype=np.int64)
        y[indices] = (y[indices] + int(offset)) % self.num_classes
        new_counts = np.bincount(y, minlength=self.num_classes).astype(np.int64)
        np.copyto(self.L[client_id], new_counts)
        return self.L[client_id]

    # ------------------------------------------------------------- validation
    def check_invariants(self) -> None:
        """Assert the store's cross-array invariants hold *exactly*.

        ``n == L row sums``; when data is present, every client's label
        histogram equals its L row; the active mask is boolean and
        per-client. Cheap enough to call from property tests after every
        random operation.
        """
        if (self.L < 0).any():
            raise AssertionError("negative label counts")
        if not np.array_equal(self.n, self.L.sum(axis=1)):
            raise AssertionError("n diverged from L row sums")
        if self.active.dtype != np.bool_ or self.active.shape != (self.num_clients,):
            raise AssertionError("active mask malformed")
        if self.has_data:
            if (np.diff(self._offsets) != self.n).any():
                raise AssertionError("sample offsets diverged from n")
            hist = np.zeros_like(self.L)
            for i in range(self.num_clients):
                a, b = self._offsets[i], self._offsets[i + 1]
                hist[i] = np.bincount(
                    self._train_y[a:b], minlength=self.num_classes
                )
            if not np.array_equal(hist, self.L):
                raise AssertionError("L diverged from the per-client label data")


class FederatedDataset(ColumnarPopulation):
    """The store built from a train set and per-client shard indices
    (explicit ``shards``, or the one-call paper setup :meth:`from_dataset`).

    The shards are laid out contiguously once; every accessor is the
    store's. ``train`` and ``shards`` keep the source, and ``clients`` is
    the full list of materialized views, for callers that index clients
    directly (theory estimators, fairness reports).
    """

    def __init__(self, train: ArrayDataset, test: ArrayDataset, shards: list[np.ndarray]):
        self.train = train
        self.shards = [np.asarray(s, dtype=np.int64) for s in shards]
        order = np.concatenate(self.shards)
        offsets = np.cumsum([0, *(s.size for s in self.shards)])
        super().__init__(
            label_matrix(self.shards, train.y, train.num_classes),
            train_x=train.x[order], train_y=train.y[order], sample_offsets=offsets,
            test=test, name=f"federated({train.name})",
        )
        self.clients = list(self.materialize(range(self.num_clients)).values())

    @classmethod
    def from_dataset(
        cls,
        train: ArrayDataset,
        test: ArrayDataset,
        num_clients: int,
        alpha: float,
        size_low: int = 20,
        size_high: int = 200,
        rng: np.random.Generator | int | None = None,
    ) -> "FederatedDataset":
        """Paper setup: normal client sizes + Dirichlet(α) label skew."""
        shards, _ = partition_dataset(
            train, num_clients, alpha, size_low=size_low, size_high=size_high, rng=rng
        )
        return cls(train, test, shards)

    def __reduce__(self):
        # What crosses a process pool is the store alone — not the source
        # train set and the view list a second and third time.
        extras = ("train", "shards", "clients")
        state = {k: v for k, v in self.__dict__.items() if k not in extras}
        return ColumnarPopulation.__new__, (ColumnarPopulation,), state
