"""Datasets and federated partitioning.

The environment is offline, so CIFAR-10 and Speech Commands are replaced by
synthetic class-prototype datasets that keep exactly what the paper's
algorithms react to: label cardinality (10 vs 35 classes), input modality
(2-D image tensor vs 1-D feature sequence), and Dirichlet label skew across
clients with normally distributed per-client data counts (20–200).
"""

from repro.data.datasets import (
    ArrayDataset,
    SyntheticAudio,
    SyntheticImage,
    make_dataset,
)
from repro.data.partition import (
    dirichlet_partition,
    label_matrix,
    normal_client_sizes,
    partition_dataset,
)
from repro.data.client_data import ClientDataset
from repro.data.skew import quantity_skew_partition, shard_partition
from repro.data.store import (
    ColumnarPopulation,
    FederatedDataset,
    group_label_counts,
    spawn_keys,
)

__all__ = [
    "ArrayDataset",
    "SyntheticImage",
    "SyntheticAudio",
    "make_dataset",
    "dirichlet_partition",
    "normal_client_sizes",
    "label_matrix",
    "partition_dataset",
    "ClientDataset",
    "FederatedDataset",
    "ColumnarPopulation",
    "group_label_counts",
    "spawn_keys",
    "shard_partition",
    "quantity_skew_partition",
]
