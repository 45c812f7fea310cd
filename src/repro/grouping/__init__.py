"""Group formation: the paper's CoV-Grouping plus all compared baselines.

Grouping operates purely on the label matrix ``L`` (clients × classes) —
never on raw data, models, or gradients (§5.1). Each edge server groups its
own clients; the resulting groups are pooled globally for sampling.
"""

from repro.grouping.cov import (
    cov_of_counts,
    cov_paper_eq27,
    group_cov,
    kl_divergence,
    sigma_mu,
)
from repro.grouping.base import Group, Grouper, group_clients_per_edge
from repro.grouping.cov_grouping import CoVGrouping
from repro.grouping.random_grouping import RandomGrouping
from repro.grouping.cdg import CDGGrouping
from repro.grouping.fedgroup import FedGroupGrouping
from repro.grouping.kldg import KLDGrouping
from repro.grouping.metrics import GroupingReport, evaluate_grouping, make_grouper

__all__ = [
    "cov_of_counts",
    "cov_paper_eq27",
    "group_cov",
    "sigma_mu",
    "kl_divergence",
    "Group",
    "Grouper",
    "group_clients_per_edge",
    "CoVGrouping",
    "RandomGrouping",
    "CDGGrouping",
    "FedGroupGrouping",
    "KLDGrouping",
    "GroupingReport",
    "evaluate_grouping",
    "make_grouper",
]
