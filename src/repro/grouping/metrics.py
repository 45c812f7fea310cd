"""Grouping-quality metrics and the grouper registry (Figs. 5 & 6)."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.grouping.base import Group, Grouper
from repro.grouping.cdg import CDGGrouping
from repro.grouping.cov_grouping import CoVGrouping
from repro.grouping.fedgroup import FedGroupGrouping
from repro.grouping.kldg import KLDGrouping
from repro.grouping.random_grouping import RandomGrouping

__all__ = ["GroupingReport", "evaluate_grouping", "make_grouper"]


@dataclass
class GroupingReport:
    """Summary statistics of a grouping result.

    ``avg_overhead`` is the mean per-client group-operation overhead under a
    unit quadratic cost (O_g(s) = s²·unit) — the y-axis proxy of Fig. 6.
    """

    num_groups: int
    size_min: int
    size_max: int
    size_avg: float
    avg_cov: float
    avg_overhead: float
    runtime_s: float = 0.0

    def row(self) -> dict:
        """Flat dict for tabular reports."""
        return {
            "groups": self.num_groups,
            "GS[min,max](avg)": f"[{self.size_min}, {self.size_max}]({self.size_avg:.2f})",
            "avg_cov": round(self.avg_cov, 3),
            "avg_overhead": round(self.avg_overhead, 3),
            "runtime_s": round(self.runtime_s, 4),
        }


def evaluate_grouping(
    groups: list[Group], overhead_unit: float = 1.0, runtime_s: float = 0.0
) -> GroupingReport:
    """Compute size/CoV/overhead statistics for a group list."""
    if not groups:
        raise ValueError("cannot evaluate an empty grouping")
    sizes = np.array([g.size for g in groups])
    covs = np.array([g.cov for g in groups])
    # Per-client quadratic overhead, averaged over clients (each of the s
    # clients in a group pays O(s²)·unit, so the client-weighted mean is
    # Σ s·s² / Σ s).
    overhead = float((sizes**3).sum() / sizes.sum() * overhead_unit)
    return GroupingReport(
        num_groups=len(groups),
        size_min=int(sizes.min()),
        size_max=int(sizes.max()),
        size_avg=float(sizes.mean()),
        avg_cov=float(covs.mean()),
        avg_overhead=overhead,
        runtime_s=runtime_s,
    )


def make_grouper(name: str, **kwargs) -> Grouper:
    """Grouper registry: ``covg``, ``rg``, ``cdg``, ``kldg``, ``fedgroup``.

    Keyword arguments are forwarded to the grouper constructor; each grouper
    accepts its own size-control knob (``min_group_size`` for the greedy
    algorithms, ``group_size`` for RG/CDG).
    """
    registry = {
        "covg": CoVGrouping,
        "rg": RandomGrouping,
        "cdg": CDGGrouping,
        "kldg": KLDGrouping,
        "fedgroup": FedGroupGrouping,
    }
    try:
        cls = registry[name]
    except KeyError:
        raise KeyError(f"unknown grouper {name!r}; known: {sorted(registry)}") from None
    return cls(**kwargs)
