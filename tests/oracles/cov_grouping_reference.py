"""Algorithm 2 (§5.3) transcribed verbatim — the oracle for ``CoVGrouping``.

Every greedy step rebuilds the (remaining × classes) candidate count
matrix ``counts + L[remaining]``, re-derives every candidate's score with
:func:`cov_of_counts` / :func:`cov_paper_eq27`, and ``np.delete``-copies
the remaining index array. :class:`ReferenceCoVGrouping` swaps only this
partition step into :class:`~repro.grouping.CoVGrouping` — one edge at a
time, with that edge's own generator; input checks, the
undersized-leftover repair and ``Group`` construction are shared, so a
differential test compares the two partition engines and nothing else.
"""

from __future__ import annotations

import numpy as np

from repro.grouping import CoVGrouping

__all__ = ["ReferenceCoVGrouping"]


class ReferenceCoVGrouping(CoVGrouping):
    """``CoVGrouping`` with the direct transcription as its partition step."""

    def _partition_block(self, Ls, rngs) -> list[list[list[int]]]:
        return [self._transcribe(np.asarray(L, dtype=np.float64), rng) for L, rng in zip(Ls, rngs)]

    def _transcribe(self, L: np.ndarray, rng: np.random.Generator) -> list[list[int]]:
        metric = self._metric_fn
        remaining = np.arange(L.shape[0])
        partitions: list[list[int]] = []
        while remaining.size > 0:
            # Line 3: a new group seeded with a random remaining client.
            pick = int(rng.integers(remaining.size))
            seed = int(remaining[pick])
            remaining = np.delete(remaining, pick)
            members = [seed]
            counts = L[seed].copy()
            cov = float(metric(counts))

            # Line 4: grow while constraints unmet and clients remain.
            while (cov > self.max_cov or len(members) < self.min_group_size) and remaining.size:
                cand_counts = counts[None, :] + L[remaining]
                cand_cov = metric(cand_counts)
                best = int(np.argmin(cand_cov))
                best_cov = float(cand_cov[best])
                # Line 6: accept if it improves CoV, or if we are still
                # below the anonymity floor.
                if best_cov < cov or len(members) < self.min_group_size:
                    chosen = int(remaining[best])
                    members.append(chosen)
                    counts += L[chosen]
                    cov = best_cov
                    remaining = np.delete(remaining, best)
                else:
                    break  # Line 9: finalize (size is large enough)
            partitions.append(members)
        return partitions
