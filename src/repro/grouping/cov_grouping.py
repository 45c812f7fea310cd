"""CoV-Grouping — the paper's Algorithm 2 (§5.3).

Greedy group formation: seed each group with a random client, then
repeatedly add the candidate that minimizes the group's CoV, until the
group's CoV ≤ MaxCoV and size ≥ MinGS (or no candidate improves the CoV
once the size floor is met).

The direct transcription rebuilds the (remaining × classes) candidate
count matrix ``counts + L[remaining]`` every greedy step and re-derives
every CoV from scratch.  This engine instead maintains the running moments
S1 = Σ_j c_j and S2 = Σ_j c_j² of the current group plus a per-client dot
table z_i = Σ_j L_ij² + 2·(L_i · counts), so a candidate's moments are
S1 + Σ_j L_ij and S2 + z_i — O(|remaining|) fused array work per greedy
step into preallocated buffers, with an order-preserving in-place removal
instead of ``np.delete`` copies.  Adding a member updates z with one BLAS
GEMV (``L @ L[chosen]``).

Bit-identity with the transcription is *constructed*, not hoped for.
Label counts are integers, so S1, S2 and z are exact in float64 and the
surrogate score q = S2c/S1c² (an exact monotone transform of CoV²:
CoV² = m·q − 1) carries at most one rounding.  The transcription's float
path has its own last-ulp noise — it can even break *exactly tied*
candidates either way — so the engine never trusts the surrogate near a
tie: every step, candidates whose q lies within a conservative relative
window of the minimum are re-scored with :func:`cov_of_counts` /
:func:`cov_paper_eq27` on their actual count vectors, and the winner (and
the accept/finalize comparison) is decided on those floats.  Outside the
window the surrogate's margin exceeds every float-error bound, so the
winner is provably the transcription's argmin.  The transcription itself
is kept as the test oracle ``tests/oracles/cov_grouping_reference.py``;
partitions are pinned equal to it across seeds, parameter grids and both
metrics by ``tests/grouping/test_incremental_engine.py``.

Moment exactness needs non-negative integer counts with Σ n_g ≤ 2²⁶ per
edge, so that all squares stay below 2⁵³: :meth:`CoVGrouping.group`
raises ``ValueError`` on anything else, naming the first offending
(client, class, value) or the edge total.  Integral floats are accepted.

Removal preserves ascending index order — the group-seed draw indexes
``remaining`` positionally and ``np.argmin`` breaks ties by first index,
so a swap-with-last removal would change which client wins ties.  The
in-place left-shift of a preallocated order buffer keeps the exact
semantics of ``np.delete`` without allocating.

``cov_metric`` selects the score: ``"cov"`` (canonical σ/μ, the default)
or ``"eq27"`` (the paper's literal printed formula).  The two are *not*
interchangeable inside a candidate scan — eq27 = CoV·√(n_g/m) and n_g
differs per candidate — see :mod:`repro.grouping.cov`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.grouping.base import Group, Grouper, non_count_mask
from repro.grouping.cov import cov_of_counts, cov_paper_eq27
from repro.rng import make_rng

__all__ = ["CoVGrouping"]

#: Relative half-width of the near-tie window on the surrogate score.
#: Combined float error between the surrogate and the metric's own float
#: formula is ≤ ~(2m+22)·ε ≈ 3e-14 for m ≤ 64; 1e-12 gives a ~30× safety
#: margin while still keeping the exact-rescore set empty except at real ties.
_TIE_REL = 1e-12

#: Σ n_g above this would push S1² past 2⁵³ where float64 stops being
#: exact on integers; :meth:`CoVGrouping.group` rejects such edges.
_EXACT_SUM_MAX = 2**26


class CoVGrouping(Grouper):
    """Greedy CoV-minimizing grouper (Algorithm 2).

    Parameters
    ----------
    min_group_size:
        MinGS — the anonymity floor: every group (except possibly the final
        leftover group) has at least this many clients, so secure group
        operations have a large enough anonymity set.
    max_cov:
        MaxCoV — keep adding clients while the group CoV exceeds this value
        (soft constraint: if no candidate helps and size ≥ MinGS, the group
        is finalized anyway — footnote 4).
    cov_metric:
        ``"cov"`` (default) uses the canonical σ/μ; ``"eq27"`` uses the
        paper's literal Eq. (27) — a different objective whose greedy
        choices can diverge from the canonical one.
    """

    name = "covg"

    _METRICS = ("cov", "eq27")

    def __init__(
        self,
        min_group_size: int = 5,
        max_cov: float = 0.5,
        cov_metric: str = "cov",
    ):
        if min_group_size < 1:
            raise ValueError(f"min_group_size must be >= 1, got {min_group_size}")
        if max_cov < 0:
            raise ValueError(f"max_cov must be >= 0, got {max_cov}")
        if cov_metric not in self._METRICS:
            raise ValueError(f"cov_metric must be one of {self._METRICS}, got {cov_metric!r}")
        self.min_group_size = int(min_group_size)
        self.max_cov = float(max_cov)
        self.cov_metric = cov_metric

    @property
    def _metric_fn(self):
        return cov_paper_eq27 if self.cov_metric == "eq27" else cov_of_counts

    def group(
        self,
        label_matrix: np.ndarray,
        client_ids: np.ndarray,
        edge_id: int = 0,
        rng: np.random.Generator | int | None = None,
    ) -> list[Group]:
        rng = make_rng(rng)
        L = np.asarray(label_matrix, dtype=np.float64)
        if L.ndim != 2:
            raise ValueError(
                f"label_matrix must be 2-D (clients × classes), got shape "
                f"{L.shape}"
            )
        n = L.shape[0]
        # An empty edge forms zero groups — nothing violates constraint (31).
        if 0 < n < self.min_group_size:
            raise ValueError(
                f"cannot form groups from {n} client(s) with "
                f"min_group_size={self.min_group_size}: every group needs at "
                "least MinGS members (constraint 31) — lower min_group_size "
                "or supply more clients"
            )
        client_ids = np.asarray(client_ids, dtype=np.int64)
        if client_ids.shape[0] != n:
            raise ValueError("client_ids length must match label_matrix rows")
        bad = non_count_mask(L)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                "label counts must be non-negative integers: client "
                f"{int(client_ids[i])}, class {int(j)} has {float(L[i, j])}"
            )
        total = float(L.sum())
        if total > _EXACT_SUM_MAX:
            raise ValueError(
                f"edge {edge_id} holds {total:.0f} samples, above the 2**26 = "
                f"{_EXACT_SUM_MAX} bound under which the grouping moments "
                "stay exact in float64"
            )

        partitions = self._partition(L, rng)
        self._repair_undersized(partitions, L)
        return self._build_groups(partitions, L, client_ids, edge_id)

    def _partition(self, L: np.ndarray, rng: np.random.Generator) -> list[list[int]]:
        """Algorithm 2 lines 2–10 over running moments, exact tie resolution."""
        n, m = L.shape
        eq27 = self.cov_metric == "eq27"
        metric = self._metric_fn
        mgs = self.min_group_size
        # Surrogate-space MaxCoV threshold (see surrogate below).
        qmax = self.max_cov**2 if eq27 else (self.max_cov**2 + 1.0) / m
        rs = L.sum(axis=1)  # per-client Σ_j L_ij (exact: integer counts)
        rq = (L * L).sum(axis=1)  # per-client Σ_j L_ij²
        # z_i = rq_i + 2·(L_i · counts): candidate second moment = S2 + z_i.
        z = np.empty(n)
        gemv = np.empty(n)
        counts = np.empty(m)

        # Active clients are order[:count], always in ascending index order
        # (matching np.delete); removal is an in-place left shift.
        order = np.arange(n)
        count = n
        b_s1 = np.empty(n)
        b_s2 = np.empty(n)
        b_t = np.empty(n)
        b_q = np.empty(n)
        b_e = np.empty(n)

        def add_member(chosen: int) -> None:
            # Order matters: z/counts updates must see the pre-add state.
            np.matmul(L, L[chosen], out=gemv)
            np.multiply(gemv, 2.0, out=gemv)
            np.add(z, gemv, out=z)
            np.add(counts, L[chosen], out=counts)

        def surrogate(S1: float, S2: float) -> tuple[float, float]:
            """(q, margin): exact monotone transform of the metric plus the
            uncertainty half-width of comparisons against other q values.

            cov:  CoV² = m·q − 1 with q = S2/S1² (S1² exact ⇒ one rounding).
            eq27: eq27² = q = S2/S1 − S1/m (two roundings, absolute margin).
            """
            if S1 <= 0:
                return math.inf, 0.0
            if eq27:
                a = S2 / S1
                b = S1 / m
                return a - b, _TIE_REL * (a + b)
            q = S2 / (S1 * S1)
            return q, _TIE_REL * q

        partitions: list[list[int]] = []
        with np.errstate(divide="ignore", invalid="ignore"):
            while count:
                # Line 3: a new group seeded with a random remaining client.
                pick = int(rng.integers(count))
                seed = int(order[pick])
                order[pick : count - 1] = order[pick + 1 : count]
                count -= 1
                members = [seed]
                S1 = float(rs[seed])
                S2 = float(rq[seed])
                np.copyto(z, rq)
                counts.fill(0.0)
                add_member(seed)
                q_cur, e_cur = surrogate(S1, S2)

                # Line 4: grow while constraints unmet and clients remain.
                while count:
                    if len(members) >= mgs:
                        # "cov > MaxCoV?" on the surrogate; only a boundary
                        # within float noise needs the metric's own float.
                        if math.isinf(q_cur):
                            pass  # empty counts: CoV = inf > MaxCoV, keep going
                        elif q_cur <= qmax - (e_cur + _TIE_REL * qmax):
                            break  # Line 9: certainly satisfied
                        elif q_cur <= qmax + (e_cur + _TIE_REL * qmax):
                            if not metric(counts) > self.max_cov:
                                break
                    act = order[:count]
                    s1 = b_s1[:count]
                    s2 = b_s2[:count]
                    t = b_t[:count]
                    q = b_q[:count]
                    e = b_e[:count]
                    rs.take(act, out=s1)
                    s1 += S1  # candidate S1 = S1 + Σ_j L_ij (exact)
                    z.take(act, out=s2)
                    s2 += S2  # candidate S2 = S2 + z_i (exact)
                    if eq27:
                        # Surrogate: eq27² = S2c/S1c − S1c/m, each term one
                        # rounding; near-ties need an absolute window.
                        np.divide(s2, s1, out=q)
                        np.divide(s1, m, out=t)
                        np.add(q, t, out=e)
                        e *= _TIE_REL
                        q -= t
                    else:
                        # Surrogate: CoV² = m·q − 1 with q = S2c/S1c², and
                        # S1c² is exact, so q carries a single rounding.
                        np.multiply(s1, s1, out=t)
                        np.divide(s2, t, out=q)
                        np.multiply(q, _TIE_REL, out=e)
                    if S1 == 0.0:
                        # S1c = 0 ⇒ 0/0 = NaN; the metric scores those inf.
                        np.nan_to_num(q, copy=False, nan=np.inf)
                        np.nan_to_num(e, copy=False, nan=0.0)
                    b = int(q.argmin())
                    q_b = float(q[b])
                    e_b = float(e[b])
                    thr = q_b + e_b
                    near = np.isinf(q) if math.isinf(thr) else q - e <= thr
                    best_cov = None  # metric float, computed lazily
                    if int(np.count_nonzero(near)) > 1:
                        # Near-tie: let the metric decide, on exactly the
                        # float path `metric(counts + L[remaining])` takes.
                        wpos = np.flatnonzero(near)
                        scores = metric(counts[None, :] + L[act[wpos]])
                        j = int(np.argmin(scores))
                        best = int(wpos[j])
                        best_cov = float(scores[j])
                        q_b, e_b = surrogate(
                            S1 + float(rs[act[best]]), S2 + float(z[act[best]])
                        )
                    else:
                        best = b
                    # Line 6: accept if it improves CoV, or if we are still
                    # below the anonymity floor — decided on surrogates
                    # unless the two scores are within float noise.
                    if len(members) < mgs:
                        accept = True
                    elif q_b < q_cur - (e_b + e_cur):
                        accept = True
                    elif q_b < q_cur + (e_b + e_cur):
                        if best_cov is None:
                            best_cov = metric(counts + L[act[best]])
                        accept = best_cov < metric(counts)
                    else:
                        accept = False
                    if accept:
                        chosen = int(order[best])
                        members.append(chosen)
                        S1 += float(rs[chosen])
                        S2 += float(z[chosen])
                        add_member(chosen)
                        q_cur, e_cur = surrogate(S1, S2)
                        order[best : count - 1] = order[best + 1 : count]
                        count -= 1
                    else:
                        break  # Line 9: finalize (size is large enough)
                partitions.append(members)
        return partitions

    def _repair_undersized(self, partitions: list[list[int]], L: np.ndarray) -> None:
        """Enforce constraint (31): merge leftover groups smaller than MinGS.

        When clients run out, the final group may be undersized; each of its
        members is folded into the finalized group whose CoV grows least.
        """
        if len(partitions) < 2:
            return
        undersized = [p for p in partitions if len(p) < self.min_group_size]
        if not undersized:
            return
        kept = [p for p in partitions if len(p) >= self.min_group_size]
        if not kept:
            return  # every group is undersized: nothing better available
        metric = self._metric_fn
        kept_counts = np.stack([L[p].sum(axis=0) for p in kept])
        for small in undersized:
            for member in small:
                cand = kept_counts + L[member]
                best = int(np.argmin(metric(cand)))
                kept[best].append(member)
                kept_counts[best] += L[member]
        partitions[:] = kept

    def __repr__(self) -> str:
        return (
            f"CoVGrouping(min_group_size={self.min_group_size}, max_cov={self.max_cov}, "
            f"cov_metric={self.cov_metric!r})"
        )
