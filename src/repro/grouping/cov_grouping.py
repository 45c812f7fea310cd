"""CoV-Grouping — the paper's Algorithm 2 (§5.3), every edge in lockstep.

Greedy group formation: seed each group with a random client, then
repeatedly add the candidate that minimizes the group's CoV, until the
group's CoV ≤ MaxCoV and size ≥ MinGS (or no candidate improves the CoV
once the size floor is met). Algorithm 1 (Lines 2–3) runs it on every
edge server's own clients, and the edges never interact.

Running moments. The direct transcription rebuilds the (remaining ×
classes) candidate count matrix ``counts + L[remaining]`` every greedy
step and re-derives every CoV from scratch. This engine instead keeps the
running moments S1 = Σ_j c_j and S2 = Σ_j c_j² of the current group plus
a per-client dot table z_i = Σ_j L_ij² + 2·(L_i · counts), so a
candidate's moments are S1 + Σ_j L_ij and S2 + z_i, and adding a member
updates z with one GEMV (``L @ L[chosen]``).

Lockstep. A greedy step is a handful of array calls on a few hundred
elements, so per-call overhead, not arithmetic, sets the cost of forming
one edge. The engine therefore advances many edges together: their label
rows are stacked zero-padded into an ``(E, n_max, m)`` block, and S1, S2,
z, counts, the current score and the group sizes are per-edge arrays.
One iteration moves every edge by one member: all edges score all their
remaining candidates in one pass; the certain decisions (grow, accept,
finalize) are array comparisons; one batched GEMV (``matmul`` over the
stack) updates z for every edge that adds a member, including the seed
of a group opened in that iteration. Per-edge Python runs once per group
(the seed draw) or rarely (a near-tie rescore, a MaxCoV or accept
comparison within float noise), through :meth:`_Lockstep.advance`, the
exact one-edge form of an iteration. Once fewer than
:data:`_BULK_MIN_EDGES` edges of a block are open — from the start, for
a single edge — each finishes alone in that per-edge loop, because array
calls over a handful of scalars cost more than scalar code. Removed and
padded slots score +inf; once every edge's remaining count has halved,
the block is compacted so the passes shrink with the work.
Blocks hold at most :data:`_BLOCK_EDGES` edges and
:data:`_BLOCK_CELLS` padded (client, class) cells (an 8 MiB float64
label block), so peak memory stays flat however many edges are formed.

Bit-identity with the transcription is *constructed*, not hoped for, and
stacking changes none of it:

* Exact integer moments. Label counts are integers, so S1, S2 and z are
  exact in float64 whatever the summation order — per-edge GEMV or
  batched matmul, padded zeros or not — and the surrogate score
  q = S2c/S1c² (an exact monotone transform of CoV²: CoV² = m·q − 1)
  carries at most one rounding, the same rounding for every edge.
* The tie window. The transcription's float path has its own last-ulp
  noise — it can even break *exactly tied* candidates either way — so
  the engine never trusts the surrogate near a tie: candidates whose q
  lies within a conservative relative window of the minimum are
  re-scored with :func:`cov_of_counts` / :func:`cov_paper_eq27` on their
  actual count vectors, and the winner (and the accept/finalize
  comparison) is decided on those floats. Outside the window the
  surrogate's margin exceeds every float-error bound, so the winner is
  provably the transcription's argmin.
* First-index ties. Masking keeps every edge's remaining clients in
  ascending index order (removal only masks a slot, and compaction is a
  stable gather), and ``argmin`` returns the first minimum, so the
  winner among equal scores is the first remaining client — the order
  ``np.delete`` gives the transcription.
* Per-edge RNG order. Each edge draws its group seeds from its own
  generator, one draw per group in formation order, exactly as when the
  edge is formed alone; no edge ever touches another's stream.

The transcription itself is kept as the test oracle
``tests/oracles/cov_grouping_reference.py``; partitions are pinned equal
to it, one edge and many, across seeds, parameter grids and both metrics
by ``tests/grouping/test_incremental_engine.py``.

Moment exactness needs non-negative integer counts with Σ n_g ≤ 2²⁶ per
edge, so that all squares stay below 2⁵³: :meth:`CoVGrouping.group` and
:meth:`CoVGrouping.group_edges` raise ``ValueError`` on anything else,
naming the first offending (client, class, value) or the edge total.
Integral floats are accepted.

``cov_metric`` selects the score: ``"cov"`` (canonical σ/μ, the default)
or ``"eq27"`` (the paper's literal printed formula). The two are *not*
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

#: A lockstep block stacks at most this many edges ...
_BLOCK_EDGES = 64
#: ... and at most this many padded (client, class) float64 cells.
_BLOCK_CELLS = 2**20

#: Below this many open edges the block's edges finish one by one in the
#: scalar per-edge loop instead of the array iterations.
_BULK_MIN_EDGES = 4


def _counts_matrix(label_matrix) -> np.ndarray:
    """The edge's label rows as a 2-D count matrix: integer dtypes kept
    (so group counts are integer sums), anything else as float64."""
    L = np.asarray(label_matrix)
    if not np.issubdtype(L.dtype, np.integer):
        L = L.astype(np.float64)
    if L.ndim != 2:
        raise ValueError(
            f"label_matrix must be 2-D (clients × classes), got shape "
            f"{L.shape}"
        )
    return L


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
        L = _counts_matrix(label_matrix)
        client_ids = np.asarray(client_ids, dtype=np.int64)
        self._check_edge(L, client_ids, edge_id)
        (partitions,) = self._partition_block([L], [rng])
        self._repair_undersized(partitions, L)
        return self._build_groups(partitions, L, client_ids, edge_id)

    def group_edges(
        self,
        label_matrix: np.ndarray,
        edge_ids_lists: list[np.ndarray],
        rngs: list[np.random.Generator],
        edge_ids=None,
    ) -> list[list[Group]]:
        """Every edge's groups from one lockstep pass per block of edges.

        Each edge's partition equals :meth:`group` on its own rows with its
        own generator. Every edge is validated, in edge order, before any
        is formed, so a bad edge raises :meth:`group`'s exact error.
        """
        L = np.asarray(label_matrix)
        id_lists = [np.asarray(ids, dtype=np.int64) for ids in edge_ids_lists]
        edge_ids = list(range(len(id_lists)) if edge_ids is None else edge_ids)
        rngs = [make_rng(r) for r in rngs]
        for ids, edge_id in zip(id_lists, edge_ids):
            self._check_edge(_counts_matrix(L[ids]), ids, edge_id)
        m = L.shape[-1]
        out: list[list[Group]] = []
        start = 0
        while start < len(id_lists):
            # Grow the block while the padded label block stays in bounds.
            stop, width = start + 1, id_lists[start].size
            while stop < len(id_lists) and stop - start < _BLOCK_EDGES:
                wider = max(width, id_lists[stop].size)
                if (stop - start + 1) * wider * m > _BLOCK_CELLS:
                    break
                stop, width = stop + 1, wider
            Ls = [_counts_matrix(L[ids]) for ids in id_lists[start:stop]]
            blocks = self._partition_block(Ls, rngs[start:stop])
            for k, L_e, partitions in zip(range(start, stop), Ls, blocks):
                self._repair_undersized(partitions, L_e)
                out.append(self._build_groups(partitions, L_e, id_lists[k], edge_ids[k]))
            start = stop
        return out

    def _check_edge(self, L: np.ndarray, client_ids: np.ndarray, edge_id) -> None:
        """Reject an edge the exact moments cannot form (see module doc)."""
        n = L.shape[0]
        # An empty edge forms zero groups — nothing violates constraint (31).
        if 0 < n < self.min_group_size:
            raise ValueError(
                f"cannot form groups from {n} client(s) with "
                f"min_group_size={self.min_group_size}: every group needs at "
                "least MinGS members (constraint 31) — lower min_group_size "
                "or supply more clients"
            )
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

    def _partition_block(
        self, Ls: list[np.ndarray], rngs: list[np.random.Generator]
    ) -> list[list[list[int]]]:
        """Algorithm 2 lines 2–10 on every edge of one block, in lockstep."""
        return _Lockstep(self, Ls, rngs).run()

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


class _Lockstep:
    """One block of edges advanced through Algorithm 2 together.

    Row r of every (E, ·) array is edge r; a slot is one of its clients
    (``lid`` maps slots to local client indices). A slot that is already
    a member, or padding, has z = +inf, so every score it gets is +inf.
    """

    def __init__(self, grouper: CoVGrouping, Ls: list[np.ndarray], rngs):
        self.eq27 = grouper.cov_metric == "eq27"
        self.metric = grouper._metric_fn
        self.mgs = grouper.min_group_size
        self.max_cov = grouper.max_cov
        self.rngs = rngs
        E = len(Ls)
        sizes = np.array([L.shape[0] for L in Ls], dtype=np.int64)
        w = int(sizes.max())
        m = self.m = Ls[0].shape[1]
        # Surrogate-space MaxCoV threshold (see _surrogate).
        self.qmax = (
            grouper.max_cov**2 if self.eq27 else (grouper.max_cov**2 + 1.0) / max(m, 1)
        )
        self.qtol = _TIE_REL * self.qmax
        self.counts = np.zeros((E, m))
        # Edges never seeded (no clients) keep S1 = 1 so that they never
        # trigger the S1 = 0 path of _bulk_step.
        self.S1 = np.ones(E)
        self.S2 = np.zeros(E)
        self.q_cur = np.zeros(E)
        self.e_cur = np.zeros(E)
        self.size = np.zeros(E, dtype=np.int64)  # members of the open group
        self.left = sizes  # remaining (ungrouped) clients
        self.open = np.zeros(E, dtype=bool)  # edge has an open group
        self.n_open = 0
        self.members: list[list[int]] = [[] for _ in range(E)]
        self.parts: list[list[list[int]]] = [[] for _ in range(E)]
        X = np.zeros((E, w, m))
        for r, L in enumerate(Ls):
            X[r, : L.shape[0]] = L
        rq = (X * X).sum(axis=2)  # per-slot Σ_j L_ij²
        self._set_block(
            X,
            X.sum(axis=2),  # per-slot Σ_j L_ij (exact: integer counts)
            rq,
            np.where(np.arange(w) < sizes[:, None], rq, np.inf),
            np.broadcast_to(np.arange(w), (E, w)).copy(),
        )

    def _set_block(self, X, rs, rq, z, lid) -> None:
        """Install the (E, w, ·) block state, its scratch buffers and the
        per-edge row views :meth:`advance` works on."""
        E, w, m = X.shape
        self.X, self.rs, self.rq, self.z, self.lid = X, rs, rq, z, lid
        self.w = w
        self.Xflat = X.reshape(E * w, m)
        self.base = np.arange(E) * w
        self.s1, self.s2, self.t, self.q, self.e, self.g = np.empty((6, E, w))
        self.near = np.empty((E, w), dtype=bool)
        self.rows = list(
            zip(X, rs, rq, z, self.counts, self.s1, self.s2, self.t, self.q, self.e,
                self.g, self.near)
        )

    def _surrogate(self, S1: float, S2: float) -> tuple[float, float]:
        """(q, margin): exact monotone transform of the metric plus the
        uncertainty half-width of comparisons against other q values.

        cov:  CoV² = m·q − 1 with q = S2/S1² (S1² exact ⇒ one rounding).
        eq27: eq27² = q = S2/S1 − S1/m (two roundings, absolute margin).
        """
        if S1 <= 0:
            return math.inf, 0.0
        if self.eq27:
            a = S2 / S1
            b = S1 / self.m
            return a - b, _TIE_REL * (a + b)
        q = S2 / (S1 * S1)
        return q, _TIE_REL * q

    def _score(self, s1, s2, t, q, e) -> None:
        """Surrogate q and tie margin e of candidate moments (s1, s2)."""
        if self.eq27:
            # Surrogate: eq27² = S2c/S1c − S1c/m, each term one rounding;
            # near-ties need an absolute window.
            np.divide(s2, s1, out=q)
            np.divide(s1, self.m, out=t)
            np.add(q, t, out=e)
            e *= _TIE_REL
            q -= t
        else:
            # Surrogate: CoV² = m·q − 1 with q = S2c/S1c², and S1c² is
            # exact, so q carries a single rounding.
            np.multiply(s1, s1, out=t)
            np.divide(s2, t, out=q)
            np.multiply(q, _TIE_REL, out=e)

    # ------------------------------------------------------------ the loop
    def run(self) -> list[list[list[int]]]:
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = np.flatnonzero(self.left).tolist()  # empty edges: no group
            self.open[rows] = True
            self.n_open = len(rows)
            if self.n_open >= _BULK_MIN_EDGES:  # seed every edge at once
                flat = self.base.copy()
                flat[rows] += self._reset(rows)
                # every adding edge is seeded: its surrogate is its seed's
                self._add(self.open.copy(), flat, self.q_cur, self.e_cur, rows)
            it = 0
            while self.n_open >= _BULK_MIN_EDGES:
                self._bulk_step()
                it += 1
                if not it % 16:
                    self._compact()
            # Edges never interact, so the last few finish one by one (an
            # edge that was never seeded opens its first group there).
            for r in self.open.nonzero()[0].tolist():
                self.advance(r, solo=True)
        return self.parts

    def _reset(self, rows: list[int]) -> np.ndarray:
        """Line 3 for each edge of ``rows``: empty its open group and draw
        the slot of the client that seeds the next one, from that edge's
        own generator. The caller adds the seed."""
        slots = []
        for r in rows:
            z = self.z[r]
            remaining = np.isfinite(z)
            pick = int(self.rngs[r].integers(self.left.item(r)))
            slots.append(int(remaining.nonzero()[0][pick]))
            np.copyto(z, self.rq[r], where=remaining)
            self.members[r] = []
        self.counts[rows] = 0.0
        self.S1[rows] = 0.0
        self.S2[rows] = 0.0
        self.size[rows] = 0
        return np.array(slots, dtype=np.int64)

    def _close(self, r: int) -> None:
        """Edge r ran out of clients: its open group is its last."""
        self.parts[r].append(self.members[r])
        self.open[r] = False
        self.n_open -= 1

    # ----------------------------------------------------- per-edge steps
    def advance(self, r: int, solo: bool = False) -> None:
        """Exact greedy steps of edge r alone — finalize check, score,
        near-tie rescore, accept — with its scalar state in locals: one
        step, or (``solo``) every step until the edge runs out of clients."""
        metric, mgs, qmax, qtol = self.metric, self.mgs, self.qmax, self.qtol
        X, rs, _, z, counts, s1, s2, t, q, e, g, near = self.rows[r]
        lid = self.lid[r]
        S1, S2 = self.S1.item(r), self.S2.item(r)
        q_cur, e_cur = self.q_cur.item(r), self.e_cur.item(r)
        size, left, members = self.size.item(r), self.left.item(r), self.members[r]
        steps = 0
        while True:
            accept = 0 < size < mgs  # below the anonymity floor: grow
            satisfied = not size  # no open group: seed one
            if not (accept or satisfied) and not math.isinf(q_cur):  # inf: empty counts
                # "cov > MaxCoV?" on the surrogate; only a boundary within
                # float noise needs the metric's own float.
                margin = e_cur + qtol
                satisfied = q_cur <= qmax - margin or (
                    q_cur <= qmax + margin and not metric(counts) > self.max_cov
                )
            if not satisfied:
                np.add(rs, S1, out=s1)  # candidate S1 = S1 + Σ_j L_ij (exact)
                np.add(z, S2, out=s2)  # candidate S2 = S2 + z_i (exact)
                self._score(s1, s2, t, q, e)
                if S1 == 0.0:
                    # S1c = 0 ⇒ 0/0 = NaN; the metric scores those inf.
                    np.nan_to_num(q, copy=False, nan=np.inf, posinf=np.inf)
                    np.nan_to_num(e, copy=False, nan=0.0, posinf=np.inf)
                b = int(q.argmin())
                q_b, e_b = q.item(b), e.item(b)
                thr = q_b + e_b
                if math.isinf(thr):  # every remaining candidate scores inf
                    np.logical_and(np.isfinite(z), np.isinf(q), out=near)
                else:
                    np.subtract(q, e, out=t)
                    np.less_equal(t, thr, out=near)
                best_cov = None  # metric float, computed lazily
                if int(np.count_nonzero(near)) > 1:
                    # Near-tie: let the metric decide, on exactly the float
                    # path `metric(counts + L[remaining])` takes.
                    wpos = np.flatnonzero(near)
                    scores = metric(counts + X[wpos])
                    j = int(np.argmin(scores))
                    b = int(wpos[j])
                    best_cov = float(scores[j])
                    q_b, e_b = self._surrogate(S1 + rs.item(b), S2 + z.item(b))
                elif math.isinf(thr):  # argmin may sit on a member's slot
                    b = int(np.flatnonzero(near)[0])
                    q_b, e_b = q.item(b), e.item(b)
                # Line 6: accept if it improves CoV, or if we are still
                # below the anonymity floor — decided on surrogates unless
                # the two scores are within float noise.
                if accept:
                    pass
                elif q_b < q_cur - (e_b + e_cur):
                    accept = True
                elif q_b < q_cur + (e_b + e_cur):
                    if best_cov is None:
                        best_cov = metric(counts + X[b])
                    accept = best_cov < metric(counts)
            if not accept:
                if size:  # Line 9: finalize
                    self.parts[r].append(members)
                # Line 3: the next group's seed is a random remaining client
                self.left[r] = left
                b = int(self._reset([r])[0])
                S1 = S2 = 0.0
                q_b, e_b = self._surrogate(rs.item(b), z.item(b))
                size, members = 0, self.members[r]
            S1 += rs.item(b)
            S2 += z.item(b)
            q_cur, e_cur = q_b, e_b
            row = X[b]
            np.matmul(X, row, out=g)
            z += g
            z += g
            z[b] = np.inf
            counts += row
            size += 1
            left -= 1
            members.append(lid.item(b))
            if not left:
                self.left[r] = 0
                self._close(r)
                return
            if not solo:
                self.S1[r], self.S2[r] = S1, S2
                self.q_cur[r], self.e_cur[r] = q_cur, e_cur
                self.size[r], self.left[r] = size, left
                return
            steps += 1
            if not steps % 16:
                self.left[r] = left
                if self._compact():
                    X, rs, _, z, counts, s1, s2, t, q, e, g, near = self.rows[r]
                    lid = self.lid[r]

    # ------------------------------------------------------- array steps
    def _bulk_step(self) -> None:
        """One iteration for every open edge: score all candidates in one
        pass; edges whose decision is certain on the surrogates add their
        winner or finalize and add the next group's seed (one batched GEMV
        for both), the rest take :meth:`advance`."""
        s1, s2, t, q, e = self.s1, self.s2, self.t, self.q, self.e
        S1, S2, q_cur, e_cur = self.S1, self.S2, self.q_cur, self.e_cur
        np.add(self.rs, S1[:, None], out=s1)
        np.add(self.z, S2[:, None], out=s2)
        self._score(s1, s2, t, q, e)
        if not S1.all():
            np.nan_to_num(q, copy=False, nan=np.inf, posinf=np.inf)
            np.nan_to_num(e, copy=False, nan=0.0, posinf=np.inf)
        flat = q.argmin(axis=1)
        flat += self.base
        qb = q.take(flat)
        eb = e.take(flat)
        # A second candidate inside the tie window, or a row of infs
        # (whose argmin may sit on a member's slot), goes to advance.
        np.subtract(q, e, out=t)
        t.put(flat, np.inf)
        untied = ~(np.fmin.reduce(t, axis=1) <= qb + eb) & (qb < np.inf)

        open_ = self.open
        grown = self.size >= self.mgs
        margin = e_cur + self.qtol
        finalize = open_ & grown & (q_cur <= self.qmax - margin)
        grow = open_ & untied & (~grown | np.isinf(q_cur) | ~(q_cur <= self.qmax + margin))
        m2 = eb + e_cur
        take = grow & (~grown | (qb < q_cur - m2))
        finalize |= grow & grown & ~(qb < q_cur + m2)
        slow = (open_ & ~(take | finalize)).nonzero()[0].tolist()

        ended = finalize.nonzero()[0].tolist()
        for r in ended:
            self.parts[r].append(self.members[r])
        flat[ended] = self.base[ended] + self._reset(ended)
        self._add(take | finalize, flat, qb, eb, ended)
        for r in slow:
            self.advance(r)

    def _add(self, take, flat, q_new, e_new, seeded: list[int]) -> None:
        """Add slot ``flat[r]`` (a flat block index) to the open group of
        every edge r with ``take[r]``; its surrogate becomes ``q_new[r]``,
        ``e_new[r]``, except on the ``seeded`` edges (just reset by
        :meth:`_reset`), whose surrogate is their seed's own."""
        S1, S2 = self.S1, self.S2
        np.add(S1, self.rs.take(flat), out=S1, where=take)
        np.add(S2, self.z.take(flat), out=S2, where=take)
        vec = self.Xflat.take(flat, axis=0)
        vec *= take[:, None]
        self.counts += vec
        np.matmul(self.X, vec[:, :, None], out=self.g[:, :, None])
        self.z += self.g
        self.z += self.g
        added = flat[take]
        self.z.put(added, np.inf)
        np.copyto(self.q_cur, q_new, where=take)
        np.copyto(self.e_cur, e_new, where=take)
        for r in seeded:
            self.q_cur[r], self.e_cur[r] = self._surrogate(S1.item(r), S2.item(r))
        self.size += take
        self.left -= take
        members = self.members
        for r, c in zip(take.nonzero()[0].tolist(), self.lid.take(added).tolist()):
            members[r].append(c)
        for r in (take & (self.left == 0)).nonzero()[0].tolist():
            self._close(r)

    def _compact(self) -> bool:
        """Drop member slots once every edge's remaining count has halved
        (True if it did): a stable gather keeps each edge's remaining
        clients in ascending order, so first-index ties are unchanged."""
        width = int(self.left.max())
        if self.w < 64 or 2 * width > self.w:
            return False
        keep = np.argsort(np.isinf(self.z), axis=1, kind="stable")[:, :width]
        self._set_block(
            np.take_along_axis(self.X, keep[:, :, None], axis=1),
            *(np.take_along_axis(a, keep, axis=1) for a in (self.rs, self.rq, self.z, self.lid)),
        )
        return True
