"""Vectorized batch routing of flow workloads over a backbone.

:func:`repro.cds.routing.route` answers one pair and rebuilds the head
graph every call; this module answers *batches* of thousands of flows by
sharing everything that is shareable:

* one :class:`~repro.cds.routing.HeadRouter` per backbone — the head
  adjacency built once, one Dijkstra tree per source head, one expanded
  walk per head sequence;
* member->head **legs** resolved once per distinct (member, head) pair
  and reused across every flow that enters or leaves that cluster;
* every missing leg of a batch resolved by one
  :meth:`~repro.net.paths.PathOracle.paths` call: roots without a
  resident row share :data:`~repro.net.oracle.BATCH_BITS`-root
  bit-packed sweeps that stop at the level of their deepest target.  A
  leg spans at most k hops and an intra-cluster pair at most 2k, so the
  sweeps stay that shallow instead of running full BFS rows, and they
  never enter the row cache;
* shortest-path distances for the whole batch answered by one
  :meth:`DistanceOracle.pair_distances` call (grouped batched rows on
  the lazy backend, O(|label|) joins on the landmark backend).

The produced :class:`RoutedFlows` carries every walk plus per-flow hop
counts, shortest distances and the traversed head sequences — exactly
what the load accounting (:mod:`repro.traffic.load`) needs.

Under churn, motion and growth, a changed backbone no longer forces a
cold router: :meth:`BatchRouter.inherit_edge_delta` carries the previous
router's Dijkstra trees, memoized head sequences and walks, and resolved
member<->head legs across any edge delta — a failure, a
snapshot or an arrival — under the same validity-checked contract
:meth:`LazyDistanceOracle.inherit_edge_delta` implements for rows and
balls, so the traffic-driven loops pay for a change only in proportion to
what it actually changed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> traffic)
    from ..faults.delivery import DeliveryReport

from ..cds.routing import HeadRouter
from ..core.pipeline import BackboneResult
from ..errors import InvalidParameterError
from ..net.oracle import DIST_DTYPE
from ..net.paths import PathOracle
from ..obs import publish_counters
from ..types import DistArray, FloatArray, NodeId, normalize_edge
from .workloads import Workload

__all__ = ["RoutedFlows", "BatchRouter"]


@dataclass(frozen=True)
class RoutedFlows:
    """The routed form of one workload batch.

    Attributes:
        workload: the routed workload (arrays parallel to the lists here).
        walks: per-flow node walks (source .. target, inclusive).
        hops: per-flow walk lengths in hops (DIST_DTYPE).
        shortest: per-flow shortest-path hop distances (DIST_DTYPE; empty
            when routed with ``with_shortest=False``).
        head_paths: per-flow traversed head sequence (empty tuple for
            intra-cluster flows) — the virtual-link utilization record.
        outcome: per-flow :class:`~repro.faults.delivery.FlowOutcome`
            values (int8) once a lossy delivery ran; None in the default
            binary world (every routed flow counts as delivered).
        attempts: per-flow transmission attempts (parallel to
            ``outcome``); None before a lossy delivery.
        valid: per-flow validity bits — False marks a stale/placeholder
            walk that must not be trusted (degraded mode routes only
            same-component flows and flags the rest); None when every
            walk is a real route on the current backbone.
    """

    workload: Workload
    walks: list[tuple[NodeId, ...]]
    hops: DistArray
    shortest: DistArray
    head_paths: list[tuple[NodeId, ...]]
    outcome: Optional[np.ndarray] = None
    attempts: Optional[np.ndarray] = None
    valid: Optional[np.ndarray] = None

    @property
    def num_flows(self) -> int:
        """Number of routed flows."""
        return len(self.walks)

    @property
    def num_valid(self) -> int:
        """Flows whose walks are real routes (all of them when ``valid`` is None)."""
        if self.valid is None:
            return self.num_flows
        return int(np.count_nonzero(np.asarray(self.valid, dtype=bool)))

    def with_delivery(self, report: "DeliveryReport") -> "RoutedFlows":
        """Copy of the batch annotated with a lossy delivery's outcomes."""
        if report.num_flows != self.num_flows:
            raise InvalidParameterError(
                f"delivery report covers {report.num_flows} flows, "
                f"batch has {self.num_flows}"
            )
        return replace(
            self, outcome=report.outcome, attempts=report.attempts
        )

    def delivered_fraction(self) -> float:
        """Demand-weighted fraction of offered packets delivered.

        Flows flagged invalid (degraded-mode placeholders — no viable
        route) always count as *undelivered*: a degraded batch with no
        lossy delivery reports the routable share, never 1.0.  On top of
        that, the binary world (no ``outcome`` recorded) delivers every
        valid flow; the lossy world delivers what the delivery engine
        says it delivered — masked by validity, so a placeholder walk
        trivially surviving its zero hops still does not count.
        """
        demands = self.workload.demands
        offered = int(demands.sum())
        if offered == 0:
            return 1.0
        if self.outcome is None:
            delivered = np.ones(self.num_flows, dtype=bool)
        else:
            delivered = self.outcome == 0
        if self.valid is not None:
            delivered = delivered & np.asarray(self.valid, dtype=bool)
        return float(demands[delivered].sum()) / offered

    def stretches(self) -> FloatArray:
        """Per-valid-flow stretch (walk hops / shortest hops), float64.

        Invalid flows (degraded-mode placeholder walks, whose hop count
        and shortest distance are both meaningless) are excluded, so the
        returned array has ``num_valid`` entries.
        """
        if self.shortest.size != self.hops.size:
            raise InvalidParameterError(
                "stretches need shortest distances; route with "
                "with_shortest=True"
            )
        ratios = self.hops / np.maximum(self.shortest, 1)
        if self.valid is not None:
            return ratios[np.asarray(self.valid, dtype=bool)]
        return ratios


class BatchRouter:
    """Routes workload batches over one backbone with shared caches.

    Args:
        result: the backbone to route over.
        oracle: optional shared canonical-path oracle (created if omitted).
    """

    def __init__(
        self, result: BackboneResult, oracle: PathOracle | None = None
    ) -> None:
        self._result = result
        self._graph = result.clustering.graph
        # Not `or`: an empty shared oracle (falsy via __len__) must still
        # be adopted, e.g. the mobility loop's freshly inherited one.
        self._oracle = oracle if oracle is not None else PathOracle(self._graph)
        self._router = HeadRouter(result)
        self._head_of = np.asarray(result.clustering.head_of, dtype=np.int64)
        #: Counters from the most recent ``balance=True`` routing pass
        #: (groups / candidates / moves / flows_rerouted); empty before one.
        self.last_balance: dict[str, int] = {}

    @property
    def result(self) -> BackboneResult:
        """The backbone this router serves."""
        return self._result

    @property
    def router(self) -> HeadRouter:
        """The shared head-graph router (Dijkstra trees, head walks)."""
        return self._router

    @property
    def path_oracle(self) -> PathOracle:
        """The canonical-path oracle holding the resolved legs."""
        return self._oracle

    def inherit_edge_delta(
        self, old: "BatchRouter", touched: Iterable[NodeId] = ()
    ) -> dict[str, int]:
        """Carry ``old``'s caches across any structural change.

        Call on a freshly built router for the changed backbone.
        ``touched`` holds an endpoint of every changed edge — the removed
        node after a failure, the snapshot endpoints after a mobility
        delta (their union when snapshots were composed), nothing after
        a pure arrival (new nodes are implied).  The head-graph state
        (Dijkstra trees, head sequences, expanded walks) inherits through
        the structural certificates of
        :meth:`~repro.cds.routing.HeadRouter.inherit_from`; resolved
        member<->head legs inherit through
        :meth:`~repro.net.paths.PathOracle.inherit_edge_delta` — unless
        this router's oracle is ``old``'s, or was already seeded by an
        earlier inheritance (the mobility loop inherits the shared path
        oracle *before* ``build_backbone`` so the virtual links benefit
        too), in which case the legs are left alone.

        Returns the combined counter dict; ``head_graph_unchanged`` is 1
        when the whole head-routing layer survived (a full router rebuild
        avoided).
        """
        stats = self._router.inherit_from(old._router)
        if self._oracle is old._oracle or self._oracle.paths_inherited:
            stats["legs"] = 0
        else:
            stats["legs"] = self._oracle.inherit_edge_delta(
                old._oracle, touched
            )
        return stats

    def admit_member(
        self, result: BackboneResult, oracle: PathOracle
    ) -> None:
        """Rebind to a member-arrival backbone in place, keeping all caches.

        A member join leaves the CDS stage untouched: ``result`` is the
        served backbone with only ``clustering`` replaced, so the whole
        head-routing layer (Dijkstra trees, head sequences, expanded
        walks) stays exact verbatim via
        :meth:`~repro.cds.routing.HeadRouter.rebind` — no verification,
        no copying.  ``oracle`` is the grown graph's resolved-leg oracle
        (typically fresh: legs re-resolve canonically on demand, which
        costs one row sweep at the next batch instead of an O(cache)
        verification pass at *every* arrival — the difference between
        O(n) and O(n^2) total growth cost).

        Raises:
            InvalidParameterError: via :meth:`HeadRouter.rebind` when
                ``result`` does not share this router's head-graph
                objects (a changed head set must rebuild and inherit).
        """
        self._router.rebind(result)
        self._result = result
        self._graph = result.clustering.graph
        self._oracle = oracle
        self._head_of = np.asarray(result.clustering.head_of, dtype=np.int64)

    def route(self, source: NodeId, target: NodeId) -> tuple[NodeId, ...]:
        """One flow's walk, sharing this router's caches."""
        return self._router.walk(self._oracle, source, target)

    def route_flows(
        self,
        workload: Workload,
        *,
        with_shortest: bool = True,
        balance: bool = False,
        balance_seed: int = 7,
    ) -> RoutedFlows:
        """Route every flow of ``workload``; returns the full batch.

        Args:
            workload: the flow batch (endpoints must be graph nodes).
            with_shortest: also resolve each flow's shortest-path
                distance (one bulk ``pair_distances`` query) so stretch
                is measurable; skip for pure load studies.
            balance: spread inter-cluster flows across up to
                ``_BALANCE_K_PATHS`` candidate head walks per head pair
                (seeded equal-cost tie-break variants plus Yen
                k-shortest, weight-bounded by ``_BALANCE_STRETCH_BOUND``)
                via iterative load-aware reroutes of the heaviest virtual
                links — see :meth:`_balance`.  Off by default: every flow
                takes the canonical walk.
            balance_seed: seeds the tie-break variants; ignored unless
                ``balance``.
        """
        n = self._graph.n
        if workload.n != n:
            raise InvalidParameterError(
                f"workload addresses {workload.n} nodes, graph has {n}"
            )
        src = workload.sources
        dst = workload.targets
        hs = self._head_of[src]
        ht = self._head_of[dst]
        intra = hs == ht

        # Distinct member<->head legs (and intra-cluster pairs), unordered.
        pairs: set[tuple[int, int]] = set()
        for s, t, a, b, same in zip(
            src.tolist(), dst.tolist(), hs.tolist(), ht.tolist(), intra.tolist()
        ):
            if same:
                pairs.add(normalize_edge(s, t))
            else:
                if s != a:
                    pairs.add(normalize_edge(s, a))
                if t != b:
                    pairs.add(normalize_edge(b, t))
        legs = self._oracle.paths(pairs)

        def leg(u: int, v: int) -> tuple[NodeId, ...]:
            if u == v:
                return (u,)
            stored = legs[normalize_edge(u, v)]
            return stored if stored[0] == u else tuple(reversed(stored))

        router = self._router
        seq_of: dict[int, tuple[NodeId, ...]] | None = None
        if balance:
            # The candidate-independent ("fixed") per-node load: member
            # legs and intra-cluster walks, charged exactly as the load
            # accounting will charge them (2·demand per appearance, the
            # walk's two endpoints at demand).  Seeding the optimizer
            # with it makes the sum-of-squares deltas track the *true*
            # node loads, so traffic flows toward genuinely cold CDS
            # nodes instead of nominally empty ones.
            fixed = np.zeros(n, dtype=np.float64)
            dems = workload.demands.astype(np.float64)
            for i, (s, t, a, b, same) in enumerate(
                zip(
                    src.tolist(),
                    dst.tolist(),
                    hs.tolist(),
                    ht.tolist(),
                    intra.tolist(),
                )
            ):
                d = dems[i]
                if same:
                    for u in leg(s, t):
                        fixed[u] += 2.0 * d
                else:
                    for u in leg(s, a)[:-1]:
                        fixed[u] += 2.0 * d
                    for u in leg(b, t)[1:]:
                        fixed[u] += 2.0 * d
                fixed[s] -= d
                fixed[t] -= d
            seq_of = self._balance(
                hs,
                ht,
                intra,
                workload.demands,
                fixed,
                seed=balance_seed,
            )
        walks: list[tuple[NodeId, ...]] = []
        head_paths: list[tuple[NodeId, ...]] = []
        for i, (s, t, a, b, same) in enumerate(
            zip(
                src.tolist(),
                dst.tolist(),
                hs.tolist(),
                ht.tolist(),
                intra.tolist(),
            )
        ):
            if same:
                walks.append(leg(s, t))
                head_paths.append(())
                continue
            seq = router.head_sequence(a, b) if seq_of is None else seq_of[i]
            walk = list(leg(s, a))
            walk.extend(router.walk_for_seq(seq)[1:])
            walk.extend(leg(b, t)[1:])
            walks.append(tuple(walk))
            head_paths.append(seq)

        hops = np.fromiter(
            (len(w) - 1 for w in walks), dtype=DIST_DTYPE, count=len(walks)
        )
        if with_shortest:
            norm = [
                normalize_edge(u, v) for u, v in zip(src.tolist(), dst.tolist())
            ]
            shortest = self._graph.oracle.pair_distances(norm)
        else:
            shortest = np.zeros(0, dtype=DIST_DTYPE)
        return RoutedFlows(
            workload=workload,
            walks=walks,
            hops=hops,
            shortest=shortest,
            head_paths=head_paths,
        )

    #: Hottest links examined per balance iteration before declaring
    #: convergence — links colder than the top this-many never reroute.
    _BALANCE_SCAN_LINKS = 32
    #: Candidate head walks per head pair in balance mode.
    _BALANCE_K_PATHS = 4
    #: Seeded equal-cost tie-break variants tried per head pair.
    _BALANCE_TIE_VARIANTS = 3
    #: Cap on a Yen detour's weight, as a multiple of the canonical walk's.
    _BALANCE_STRETCH_BOUND = 1.5
    #: Budget of hot-link reroutes in the last balance phase.
    _BALANCE_MAX_MOVES = 512

    def _balance(
        self,
        hs: np.ndarray,
        ht: np.ndarray,
        intra: np.ndarray,
        demands: np.ndarray,
        fixed: np.ndarray,
        *,
        seed: int,
    ) -> dict[int, tuple[NodeId, ...]]:
        """Assign every inter-cluster flow a head sequence, load-aware.

        Flows are grouped by ordered head pair; each group gets up to
        ``_BALANCE_K_PATHS`` candidate backbone walks — the canonical shortest
        sequence, seeded equal-cost tie-break variants (zero stretch
        cost, one shared Dijkstra tree per variant and source head), and
        Yen k-shortest detours (weight-capped at ``_BALANCE_STRETCH_BOUND``
        times the canonical weight) only when equal-cost diversity runs
        out.
        The objective throughout is the **sum of squared per-node loads**
        over the whole graph, seeded with the candidate-independent
        ``fixed`` loads: totals are (nearly) constant across assignments,
        so a smaller sum of squares is exactly a larger Jain fairness
        index over the loaded backbone.

        Three phases, all deterministic (sorted iteration everywhere; the
        only randomness is the seeded tie-break permutation):

        1. **greedy water-filling** — flows in descending demand order
           each take the candidate with the smallest incremental
           sum-of-squares (one gather + dot product per candidate);
        2. **refinement sweeps** — each flow is removed and re-placed
           against current loads (first-fit-decreasing style polish);
        3. **hot-link reroutes** — repeatedly take the most loaded
           virtual link and move the first crossing flow whose switch to
           a candidate avoiding that link strictly lowers the objective;
           bounded by ``_BALANCE_MAX_MOVES`` and monotone in the
           objective, so it cannot cycle.

        Returns a map from flow index to its chosen head sequence (every
        inter-cluster flow is present).
        """
        router = self._router
        n = self._graph.n
        out: dict[int, tuple[NodeId, ...]] = {}
        idx = np.flatnonzero(~intra)
        stats = {
            "groups": 0,
            "candidates": 0,
            "moves": 0,
            "flows_rerouted": 0,
        }
        if idx.size == 0:
            self.last_balance = stats
            return out
        codes = hs[idx].astype(np.int64) * np.int64(n) + ht[idx].astype(
            np.int64
        )
        uniq, inverse = np.unique(codes, return_inverse=True)
        pair_of = [(int(c // n), int(c % n)) for c in uniq.tolist()]
        group_of = dict(zip(idx.tolist(), inverse.tolist()))

        # Candidate records, shared across groups by sequence:
        # (unique walk nodes, appearance counts, normalized links,
        # sum of squared counts).
        rec_cache: dict[tuple[NodeId, ...], tuple] = {}

        def record(seq: tuple[NodeId, ...]) -> tuple:
            rec = rec_cache.get(seq)
            if rec is None:
                walk = np.asarray(router.walk_for_seq(seq), dtype=np.int64)
                un, cnt = np.unique(walk, return_counts=True)
                cnt = cnt.astype(np.float64)
                links = tuple(
                    sorted(
                        normalize_edge(x, y) for x, y in zip(seq, seq[1:])
                    )
                )
                rec = (un, cnt, links, float(cnt @ cnt))
                rec_cache[seq] = rec
            return rec

        k_paths = self._BALANCE_K_PATHS
        cand_seqs: list[list[tuple[NodeId, ...]]] = []
        cand_recs: list[list[tuple]] = []
        for a, b in pair_of:
            seqs = [router.head_sequence(a, b)]
            for v in range(1, self._BALANCE_TIE_VARIANTS + 1):
                if len(seqs) >= k_paths:
                    break
                alt = router.alt_sequence(a, b, seed + v)
                if alt not in seqs:
                    seqs.append(alt)
            if len(seqs) < min(3, k_paths):
                # Equal-cost diversity ran out: only strictly longer
                # detours can diversify, so pay for Yen — weight-capped,
                # which keeps every spur search local to the pair.
                bound = self._BALANCE_STRETCH_BOUND * max(
                    router.seq_weight(seqs[0]), 1
                )
                for seq_k in router.k_shortest_sequences(
                    a, b, k_paths, max_weight=bound
                ):
                    if len(seqs) >= k_paths:
                        break
                    if seq_k not in seqs:
                        seqs.append(seq_k)
            cand_seqs.append(seqs)
            cand_recs.append([record(s) for s in seqs])

        node_load = fixed.astype(np.float64, copy=True)
        link_load: dict[tuple[int, int], float] = {}

        def add(rec: tuple, d: float) -> None:
            node_load[rec[0]] += 2.0 * d * rec[1]
            for e in rec[2]:
                link_load[e] = link_load.get(e, 0.0) + d

        def remove(rec: tuple, d: float) -> None:
            node_load[rec[0]] -= 2.0 * d * rec[1]
            for e in rec[2]:
                link_load[e] -= d

        def best_candidate(g: int, d: float) -> int:
            # argmin over candidates of the incremental sum-of-squares
            # Σ (x + 2dc)² - x² = 4d·(x@c) + 4d²·(c@c); ties keep the
            # earliest candidate (the canonical walk is index 0).
            recs = cand_recs[g]
            best_ci = 0
            best_delta = float("inf")
            for ci, rec in enumerate(recs):
                delta = 4.0 * d * float(node_load[rec[0]] @ rec[1]) + (
                    4.0 * d * d * rec[3]
                )
                if delta < best_delta - 1e-9:
                    best_delta = delta
                    best_ci = ci
            return best_ci

        # Phase 1+2: greedy water-filling in descending demand order,
        # then remove-and-replace refinement sweeps in the same order.
        dems = demands.astype(np.float64)
        order = sorted(idx.tolist(), key=lambda f: (-dems[f], f))
        assign: dict[int, int] = {}
        for flow in order:
            g = group_of[flow]
            ci = best_candidate(g, dems[flow])
            assign[flow] = ci
            add(cand_recs[g][ci], dems[flow])
        for _sweep in range(2):
            changed = 0
            for flow in order:
                g = group_of[flow]
                d = dems[flow]
                remove(cand_recs[g][assign[flow]], d)
                ci = best_candidate(g, d)
                if ci != assign[flow]:
                    changed += 1
                    assign[flow] = ci
                add(cand_recs[g][ci], d)
            if changed == 0:
                break

        # Phase 3: reroutes of the heaviest links.  Lazy max-heap over
        # link loads; on the hottest link, move the first crossing flow
        # whose switch to a hot-link-avoiding candidate strictly lowers
        # the objective.
        flows_on: dict[tuple[int, int], list[int]] = {}
        for flow in order:
            g = group_of[flow]
            for e in cand_recs[g][assign[flow]][2]:
                flows_on.setdefault(e, []).append(flow)

        def find_move(e: tuple[int, int]) -> tuple[int, int] | None:
            for flow in flows_on.get(e, ()):
                g = group_of[flow]
                ci = assign[flow]
                if e not in cand_recs[g][ci][2]:
                    continue  # stale membership: flow moved off e already
                d = dems[flow]
                remove(cand_recs[g][ci], d)
                best_cj = -1
                best_delta = -1e-9
                x0 = 4.0 * d * float(
                    node_load[cand_recs[g][ci][0]] @ cand_recs[g][ci][1]
                ) + 4.0 * d * d * cand_recs[g][ci][3]
                for cj, rec in enumerate(cand_recs[g]):
                    if cj == ci or e in rec[2]:
                        continue
                    delta = (
                        4.0 * d * float(node_load[rec[0]] @ rec[1])
                        + 4.0 * d * d * rec[3]
                        - x0
                    )
                    if delta < best_delta:
                        best_delta = delta
                        best_cj = cj
                add(cand_recs[g][ci], d)
                if best_cj >= 0:
                    return flow, best_cj
            return None

        heap = [(-load, e) for e, load in sorted(link_load.items())]
        heapq.heapify(heap)
        moves = 0
        while moves < self._BALANCE_MAX_MOVES:
            popped: list[tuple[float, tuple[int, int]]] = []
            move = None
            while heap and len(popped) < self._BALANCE_SCAN_LINKS:
                neg, e = heapq.heappop(heap)
                cur = link_load.get(e, 0.0)
                if cur <= 0.0 or -neg != cur:
                    continue  # stale entry; the fresh one is still queued
                popped.append((neg, e))
                move = find_move(e)
                if move is not None:
                    break
            for item in popped:
                heapq.heappush(heap, item)
            if move is None:
                break
            flow, cj = move
            g = group_of[flow]
            d = dems[flow]
            old_rec = cand_recs[g][assign[flow]]
            remove(old_rec, d)
            assign[flow] = cj
            rec = cand_recs[g][cj]
            add(rec, d)
            for e2 in rec[2]:
                flows_on.setdefault(e2, []).append(flow)
            for e2 in old_rec[2] + rec[2]:
                heapq.heappush(heap, (-link_load[e2], e2))
            moves += 1

        rerouted = 0
        for flow in idx.tolist():
            ci = assign[flow]
            if ci > 0:
                rerouted += 1
            out[flow] = cand_seqs[group_of[flow]][ci]
        stats.update(
            groups=len(pair_of),
            candidates=sum(len(c) for c in cand_seqs),
            moves=moves,
            flows_rerouted=rerouted,
        )
        self.last_balance = stats
        publish_counters("traffic.balance", stats)
        return out
