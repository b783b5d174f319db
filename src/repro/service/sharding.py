"""`ShardedProtectionService`: scatter-gather serving over K target shards.

Phase 1 of the paper's protection removes *every* sensitive link, and each
target's motif instances are then enumerated independently on that shared
phase-1 graph — so the target set partitions cleanly: shard the targets,
give each shard its own sub-index plus pristine coverage state, and the
whole session's similarity is the sum of the shards'.  That is the entire
semantic content of this module; everything else is routing.

* **Assignment** is ``edge_sort_key``-stable: targets are put in the
  library-wide canonical order first, then dealt round-robin
  (``sorted_targets[i::K]`` is shard ``i``), so the layout is invariant
  under permutation and insertion order of the input target list (pinned
  by the property suite).
* **Construction** filters targets *before* enumeration: phase 1 runs
  once (one graph copy, one freeze) into a
  :class:`~repro.core.model.Phase1Substrate`, and every shard is built on
  it through :meth:`ProtectionService.for_filtered_targets` — so a shard
  never enumerates a non-shard target, and its phase-1 graph *is* the
  unsharded session's, shared rather than copied.  All shards share one
  dissimilarity constant
  ``C`` (by default the combined initial similarity), so per-shard
  dissimilarity traces sum to the whole session's.
* **Routing**: a request whose targets live on one shard is forwarded
  verbatim — its answer is bit-identical to the unsharded session's
  answer for the same subset, for every method, engine and budget
  division (same problem, same arrays; pinned by the differential suite).
* **Scatter-gather**: a cross-shard request is split deterministically —
  an explicit budget division is restricted per shard; otherwise the
  budget is apportioned over the requested targets proportionally to
  their initial similarities (largest-remainder, capped) — and the
  per-shard answers merge deterministically: protectors concatenate in
  shard order with keep-first dedup, and the exact similarity trace is
  recovered by having *every* shard replay the full merged sequence on a
  pristine state copy (:meth:`ProtectionService.evaluate_trace`) and
  summing element-wise.  Any shard failure aborts the whole request with
  a typed :class:`~repro.exceptions.ShardError` — no partial merge.

Typical usage::

    from repro.service import ProtectionRequest, ShardedProtectionService

    service = ShardedProtectionService(graph, targets, motif="triangle",
                                       shards=3)
    result = service.solve(ProtectionRequest("SGB-Greedy", budget=40))
    result.extra["service"]["shards"]  # routing metadata
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.budget import proportional_allocation
from repro.core.model import Phase1Substrate, ProtectionResult, TPPProblem
from repro.core.selection import Stopwatch
from repro.exceptions import (
    BudgetError,
    ConstantError,
    DeltaError,
    ExperimentError,
    ShardError,
    SnapshotMismatchError,
)
from repro.graphs.graph import Edge, Graph, canonical_edge, edge_sort_key
from repro.graphs.indexed import IndexedGraph
from repro.motifs.base import MotifPattern, coerce_motif
from repro.motifs.enumeration import TargetSubgraphIndex
from repro.service.requests import ProtectionRequest
from repro.service.service import ProtectionService

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.motifs.updates import DeltaOutcome, EdgeDelta

__all__ = [
    "ShardDeltaOutcome",
    "ShardedProtectionService",
    "shard_assignment",
    "shards_from_env",
]

#: Fan-out modes accepted by :meth:`ShardedProtectionService.solve_many`.
_MODES = ("thread", "process")

#: Environment variable read by :func:`shards_from_env`.
_SHARDS_ENV = "REPRO_SHARDS"


def shards_from_env(default: int = 1) -> int:
    """Return the shard count configured via ``REPRO_SHARDS``.

    An unset or empty variable returns ``default``; a non-integer or
    non-positive value raises :class:`~repro.exceptions.ShardError` (a
    typo in deployment config must not silently serve unsharded).  This
    is the default for the :class:`ShardedProtectionService` constructor
    and for ``repro-tpp serve --shards``, which is what lets CI run the
    whole service/server suite sharded by exporting one variable.
    """
    raw = os.environ.get(_SHARDS_ENV, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ShardError(
            f"{_SHARDS_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ShardError(f"{_SHARDS_ENV} must be >= 1, got {value}")
    return value


def shard_assignment(
    targets: Sequence[Edge], shards: int
) -> Tuple[Tuple[Edge, ...], ...]:
    """Partition ``targets`` into at most ``shards`` stable shards.

    Targets are canonicalised and put in :func:`edge_sort_key` order, then
    dealt round-robin: shard ``i`` is ``sorted_targets[i::K]`` with
    ``K = min(shards, len(targets))``.  Sorting first makes the layout a
    pure function of the target *set* — permutation- and insertion-order
    invariant — and the round-robin deal keeps shard sizes within one of
    each other.  Duplicate targets and ``shards < 1`` raise
    :class:`~repro.exceptions.ShardError`.
    """
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}")
    ordered = sorted(
        (canonical_edge(*target) for target in targets), key=edge_sort_key
    )
    if len(set(ordered)) != len(ordered):
        raise ShardError(f"targets contain duplicate links: {ordered!r}")
    if not ordered:
        raise ShardError("the target set must not be empty")
    count = min(shards, len(ordered))
    return tuple(tuple(ordered[start::count]) for start in range(count))


def _build_shard_index(
    indexed_graph: IndexedGraph,
    shard_targets: Tuple[Edge, ...],
    motif: MotifPattern,
) -> TargetSubgraphIndex:
    """Enumerate one shard's sub-index on the shared frozen phase-1 graph.

    The single sanctioned direct :class:`TargetSubgraphIndex` construction
    site in the service layer (reprolint R8): building here — on the
    phase-1 substrate the constructor froze *once*, with only the shard's
    targets — is what guarantees a shard never enumerates a non-shard
    target and all shards share one phase-1 edge set.
    """
    return TargetSubgraphIndex(indexed_graph, shard_targets, motif)


@dataclass(frozen=True)
class ShardDeltaOutcome:
    """What a sharded :meth:`~ShardedProtectionService.apply_delta` did.

    Attributes
    ----------
    outcomes:
        One :class:`~repro.motifs.updates.DeltaOutcome` per shard, in
        shard order.  Every shard applies the delta to its index, but the
        shared phase-1 graph is spliced once, and only the touched shards
        pay re-enumeration.
    touched_shards:
        Indexes of the shards whose target instance sets actually changed
        (the shard-aware hot-reload surfaces these).
    changed_targets:
        Union of the per-shard changed targets, in canonical order.
    constant:
        The (possibly auto-bumped) dissimilarity constant shared by all
        shards after the update.
    """

    outcomes: Tuple["DeltaOutcome", ...]
    touched_shards: Tuple[int, ...]
    changed_targets: Tuple[Edge, ...]
    constant: int


@dataclass
class _Scatter:
    """One cross-shard request's plan: per-shard pieces and budgets."""

    routed: List[int]
    pieces: Dict[int, Tuple[Edge, ...]]
    budgets: Dict[int, int]
    divisions: Dict[int, object] = field(default_factory=dict)


class ShardedProtectionService:
    """K shard sub-sessions behind one `ProtectionService`-shaped front.

    Parameters
    ----------
    graph_or_problem:
        Either a prepared :class:`~repro.core.model.TPPProblem` (its
        graph, targets, motif and constant are adopted) or the original
        social graph, in which case ``targets`` is required.
    targets / motif / constant:
        As in :class:`~repro.service.ProtectionService`; ``constant``
        defaults to the *combined* initial similarity of all shards, so
        dissimilarity starts at zero exactly like an unsharded session.
    shards:
        The shard count ``K``.  ``None`` reads ``REPRO_SHARDS`` (default
        1); the effective count is clamped to ``min(K, len(targets))`` so
        no shard is ever empty.
    max_cached_subsets / kernel:
        Forwarded to every shard sub-session.

    A sharded session serves the same :meth:`solve` / :meth:`solve_many`
    / :meth:`apply_delta` surface as the unsharded service; results carry
    the extra routing block ``extra["service"]["shards"]``.
    """

    def __init__(
        self,
        graph_or_problem: Union[Graph, TPPProblem],
        targets: Optional[Sequence[Edge]] = None,
        motif: Union[str, MotifPattern] = "triangle",
        constant: Optional[int] = None,
        shards: Optional[int] = None,
        max_cached_subsets: Optional[int] = 32,
        kernel: Optional[str] = None,
    ) -> None:
        stopwatch = Stopwatch()
        if isinstance(graph_or_problem, TPPProblem):
            problem: Optional[TPPProblem] = graph_or_problem
            targets = graph_or_problem.targets
            motif_pattern = graph_or_problem.motif
            if constant is None:
                constant = graph_or_problem.constant
        else:
            problem = None
            if targets is None:
                raise ExperimentError(
                    "ShardedProtectionService needs the target links when "
                    "built from a graph"
                )
            motif_pattern = coerce_motif(motif)
        count = shards if shards is not None else shards_from_env()
        assignment = shard_assignment(targets, count)
        # phase 1 runs once and every shard enumerates on the one frozen
        # result — all shards see the identical edge set with *all*
        # targets hidden, which is what makes per-shard similarities sum
        # to the unsharded session's
        substrate = (
            problem.substrate()
            if problem is not None
            else Phase1Substrate.hide(graph_or_problem, targets)
        )
        indexes = [
            _build_shard_index(substrate.indexed_graph, piece, motif_pattern)
            for piece in assignment
        ]
        combined_initial = sum(
            index.initial_total_similarity() for index in indexes
        )
        if constant is None:
            constant = combined_initial
        elif constant < combined_initial:
            raise ConstantError(
                f"constant C={constant} must be >= the combined initial "
                f"similarity {combined_initial}"
            )
        self._kernel_request = kernel
        self._max_cached_subsets = max_cached_subsets
        shard_services = [
            ProtectionService.for_filtered_targets(
                substrate,
                piece,
                motif=motif_pattern,
                constant=constant,
                index=index,
                max_cached_subsets=max_cached_subsets,
                kernel=kernel,
            )
            for piece, index in zip(assignment, indexes)
        ]
        self._finish(shard_services, "built", stopwatch.elapsed(), 0)

    def _finish(
        self,
        shard_services: Sequence[ProtectionService],
        index_source: str,
        build_seconds: float,
        deltas_applied: int,
    ) -> None:
        """Validate a shard layout and wire up the session state."""
        if not shard_services:
            raise ShardError("a sharded session needs at least one shard")
        motif_name = shard_services[0].problem.motif.name
        constant = shard_services[0].problem.constant
        for position, shard in enumerate(shard_services):
            if shard.problem.motif.name != motif_name:
                raise ShardError(
                    f"shard {position} motif {shard.problem.motif.name!r} "
                    f"differs from shard 0's {motif_name!r}",
                    shard=position,
                )
            if shard.problem.constant != constant:
                raise ShardError(
                    f"shard {position} constant {shard.problem.constant} "
                    f"differs from shard 0's {constant}",
                    shard=position,
                )
        self._shards: Tuple[ProtectionService, ...] = tuple(shard_services)
        self._assignment: Tuple[Tuple[Edge, ...], ...] = tuple(
            shard.targets for shard in self._shards
        )
        self._shard_of: Dict[Edge, int] = {}
        for position, piece in enumerate(self._assignment):
            for target in piece:
                if target in self._shard_of:
                    raise ShardError(
                        f"target {target!r} is assigned to shards "
                        f"{self._shard_of[target]} and {position}",
                        shard=position,
                    )
                self._shard_of[target] = position
        self._targets: Tuple[Edge, ...] = tuple(
            sorted(self._shard_of, key=edge_sort_key)
        )
        self._lock = threading.Lock()
        #: Serialises writers, exactly like the unsharded service: one
        #: delta application at a time across *all* shards.
        self._delta_lock = threading.Lock()
        self._build_seconds = build_seconds
        # taken here (not just declared) because _finish also runs for
        # sessions assembled outside __init__ (bundle restore, workers)
        with self._lock:
            self._queries_served = 0  # reprolint: guarded-by(_lock)
            self._deltas_applied = deltas_applied  # reprolint: guarded-by(_lock)
            self._index_source = index_source  # reprolint: guarded-by(_lock)
            self._content_hash: Optional[str] = None  # reprolint: guarded-by(_lock)

    @classmethod
    def _from_problems(
        cls,
        problems: Sequence[TPPProblem],
        max_cached_subsets: Optional[int] = 32,
        kernel: Optional[str] = None,
        index_source: str = "built",
        deltas_applied: int = 0,
    ) -> "ShardedProtectionService":
        """Assemble a sharded session from per-shard problems.

        Used by the process-pool fan-out (each worker rebuilds the shards
        from the pickled problems, whose indexes travel along) and by the
        bundle restore path; the problems must already carry built indexes
        or the shards re-enumerate.
        """
        service = cls.__new__(cls)
        service._kernel_request = kernel
        service._max_cached_subsets = max_cached_subsets
        shard_services = []
        for problem in problems:
            shard = ProtectionService(
                problem,
                max_cached_subsets=max_cached_subsets,
                kernel=kernel,
            )
            shard._index_source = index_source
            shard._deltas_applied = deltas_applied
            shard_services.append(shard)
        service._finish(shard_services, index_source, 0.0, deltas_applied)
        return service

    @classmethod
    def from_session(
        cls,
        path: Union[str, Path],
        allow_pickle: bool = True,
        max_cached_subsets: Optional[int] = 32,
        kernel: Optional[str] = None,
    ) -> "ShardedProtectionService":
        """Cold-start a sharded session from a ``.tppshards`` bundle.

        Delegates to :func:`repro.persistence.load_sharded_session`; the
        restored session reports ``index_source: "snapshot"`` and its
        traces are byte-identical to the saved session's.
        """
        from repro.persistence.shards import load_sharded_session

        service = load_sharded_session(
            path,
            allow_pickle=allow_pickle,
            max_cached_subsets=max_cached_subsets,
            kernel=kernel,
        )
        assert isinstance(service, ShardedProtectionService)
        return service

    def save_session(self, path: Union[str, Path]) -> Path:
        """Write this sharded session as a ``.tppshards`` bundle — one
        snapshot member per shard plus a shard manifest, so a replica can
        cold-start the whole session *or* any single shard (see
        :func:`repro.persistence.save_sharded_session`)."""
        from repro.persistence.shards import save_sharded_session

        return save_sharded_session(path, self)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def shards(self) -> Tuple[ProtectionService, ...]:
        """The per-shard sub-sessions, in shard order."""
        return self._shards

    @property
    def shard_count(self) -> int:
        """The effective shard count ``K`` (after clamping)."""
        return len(self._shards)

    @property
    def assignment(self) -> Tuple[Tuple[Edge, ...], ...]:
        """Each shard's targets, in shard order (each piece sorted)."""
        return self._assignment

    def shard_of(self, target: Edge) -> int:
        """Return the shard index owning ``target``."""
        edge = canonical_edge(*target)
        try:
            return self._shard_of[edge]
        except KeyError:
            raise ShardError(
                f"target {edge!r} is not a target of this session"
            ) from None

    @property
    def targets(self) -> Tuple[Edge, ...]:
        """All targets across shards, in canonical order."""
        return self._targets

    @property
    def motif(self) -> MotifPattern:
        """The motif pattern shared by every shard."""
        return self._shards[0].problem.motif

    @property
    def constant(self) -> int:
        """The dissimilarity constant ``C`` shared by every shard."""
        return self._shards[0].problem.constant

    @property
    def kernel(self) -> str:
        """The resolved coverage-state kernel (same for every shard)."""
        return self._shards[0].kernel

    @property
    def build_seconds(self) -> float:
        """Wall-clock cost of the one-time build across all shards."""
        return self._build_seconds

    @property
    def queries_served(self) -> int:
        """How many :meth:`solve` calls this sharded session answered."""
        return self._queries_served

    @property
    def deltas_applied(self) -> int:
        """How many edge deltas this sharded session has applied."""
        with self._lock:
            return self._deltas_applied

    @property
    def index_source(self) -> str:
        """``"built"``, ``"snapshot"`` or ``"delta"`` — as unsharded."""
        return self._index_source

    def pristine_similarity(self) -> int:
        """Return ``s(∅, T)`` summed over all shards."""
        return sum(shard.pristine_similarity() for shard in self._shards)

    def number_of_instances(self) -> int:
        """Total enumerated motif instances across all shards."""
        return sum(
            shard.index.number_of_instances() for shard in self._shards
        )

    def content_hash(self) -> str:
        """A stable hash of the whole sharded state (per-shard hashes
        chained in shard order).  This is what delta snapshots must name
        as their parent and what the HTTP ``/stats`` endpoint reports."""
        with self._lock:
            cached = self._content_hash
            shards = self._shards
        if cached is not None:
            return cached
        from repro.persistence.shards import combined_content_hash

        fresh = combined_content_hash([shard.index for shard in shards])
        with self._lock:
            if self._shards is shards:
                self._content_hash = fresh
        return fresh

    def released_graph(self, protectors: Sequence[Edge]) -> Graph:
        """The released graph: shared phase-1 graph minus the protectors.

        Every shard's phase-1 graph is the same graph (all targets
        hidden), so shard 0's problem answers for the whole session — a
        released graph can never leak *any* session target, shard-local
        or not.
        """
        return self._shards[0].problem.released_graph(protectors)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, request: ProtectionRequest) -> ProtectionResult:
        """Answer one protection query, routing over the shards.

        Single-shard requests (including every request when ``K == 1``)
        forward verbatim and answer bit-identically to the unsharded
        service.  Cross-shard requests scatter-gather: deterministic
        budget split, per-shard solves, deterministic merge (see the
        module docstring).  A failed request — any shard raising — never
        bumps :attr:`queries_served` and never returns a partial merge.
        """
        request.validate()
        result = self._answer(request)
        with self._lock:
            self._queries_served += 1
        return result

    def _answer(self, request: ProtectionRequest) -> ProtectionResult:
        canonical = self._canonical_request_targets(request.targets)
        by_shard: Dict[int, List[Edge]] = {}
        for target in canonical:
            by_shard.setdefault(self._shard_of[target], []).append(target)
        routed = sorted(by_shard)
        if len(routed) == 1:
            return self._route_single(request, routed[0], by_shard[routed[0]])
        return self._scatter_gather(request, by_shard)

    def _canonical_request_targets(
        self, targets: Optional[Sequence[Edge]]
    ) -> Tuple[Edge, ...]:
        """Validate and canonicalise a request's target list."""
        if targets is None:
            return self._targets
        canonical = tuple(
            sorted(
                (canonical_edge(*target) for target in targets),
                key=edge_sort_key,
            )
        )
        if len(set(canonical)) != len(canonical):
            raise ExperimentError(
                f"request targets contain duplicate links: {canonical!r}"
            )
        unknown = [
            target for target in canonical if target not in self._shard_of
        ]
        if unknown:
            raise ExperimentError(
                f"request targets {unknown!r} are not targets of this session"
            )
        return canonical

    def _route_single(
        self, request: ProtectionRequest, shard_index: int, piece: List[Edge]
    ) -> ProtectionResult:
        """Forward a request owned entirely by one shard."""
        shard = self._shards[shard_index]
        sub_targets = (
            None if len(piece) == len(shard.targets) else tuple(piece)
        )
        result = shard.solve(request.with_overrides(targets=sub_targets))
        metadata = dict(result.extra["service"])
        metadata["request"] = request.to_dict()
        metadata["shards"] = {
            "count": self.shard_count,
            "mode": "single",
            "routed": [shard_index],
        }
        return replace(result, extra={**result.extra, "service": metadata})

    def _split_budget(
        self, request: ProtectionRequest, by_shard: Dict[int, List[Edge]]
    ) -> _Scatter:
        """Plan a cross-shard request's per-shard budgets and divisions.

        An explicit budget division is authoritative: each shard receives
        the mapping restricted to its piece and exactly that much budget.
        Otherwise the request budget is apportioned over the requested
        targets proportionally to their initial similarities (the same
        largest-remainder apportionment TBD uses), capped per target —
        budget beyond the pieces' combined initial similarity cannot
        improve protection and is left unspent.  Either way the split is
        a pure function of the request and the pristine shard state, so
        repeated identical requests split identically.
        """
        routed = sorted(by_shard)
        pieces = {index: tuple(by_shard[index]) for index in routed}
        requested = [target for index in routed for target in pieces[index]]
        requested.sort(key=edge_sort_key)
        plan = _Scatter(routed=routed, pieces=pieces, budgets={})
        mapping = request.division_mapping()
        if isinstance(mapping, Mapping):
            unknown = sorted(
                (target for target in mapping if target not in set(requested)),
                key=edge_sort_key,
            )
            if unknown:
                raise BudgetError(
                    f"budget division names targets {unknown!r} outside the "
                    "requested target set"
                )
            total = sum(mapping.values())
            if total > request.budget:
                raise BudgetError(
                    f"budget division allocates {total} > budget "
                    f"{request.budget}"
                )
            for index in routed:
                restricted = {
                    target: mapping[target]
                    for target in pieces[index]
                    if target in mapping
                }
                plan.budgets[index] = sum(restricted.values())
                plan.divisions[index] = restricted
            return plan
        weights: Dict[Edge, float] = {}
        caps: Dict[Edge, int] = {}
        for target in requested:
            initial = self._shards[self._shard_of[target]].index.initial_similarity(
                target
            )
            weights[target] = float(initial)
            caps[target] = initial
        per_target = proportional_allocation(weights, caps, request.budget)
        for index in routed:
            plan.budgets[index] = sum(
                per_target[target] for target in pieces[index]
            )
            # a strategy name (or None) is forwarded untouched: each shard
            # computes its own division over its piece
            plan.divisions[index] = request.budget_division
        return plan

    def _scatter_gather(
        self, request: ProtectionRequest, by_shard: Dict[int, List[Edge]]
    ) -> ProtectionResult:
        """Split, solve per shard concurrently, merge deterministically."""
        stopwatch = Stopwatch()
        plan = self._split_budget(request, by_shard)
        sub_requests: Dict[int, ProtectionRequest] = {}
        for index in plan.routed:
            piece = plan.pieces[index]
            shard = self._shards[index]
            sub_targets = (
                None if len(piece) == len(shard.targets) else piece
            )
            sub_requests[index] = request.with_overrides(
                targets=sub_targets,
                budget=plan.budgets[index],
                budget_division=plan.divisions[index],
            )
        results: Dict[int, ProtectionResult] = {}
        with ThreadPoolExecutor(max_workers=len(plan.routed)) as executor:
            futures: Dict[int, "Future[ProtectionResult]"] = {
                index: executor.submit(
                    self._shards[index].solve, sub_requests[index]
                )
                for index in plan.routed
            }
            failure: Optional[Tuple[int, BaseException]] = None
            for index in plan.routed:
                try:
                    results[index] = futures[index].result()
                except Exception as error:  # noqa: BLE001 - atomic abort
                    if failure is None:
                        failure = (index, error)
        if failure is not None:
            shard_index, error = failure
            raise ShardError(
                f"shard {shard_index} failed mid scatter-gather: {error}",
                shard=shard_index,
            ) from error
        return self._merge(request, plan, results, stopwatch)

    def _merge(
        self,
        request: ProtectionRequest,
        plan: _Scatter,
        results: Dict[int, ProtectionResult],
        stopwatch: Stopwatch,
    ) -> ProtectionResult:
        """Gather per-shard answers into one deterministic result.

        Protectors concatenate in shard order (shard order *is*
        ``edge_sort_key`` order of each shard's first target) with
        keep-first dedup — edge deletion is idempotent, so an edge picked
        by two shards is deleted once and still serves both targets.  The
        merged similarity trace is exact, not approximate: every shard
        replays the full merged sequence on a pristine state copy, so a
        protector chosen by shard 0 that also breaks shard 1 instances is
        charged at the step it is deleted, and the element-wise sum is
        ``s(P_prefix, T_request)`` step by step.
        """
        merged: List[Edge] = []
        seen = set()
        total_picks = 0
        for index in plan.routed:
            for protector in results[index].protectors:
                total_picks += 1
                if protector not in seen:
                    seen.add(protector)
                    merged.append(protector)
        merged_protectors = tuple(merged)
        traces = []
        for index in plan.routed:
            piece = plan.pieces[index]
            shard = self._shards[index]
            sub_targets = (
                None if len(piece) == len(shard.targets) else piece
            )
            traces.append(
                shard.evaluate_trace(merged_protectors, targets=sub_targets)
            )
        merged_trace = tuple(sum(column) for column in zip(*traces))
        division: Optional[Dict[Edge, int]] = None
        if all(
            results[index].budget_division is not None
            for index in plan.routed
        ):
            combined: Dict[Edge, int] = {}
            for index in plan.routed:
                combined.update(results[index].budget_division or {})
            division = {
                target: combined[target]
                for target in sorted(combined, key=edge_sort_key)
            }
        allocation: Optional[Dict[Edge, Tuple[Edge, ...]]] = None
        if all(
            results[index].allocation is not None for index in plan.routed
        ):
            gathered: Dict[Edge, Tuple[Edge, ...]] = {}
            for index in plan.routed:
                gathered.update(results[index].allocation or {})
            allocation = {
                target: gathered[target]
                for target in sorted(gathered, key=edge_sort_key)
            }
        first = results[plan.routed[0]]
        with self._lock:
            index_source = self._index_source
            deltas_applied = self._deltas_applied
        reused = all(
            bool(results[index].extra["service"]["reused_index"])
            for index in plan.routed
        )
        solve_seconds = stopwatch.elapsed()
        metadata: Dict[str, object] = {
            "request": request.to_dict(),
            "reused_index": reused,
            "index_source": index_source,
            "build_seconds": round(self._build_seconds, 6),
            "solve_seconds": round(solve_seconds, 6),
            "deltas_applied": deltas_applied,
            "kernel": self.kernel,
            "shards": {
                "count": self.shard_count,
                "mode": "scatter-gather",
                "routed": list(plan.routed),
                "budgets": {
                    str(index): plan.budgets[index] for index in plan.routed
                },
                "deduplicated_protectors": total_picks - len(merged),
            },
        }
        if request.label is not None:
            metadata["label"] = request.label
        return ProtectionResult(
            algorithm=first.algorithm,
            motif=first.motif,
            budget=request.budget,
            protectors=merged_protectors,
            similarity_trace=merged_trace,
            initial_similarity=merged_trace[0],
            budget_division=division,
            allocation=allocation,
            runtime_seconds=solve_seconds,
            extra={"service": metadata},
        )

    def solve_many(
        self,
        requests: Sequence[ProtectionRequest],
        workers: Optional[int] = None,
        mode: str = "thread",
    ) -> List[ProtectionResult]:
        """Answer a batch of queries, optionally fanned out over workers.

        Semantics match :meth:`ProtectionService.solve_many`: results come
        back in request order and are byte-identical for every worker
        count and mode.  ``"process"`` pickles every shard's problem (with
        its built index) once per worker; each worker reassembles the full
        sharded session, so cross-shard requests scatter-gather inside
        the worker exactly as they would here.
        """
        if mode not in _MODES:
            raise ExperimentError(f"mode must be one of {_MODES}, got {mode!r}")
        requests = list(requests)
        for request in requests:
            request.validate()
        if workers is None or workers <= 1 or len(requests) <= 1:
            return [self.solve(request) for request in requests]
        if mode == "thread":
            with ThreadPoolExecutor(max_workers=workers) as executor:
                return list(executor.map(self.solve, requests))
        with self._lock:
            index_source = self._index_source
            deltas_applied = self._deltas_applied
        problems = tuple(shard.problem for shard in self._shards)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_sharded_worker_init,
            initargs=(
                problems,
                index_source,
                deltas_applied,
                self._kernel_request,
            ),
        ) as executor:
            return list(executor.map(_sharded_worker_solve, requests))

    def evaluate_trace(
        self,
        protectors: Sequence[Edge],
        targets: Optional[Sequence[Edge]] = None,
    ) -> Tuple[int, ...]:
        """Replay a protector sequence against the sharded session.

        Each owning shard replays the full sequence on its piece and the
        traces sum element-wise — exactly the gather half of
        :meth:`solve`, usable as an independent check of any protector
        sequence (the differential suite and ``bench_sharding`` both
        cross-validate merged traces through this).
        """
        canonical = self._canonical_request_targets(targets)
        by_shard: Dict[int, List[Edge]] = {}
        for target in canonical:
            by_shard.setdefault(self._shard_of[target], []).append(target)
        traces = []
        for index in sorted(by_shard):
            piece = by_shard[index]
            shard = self._shards[index]
            sub_targets = (
                None if len(piece) == len(shard.targets) else tuple(piece)
            )
            traces.append(shard.evaluate_trace(protectors, targets=sub_targets))
        return tuple(sum(column) for column in zip(*traces))

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def apply_delta(
        self, delta: "EdgeDelta", constant: Optional[int] = None
    ) -> ShardDeltaOutcome:
        """Apply a graph update to every shard, atomically.

        The incremental maintenance runs copy-on-write against all shards
        *first* — any failure (inconsistent delta, constant violation)
        leaves every shard serving its pre-delta state — and only then is
        each shard's result installed.  The shared phase-1 graph is
        spliced once and every shard's index is updated on that one splice,
        so the shards keep sharing one graph; only shards whose targets'
        instance sets changed pay re-enumeration
        (:attr:`ShardDeltaOutcome.touched_shards` names them for the
        shard-aware hot reload).

        A :class:`~repro.persistence.DeltaSnapshot` is verified against
        this session's *combined* :meth:`content_hash` before anything is
        applied (mismatch raises
        :class:`~repro.exceptions.SnapshotMismatchError`).  ``constant``
        follows the unsharded rule against the combined initial
        similarity: kept, auto-bumped when insertions raise it, explicit
        values below it raise :class:`~repro.exceptions.DeltaError` —
        after which every shard is rebased to the one shared ``C``.
        """
        from repro.motifs.updates import EdgeDelta, GraphSplice, splice_delta

        with self._delta_lock:
            if not isinstance(delta, EdgeDelta):
                parent = getattr(delta, "parent_content_hash", None)
                raw = getattr(delta, "delta", None)
                if parent is None or raw is None:
                    raise ExperimentError(
                        "apply_delta expects an EdgeDelta or a DeltaSnapshot, "
                        f"got {type(delta).__name__}"
                    )
                live = self.content_hash()
                if parent != live:
                    raise SnapshotMismatchError(
                        f"delta snapshot parent hash {str(parent)[:12]}… does "
                        f"not match the live sharded session's combined hash "
                        f"{live[:12]}…"
                    )
                delta = raw
            stopwatch = Stopwatch()
            # one splice per phase-1 graph: shards built together share one
            # graph, shards restored from a bundle each hold their own
            hidden = set(self._targets)
            splices: Dict[int, GraphSplice] = {}
            updates = []
            for shard in self._shards:
                indexed = shard.index.indexed_graph
                if id(indexed) not in splices:
                    splices[id(indexed)] = splice_delta(indexed, hidden, delta)
                updates.append(shard.problem.apply_delta(splices[id(indexed)]))
            combined_initial = sum(
                problem.initial_similarity() for problem, _ in updates
            )
            old_constant = self.constant
            if constant is None:
                new_constant = max(old_constant, combined_initial)
            elif constant < combined_initial:
                raise DeltaError(
                    f"constant C={constant} is below the post-delta combined "
                    f"initial similarity {combined_initial}"
                )
            else:
                new_constant = constant
            build_seconds = stopwatch.elapsed()
            installed = []
            for problem, outcome in updates:
                if problem.constant != new_constant:
                    problem = problem.with_constant(new_constant)
                installed.append((problem, outcome))
            for shard, (problem, outcome) in zip(self._shards, installed):
                shard._install_delta_result(problem, outcome, build_seconds)
            with self._lock:
                self._deltas_applied += 1
                self._index_source = "delta"
                self._content_hash = None
        outcomes = tuple(outcome for _, outcome in installed)
        touched = tuple(
            index
            for index, outcome in enumerate(outcomes)
            if outcome.changed_targets
        )
        changed = tuple(
            sorted(
                {
                    target
                    for outcome in outcomes
                    for target in outcome.changed_targets
                },
                key=edge_sort_key,
            )
        )
        return ShardDeltaOutcome(
            outcomes=outcomes,
            touched_shards=touched,
            changed_targets=changed,
            constant=new_constant,
        )


# ----------------------------------------------------------------------
# process-mode plumbing: one sharded session per worker, reassembled from
# the pickled per-shard problems exactly once per worker process.  Each
# problem pickles with its built flat-array index, so nothing is
# enumerated inside a worker.
# ----------------------------------------------------------------------
_SHARDED_WORKER: Optional[ShardedProtectionService] = None


def _sharded_worker_init(
    problems: Tuple[TPPProblem, ...],
    index_source: str = "built",
    deltas_applied: int = 0,
    kernel: Optional[str] = None,
) -> None:
    global _SHARDED_WORKER
    _SHARDED_WORKER = ShardedProtectionService._from_problems(
        problems,
        kernel=kernel,
        index_source=index_source,
        deltas_applied=deltas_applied,
    )


def _sharded_worker_solve(request: ProtectionRequest) -> ProtectionResult:
    assert _SHARDED_WORKER is not None, "worker initializer did not run"
    return _SHARDED_WORKER.solve(request)
