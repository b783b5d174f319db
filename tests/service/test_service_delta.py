"""Tests for live delta application on a serving ProtectionService session.

Covers the PR's acceptance guarantees:

* a session keeps serving correct results before and after ``apply_delta``
  without a session rebuild — post-delta answers equal a fresh session
  built on the updated graph,
* copy-on-write — a solve captured before the swap is unaffected,
* a delta that changes the graph evicts every cached subset sub-session,
  even when no target's instances changed: subset answers (seeded RD,
  CT/WT:DBD) equal a fresh session's on the updated graph, unsharded and
  sharded,
* ``deltas_applied`` / ``index_source`` surface in the result metadata, and
* constant handling — auto-bump to the post-delta initial similarity, typed
  refusal of an explicit constant below it.
"""

import sys
import threading

import pytest

from repro.core.model import TPPProblem
from repro.datasets.targets import sample_random_targets
from repro.exceptions import DeltaError, ExperimentError
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import canonical_edge, edge_sort_key
from repro.motifs.updates import EdgeDelta
from repro.service import (
    ProtectionRequest,
    ProtectionService,
    ShardedProtectionService,
)


@pytest.fixture
def graph():
    return powerlaw_cluster_graph(220, 3, 0.5, seed=3)


@pytest.fixture
def targets(graph):
    return sample_random_targets(graph, 6, seed=1)


@pytest.fixture
def service(graph, targets):
    return ProtectionService(graph, targets, motif="triangle")


def trace(result):
    return (result.protectors, result.similarity_trace)


def make_delta(service, count=2):
    """Delete ``count`` non-target phase-1 edges and insert two new ones."""
    phase1 = service.problem.phase1_graph
    target_set = {canonical_edge(*target) for target in service.problem.targets}
    deletions = [
        canonical_edge(*edge)
        for edge in sorted(phase1.edges())
        if canonical_edge(*edge) not in target_set
    ][:count]
    nodes = sorted(phase1.nodes())
    insertions = []
    for u in nodes:
        for v in nodes[::-1]:
            edge = canonical_edge(u, v)
            if (
                u != v
                and edge not in target_set
                and not phase1.has_edge(u, v)
                and edge not in insertions
            ):
                insertions.append(edge)
                break
        if len(insertions) == 2:
            break
    return EdgeDelta.from_edges(insert=insertions, delete=deletions)


def updated_graph_problem(service, delta):
    """A fresh problem on the delta's updated graph, same constant."""
    updated = service.problem.phase1_graph.copy()
    for u, v in delta.deleted:
        updated.remove_edge(u, v)
    for u, v in delta.inserted:
        updated.add_edge(u, v)
    updated.add_edges_from(service.problem.targets)
    return TPPProblem(
        updated,
        service.problem.targets,
        motif=service.problem.motif,
        constant=service.problem.constant,
    )


class TestApplyDelta:
    def test_serves_rebuild_identical_results_after_delta(self, service):
        request = ProtectionRequest("SGB-Greedy", 8)
        before = trace(service.solve(request))
        delta = make_delta(service)
        fresh_problem = updated_graph_problem(service, delta)
        outcome = service.apply_delta(delta)
        after = trace(service.solve(request))
        fresh = ProtectionService(fresh_problem)
        assert after == trace(fresh.solve(request))
        # the pre-delta answer is reproducible on a pre-delta session
        assert outcome.edges_deleted == 2 and outcome.edges_inserted == 2
        assert before != after or not outcome.changed_targets

    def test_deltas_applied_surfaces_in_metadata(self, service):
        request = ProtectionRequest("SGB-Greedy", 4)
        assert service.solve(request).extra["service"]["deltas_applied"] == 0
        assert service.deltas_applied == 0
        service.apply_delta(make_delta(service))
        result = service.solve(request)
        assert result.extra["service"]["deltas_applied"] == 1
        assert result.extra["service"]["index_source"] == "delta"
        assert service.deltas_applied == 1
        assert service.index_source == "delta"

    def test_net_noop_delta_keeps_session_state(self, service):
        request = ProtectionRequest("SGB-Greedy", 4)
        before = trace(service.solve(request))
        edge = make_delta(service).inserted[0]
        outcome = service.apply_delta(
            EdgeDelta((("insert", edge), ("delete", edge)))
        )
        assert outcome.changed_targets == ()
        assert trace(service.solve(request)) == before

    def test_constant_autobumps_but_never_shrinks(self, graph, targets):
        problem = TPPProblem(graph, targets, motif="triangle")
        service = ProtectionService(problem)
        original = service.problem.constant
        service.apply_delta(make_delta(service))
        assert service.problem.constant >= original
        initial = service.problem.build_index().initial_total_similarity()
        assert service.problem.constant >= initial

    def test_explicit_constant_below_similarity_refused(self, service):
        delta = make_delta(service)
        with pytest.raises(DeltaError):
            service.apply_delta(delta, constant=0)
        # the failed apply must not have half-swapped the session
        assert service.deltas_applied == 0
        assert service.index_source in ("built", "adopted")

    def test_non_delta_payload_refused(self, service):
        with pytest.raises(ExperimentError):
            service.apply_delta({"insert": [(1, 2)]})

    def test_second_delta_composes(self, service):
        request = ProtectionRequest("SGB-Greedy", 6)
        first = make_delta(service)
        service.apply_delta(first)
        second = EdgeDelta.deleting(first.inserted[0])
        service.apply_delta(second)
        assert service.deltas_applied == 2
        # an empty delta on the current session state reproduces its graph
        fresh = ProtectionService(updated_graph_problem(service, EdgeDelta(())))
        assert trace(service.solve(request)) == trace(fresh.solve(request))


# ----------------------------------------------------------------------
# cached subset sub-sessions across a delta
# ----------------------------------------------------------------------
def hub_instance():
    """Nine high-triangle targets on a 400-node graph, plus a delta that
    deletes every phase-1 edge touching a target endpoint that lies in no
    target subgraph: no target's instance set changes, but endpoint
    degrees (DBD weights) and the RD candidate pool both do."""
    graph = powerlaw_cluster_graph(400, 3, 0.5, seed=3)
    edges = sorted(
        (canonical_edge(*edge) for edge in graph.edges()), key=edge_sort_key
    )
    ranked = sorted(
        edges,
        key=lambda edge: (-len(graph.common_neighbors(*edge)), edge_sort_key(edge)),
    )
    targets = ranked[:6:2] + ranked[20:26]
    problem = TPPProblem(graph, targets, motif="triangle")
    candidates = set(problem.build_index().candidate_edge_list())
    endpoints = {node for target in targets for node in target}
    deletions = sorted(
        (
            canonical_edge(*edge)
            for edge in problem.phase1_graph.edges()
            if canonical_edge(*edge) not in candidates
            and endpoints.intersection(edge)
        ),
        key=edge_sort_key,
    )
    return graph, targets, deletions


def open_session(graph, targets, shards):
    if shards == 1:
        return ProtectionService(graph, targets, motif="triangle")
    return ShardedProtectionService(graph, targets, motif="triangle", shards=shards)


def answer(result):
    return (result.protectors, result.similarity_trace, result.budget_division)


class TestSubsetSessionsAcrossDelta:
    #: two targets that share shard 0 at K=3, so the sharded session also
    #: serves them from a cached subset sub-session of one shard
    SUBSET = ((1, 42), (2, 12))
    REQUESTS = (
        ProtectionRequest("RD", 6, seed=7, targets=SUBSET),
        ProtectionRequest("CT-Greedy:DBD", 6, targets=SUBSET),
        ProtectionRequest("WT-Greedy:DBD", 6, targets=SUBSET),
    )

    @pytest.fixture(scope="class")
    def instance(self):
        return hub_instance()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_subset_answers_match_fresh_session_after_delta(self, instance, shards):
        graph, targets, deletions = instance
        session = open_session(graph, targets, shards)
        before = [answer(session.solve(request)) for request in self.REQUESTS]
        outcome = session.apply_delta(EdgeDelta.deleting(*deletions))
        assert outcome.changed_targets == ()
        fresh = open_session(graph.without_edges(deletions), targets, shards)
        expected = [answer(fresh.solve(request)) for request in self.REQUESTS]
        # the delta moves every one of these answers, so a sub-session
        # cached before it would be caught serving the old graph
        assert all(old != new for old, new in zip(before, expected))
        assert [answer(session.solve(request)) for request in self.REQUESTS] == expected

    @pytest.mark.parametrize("shards", [1, 3])
    def test_delta_evicts_every_cached_subset(self, instance, shards):
        graph, targets, deletions = instance
        session = open_session(graph, targets, shards)
        for request in self.REQUESTS:
            session.solve(request)
        sessions = [session] if shards == 1 else list(session.shards)
        assert sum(len(s.cached_subset_sessions()) for s in sessions) >= 1
        session.apply_delta(EdgeDelta.deleting(*deletions[:1]))
        assert all(not s.cached_subset_sessions() for s in sessions)

    def test_net_noop_delta_keeps_cached_subsets(self, instance):
        graph, targets, deletions = instance
        session = open_session(graph, targets, 1)
        session.solve(self.REQUESTS[0])
        cached = session.cached_subset_sessions()
        edge = deletions[0]
        session.apply_delta(EdgeDelta((("delete", edge), ("insert", edge))))
        assert session.cached_subset_sessions() == cached

    def test_subset_built_across_a_delta_is_not_cached(self, instance, monkeypatch):
        """A sub-session enumerated on the pre-delta substrate while the
        delta lands must answer its own query but never enter the cache."""
        graph, targets, deletions = instance
        session = open_session(graph, targets, 1)
        build = ProtectionService.for_filtered_targets.__func__

        def build_then_delta(cls, *args, **kwargs):
            sub = build(cls, *args, **kwargs)
            if session.deltas_applied == 0:
                session.apply_delta(EdgeDelta.deleting(*deletions))
            return sub

        monkeypatch.setattr(
            ProtectionService, "for_filtered_targets", classmethod(build_then_delta)
        )
        request = self.REQUESTS[0]
        session.solve(request)
        assert session.deltas_applied == 1
        assert not session.cached_subset_sessions()
        fresh = open_session(graph.without_edges(deletions), targets, 1)
        assert answer(session.solve(request)) == answer(fresh.solve(request))

    def test_concurrent_subset_queries_never_cache_a_stale_subset(self, instance):
        """Readers hammer the subset cache while a writer lands four deltas;
        afterwards every subset answer must match the final graph's."""
        graph, targets, deletions = instance
        session = open_session(graph, targets, 1)
        stop = threading.Event()
        errors = []
        solved = [0]

        def reader():
            try:
                while not stop.is_set():
                    for request in self.REQUESTS:
                        session.solve(request)
                        solved[0] += 1
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader) for _ in range(4)]
            for thread in readers:
                thread.start()
            for start in range(4):
                session.apply_delta(EdgeDelta.deleting(*deletions[start::4]))
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == [] and solved[0] > 0
        fresh = open_session(graph.without_edges(deletions), targets, 1)
        for request in self.REQUESTS:
            assert answer(session.solve(request)) == answer(fresh.solve(request))
