"""Every session freezes its phase-1 graph once; target filters share it.

Subset sub-sessions and shards enumerate on the parent's
:class:`~repro.core.model.Phase1Substrate` instead of copying and
re-freezing the graph, and degree-based budget division reads endpoint
degrees off the index, so a snapshot-restored or delta-updated session
never materialises a ``Graph`` to answer DBD.
"""

import pytest

from repro.core.model import Phase1Substrate, TPPProblem
from repro.datasets.targets import sample_random_targets
from repro.exceptions import InvalidTargetError
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import Graph, edge_sort_key
from repro.graphs.indexed import IndexedGraph
from repro.motifs.updates import EdgeDelta
from repro.service import (
    ProtectionRequest,
    ProtectionService,
    ShardedProtectionService,
)

DBD_METHODS = ("CT-Greedy:DBD", "WT-Greedy:DBD")


@pytest.fixture(scope="module")
def instance():
    graph = powerlaw_cluster_graph(200, 3, 0.5, seed=11)
    targets = tuple(
        sorted(sample_random_targets(graph, 6, seed=4), key=edge_sort_key)
    )
    return graph, targets


@pytest.fixture
def calls(monkeypatch):
    """Count ``Graph.copy`` and ``IndexedGraph.__init__`` calls."""
    counts = {"copy": 0, "freeze": 0}
    copy, freeze = Graph.copy, IndexedGraph.__init__

    def counted_copy(self):
        counts["copy"] += 1
        return copy(self)

    def counted_freeze(self, *args, **kwargs):
        counts["freeze"] += 1
        freeze(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "copy", counted_copy)
    monkeypatch.setattr(IndexedGraph, "__init__", counted_freeze)
    return counts


def original_degrees(problem):
    graph = problem.graph
    return {
        node: graph.degree(node) for target in problem.targets for node in target
    }


class TestSharedSubstrate:
    def test_subset_miss_copies_and_freezes_nothing(self, instance, calls):
        graph, targets = instance
        service = ProtectionService(graph, targets, motif="triangle")
        calls.update(copy=0, freeze=0)
        result = service.solve(
            ProtectionRequest("SGB-Greedy", 4, targets=targets[:3])
        )
        assert result.extra["service"]["reused_index"] is False
        assert calls == {"copy": 0, "freeze": 0}

    def test_sharded_open_copies_and_freezes_once(self, instance, calls):
        graph, targets = instance
        sharded = ShardedProtectionService(graph, targets, motif="triangle", shards=3)
        assert calls == {"copy": 1, "freeze": 1}
        shared = sharded.shards[0].index.indexed_graph
        assert all(shard.index.indexed_graph is shared for shard in sharded.shards)

    def test_sharding_a_built_problem_reuses_its_freeze(self, instance, calls):
        graph, targets = instance
        problem = TPPProblem(graph, targets, motif="triangle")
        problem.build_index()
        calls.update(copy=0, freeze=0)
        sharded = ShardedProtectionService(problem, shards=3)
        assert calls == {"copy": 0, "freeze": 0}
        assert sharded.shards[1].index.indexed_graph is problem.build_index().indexed_graph

    def test_sharded_deltas_splice_the_shared_graph_once(self, instance, monkeypatch):
        graph, targets = instance
        sharded = ShardedProtectionService(graph, targets, motif="triangle", shards=3)
        splices = []
        splice = IndexedGraph._apply_edge_delta

        def counted_splice(self, *args, **kwargs):
            splices.append(self)
            return splice(self, *args, **kwargs)

        monkeypatch.setattr(IndexedGraph, "_apply_edge_delta", counted_splice)
        phase1 = sharded.shards[0].problem.phase1_graph
        a, b = targets[0]
        absent = next(
            (u, w)
            for u in (a, b)
            for w in sorted(graph.nodes())
            if w not in (a, b) and not phase1.has_edge(u, w)
        )
        updated = graph.copy()
        for delta in (
            EdgeDelta.inserting(absent),
            EdgeDelta.deleting(sorted(phase1.edges())[0]),
        ):
            before = len(splices)
            sharded.apply_delta(delta)
            assert len(splices) == before + 1
            for op, edge in delta.operations:
                (updated.add_edge if op == "insert" else updated.remove_edge)(*edge)
        assert len({id(shard.index.indexed_graph) for shard in sharded.shards}) == 1
        fresh = ShardedProtectionService(updated, targets, motif="triangle", shards=3)
        request = ProtectionRequest("SGB-Greedy", 6)
        got, want = sharded.solve(request), fresh.solve(request)
        assert got.protectors == want.protectors
        assert got.similarity_trace == want.similarity_trace

    def test_subset_shares_parent_index_graph(self, instance):
        graph, targets = instance
        parent = ProtectionService(graph, targets, motif="triangle")
        sub, _ = parent._subset_session(parent.problem, targets[1:4])
        assert sub.index.indexed_graph is parent.index.indexed_graph
        assert sub.problem.phase1_graph is parent.problem.phase1_graph
        # the sub-problem's original graph still hides every other target
        assert sub.problem.graph == graph.without_edges(
            [t for t in targets if t not in sub.targets]
        )

    def test_substrate_refuses_targets_it_does_not_hide(self, instance):
        graph, targets = instance
        substrate = Phase1Substrate.hide(graph, targets[:2])
        with pytest.raises(InvalidTargetError):
            TPPProblem.on_substrate(substrate, targets[2:3])
        with pytest.raises(InvalidTargetError):
            Phase1Substrate.hide(graph, [(targets[0][0], "no-such-node")])


class TestDegreeBasedDivision:
    def test_snapshot_session_answers_dbd_without_graphs(self, instance, tmp_path):
        graph, targets = instance
        path = TPPProblem(graph, targets, motif="triangle").save_index(
            tmp_path / "base.tppsnap"
        )
        service = ProtectionService.from_snapshot(path)
        for method in DBD_METHODS:
            service.solve(ProtectionRequest(method, 5))
        assert service.problem._graph is None
        assert service.problem._phase1_graph is None

    def test_delta_session_answers_dbd_without_graphs(self, instance):
        graph, targets = instance
        service = ProtectionService(graph, targets, motif="triangle")
        phase1 = service.problem.phase1_graph
        service.apply_delta(EdgeDelta.deleting(sorted(phase1.edges())[0]))
        for method in DBD_METHODS:
            service.solve(ProtectionRequest(method, 5))
        assert service.problem._graph is None
        assert service.problem._phase1_graph is None

    def test_csr_degrees_match_original_graph(self, instance, tmp_path):
        graph, targets = instance
        built = ProtectionService(graph, targets, motif="triangle")
        path = built.problem.save_index(tmp_path / "base.tppsnap")
        snapshot = ProtectionService.from_snapshot(path)
        delta = ProtectionService(graph, targets, motif="triangle")
        endpoint = targets[0][0]
        neighbour = sorted(delta.problem.phase1_graph.neighbors(endpoint))[0]
        delta.apply_delta(EdgeDelta.deleting((endpoint, neighbour)))
        subset, _ = built._subset_session(built.problem, targets[:3])
        sharded = ShardedProtectionService(graph, targets, motif="triangle", shards=3)
        problems = [
            built.problem,
            snapshot.problem,
            delta.problem,
            subset.problem,
            *(shard.problem for shard in sharded.shards),
        ]
        for problem in problems:
            assert problem.endpoint_degrees() == original_degrees(problem)
