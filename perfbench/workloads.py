"""The four serving workloads: inputs, traffic, and the answer checks.

Each workload makes every input from ``--seed`` (the same seed gives the
same request stream, subset pool and delta chain) on a fixed graph
instance, so runs with different seeds do the same amount of work.  The
server process receives only the generated files.  Answers are checked
against an in-process oracle session opened on the same inputs (each
workload's ``check`` says which).
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from loadgen import (
    Connection,
    ServerProcess,
    Reload,
    RequestFeed,
    Sample,
    answer_digest,
    run_closed_loop,
    run_open_loop_reads,
    run_open_loop_writer,
    run_sequence,
)

from repro.core.model import TPPProblem
from repro.datasets.targets import sample_degree_weighted_targets
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import Graph, canonical_edge, edge_sort_key
from repro.graphs.io import read_edge_list, write_edge_list
from repro.motifs.updates import EdgeDelta
from repro.persistence import index_content_hash, save_delta_snapshot
from repro.service import ProtectionRequest, ProtectionService, ShardedProtectionService, shard_assignment

#: The greedy mix every workload draws from.  RD/RDT are left out on
#: purpose: one RD solve (~0.3 s) would dominate any mix it joined.
GREEDY_METHODS = (
    "SGB-Greedy",
    "SGB-Greedy+BB",
    "CT-Greedy:DBD",
    "CT-Greedy:TBD",
    "WT-Greedy:DBD",
    "WT-Greedy:TBD",
)
BUDGETS = (5, 120)

#: Closed-loop clients by default (= nproc of the 2-CPU reference box).
CONNECTIONS = 2
#: Time-based warm-up before the measured window, seconds.
WARMUP_S = 1.0


@dataclass(frozen=True)
class Instance:
    """A fixed ``powerlaw_cluster_graph`` instance with degree-weighted targets."""

    nodes: int
    attach: int
    triangle_p: float
    graph_seed: int
    targets: int
    motif: str = "rectri"

    def files(self, work: Path) -> Tuple[Path, Path]:
        """Write (once) and return the edge-list and target files."""
        import repro.datasets.targets
        import repro.graphs.generators

        digest = hashlib.sha256(repr(self).encode())
        for module in (repro.graphs.generators, repro.datasets.targets):
            digest.update(Path(module.__file__).read_bytes())
        stem = work / "instances" / digest.hexdigest()[:16]
        edges, targets = stem.with_suffix(".edges"), stem.with_suffix(".targets.json")
        if not targets.exists():
            graph = powerlaw_cluster_graph(
                self.nodes, self.attach, self.triangle_p, seed=self.graph_seed
            )
            chosen = sample_degree_weighted_targets(graph, self.targets, seed=self.graph_seed)
            write_edge_list(graph, edges)
            partial = targets.with_suffix(".partial")
            partial.write_text(json.dumps([list(canonical_edge(*t)) for t in chosen]))
            partial.replace(targets)
        return edges, targets


#: The throughput instance: 20k nodes / 100k edges, 50 targets, 1,492 rectri instances.
SERVING = Instance(20_000, 5, 0.4, 7, 50)
#: The sharding instance: 30k nodes / 150k edges, 90 targets.
SHARDING = Instance(30_000, 5, 0.4, 11, 90)
#: The subset-churn instance: 5k nodes / 25k edges, 50 targets, 1,886
#: rectri instances.  On the throughput instance a cache miss cost
#: 0.35-0.5 s, a 10 s window held ~20 of them, full garbage collections
#: over the ~2 GB cache landed at random in it, and throughput varied
#: 7.9-10.2 solves/s across seeds; here a miss costs ~0.1 s.
SUBSETS = Instance(5_000, 5, 0.4, 7, 50)


@dataclass
class Run:
    """What one pass of a workload produced (timings and digests only)."""

    samples: List[Sample]
    window: Tuple[float, float]
    warmup_s: float
    #: server (user, system) CPU seconds from the window's start until every
    #: request sent in it was answered
    cpu: Tuple[float, float]
    reloads: List[Reload] = field(default_factory=list)
    final_hash: str = ""

    def in_window(self) -> List[Sample]:
        start, stop = self.window
        return [s for s in self.samples if s.sent >= start and s.done <= stop]


def _spent(before: Tuple[float, float], after: Tuple[float, float]) -> Tuple[float, float]:
    return after[0] - before[0], after[1] - before[1]


class Workload:
    """Common plumbing: instance files, server spec, request stream, checks."""

    name = ""
    instance = SERVING
    connections = CONNECTIONS
    #: the layers (span names) this workload must exercise in a traced run
    required_spans: Tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work / self.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.edges, targets_file = self.instance.files(work)
        self.targets = tuple(tuple(t) for t in json.loads(targets_file.read_text()))
        self._oracle = None

    # -- inputs --------------------------------------------------------
    def spec(self) -> Path:
        path = self.work / "spec.json"
        path.write_text(json.dumps(self.spec_payload()))
        return path

    def spec_payload(self) -> dict:
        return {
            "open": "built",
            "edges": str(self.edges),
            "targets": [list(t) for t in self.targets],
            "motif": self.instance.motif,
        }

    def request(self, index: int) -> ProtectionRequest:
        """Request ``index`` of this seed's stream (a pure function of both)."""
        raise NotImplementedError

    def body(self, index: int) -> bytes:
        return json.dumps(self.request(index).to_dict()).encode()

    def _rng(self, index: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + index)

    def _greedy(self, index: int, **fields) -> ProtectionRequest:
        rng = self._rng(index)
        return ProtectionRequest(
            rng.choice(GREEDY_METHODS),
            rng.randint(*BUDGETS),
            seed=self.seed * 10_000_000 + index,
            **fields,
        )

    def prepare(self, seconds: float) -> None:
        """Write any per-run input files (before the first server starts)."""

    # -- traffic -------------------------------------------------------
    def drive(self, server: ServerProcess, seconds: float) -> Run:
        feed = RequestFeed(self.body)
        warm_start = time.monotonic()
        samples = run_closed_loop(server.port, feed, self.connections, warm_start + WARMUP_S)
        cpu, start = server.cpu_seconds(), time.monotonic()
        samples += run_closed_loop(server.port, feed, self.connections, start + seconds)
        return Run(samples, (start, start + seconds), start - warm_start,
                   cpu=_spent(cpu, server.cpu_seconds()))

    # -- checks --------------------------------------------------------
    def open_oracle(self):
        graph = read_edge_list(self.edges)
        return ProtectionService(graph, self.targets, motif=self.instance.motif)

    @property
    def oracle(self):
        if self._oracle is None:
            self._oracle = self.open_oracle()
        return self._oracle

    def checked_requests(self, keys: Sequence[ProtectionRequest]) -> Sequence[ProtectionRequest]:
        """The distinct requests compared with the oracle (all by default)."""
        return keys

    def check(self, run: Run) -> Tuple[int, List[str]]:
        """Return (wrong answers, messages) over every sample of ``run``."""
        wrong = 0
        messages: List[str] = []
        groups: Dict[ProtectionRequest, List[Sample]] = {}
        for sample in run.samples:
            if sample.status != 200:
                wrong += 1
                messages.append(f"request {sample.index} answered HTTP {sample.status}")
                continue
            groups.setdefault(self.request(sample.index), []).append(sample)
        for request, group in groups.items():
            if len({s.digest for s in group}) > 1:
                wrong += len(group)
                messages.append(f"identical requests answered differently: {request}")
        for request in self.checked_requests(sorted(groups, key=repr)):
            expected = answer_digest(self.oracle.solve(request).to_dict())
            bad = [s for s in groups[request] if s.digest != expected]
            if bad:
                wrong += len(bad)
                messages.append(f"answer differs from the oracle: {request}")
        return wrong, messages

class SteadySolve(Workload):
    """Distinct full-target greedy requests on one freshly built session."""

    name = "steady_solve"
    required_spans = (
        "service.open",
        "service.solve",
        "core.greedy",
        "core.copy",
        "core.new_state",
        "graphs.read",
        "graphs.phase1",
        "graphs.freeze",
        "enumeration.build",
        "persistence.hash",
    )

    def request(self, index: int) -> ProtectionRequest:
        return self._greedy(index)


class SubsetChurn(Workload):
    """Target-subset requests over a pool larger than the sub-session LRU.

    Draws are skewed in two tiers.  Three requests in four go to one of
    ``HOT`` subsets, chosen at random; they stay cached.  Every fourth
    request goes to the next subset of a cold tail of ``COLD`` subsets,
    each named once, so it misses the cache and evicts the least recently
    used entry.  Spacing the cold draws evenly keeps the miss share at 25%
    whatever the seed.  The warm-up fills the LRU (cold subsets first, then
    the hot ones), so every window runs with a full cache.  Only
    ``ORACLE_SUBSETS`` distinct subsets, chosen from the seed, are compared
    with the oracle (each costs a sub-session build); every repeated
    request is still compared with its identical siblings.
    """

    name = "subset_churn"
    instance = SUBSETS
    #: one client: with two, cache misses overlapped at random and the
    #: miss latency split into two modes (~0.5 s alone, ~1.1-1.6 s
    #: overlapped) with the 90th percentile on the boundary between them
    connections = 1
    HOT = 8
    COLD = 400
    COLD_EVERY = 4
    SUBSET_BUDGETS = (5, 10, 20, 40)
    ORACLE_SUBSETS = 4
    required_spans = (
        "service.solve",
        "service.subset_build",
        "core.greedy",
        "core.copy",
        "graphs.phase1",
        "graphs.freeze",
        "enumeration.build",
    )

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        rng = random.Random(seed)
        pool: Dict[Tuple, None] = {}
        while len(pool) < self.HOT + self.COLD:
            subset = rng.sample(self.targets, rng.randint(2, 10))
            pool.setdefault(tuple(sorted(subset, key=edge_sort_key)), None)
        self.pool = list(pool)
        entries = inspect.signature(ProtectionService).parameters["max_cached_subsets"].default
        self.first_cold = entries - self.HOT
        self.warmup = [self.HOT + k for k in range(self.first_cold)] + list(range(self.HOT))

    def subset_of(self, index: int) -> Tuple:
        if index < 0:  # warm-up request -k - 1
            return self.pool[self.warmup[-index - 1]]
        if index % self.COLD_EVERY == self.COLD_EVERY - 1:
            cold = self.first_cold + index // self.COLD_EVERY
            return self.pool[self.HOT + cold % self.COLD]
        return self.pool[self._rng(index).randrange(self.HOT)]

    def request(self, index: int) -> ProtectionRequest:
        rng = self._rng(~index)
        return ProtectionRequest(
            rng.choice(GREEDY_METHODS),
            rng.choice(self.SUBSET_BUDGETS),
            targets=self.subset_of(index),
        )

    def drive(self, server: ServerProcess, seconds: float) -> Run:
        warm_start = time.monotonic()
        warm = [(-k - 1, self.body(-k - 1)) for k in range(len(self.warmup))]
        samples = run_sequence(server.port, warm)
        cpu, start = server.cpu_seconds(), time.monotonic()
        samples += run_closed_loop(
            server.port, RequestFeed(self.body), self.connections, start + seconds
        )
        return Run(samples, (start, start + seconds), start - warm_start,
                   cpu=_spent(cpu, server.cpu_seconds()))

    def open_oracle(self):
        graph = read_edge_list(self.edges)
        return ProtectionService(
            graph, self.targets, motif=self.instance.motif, max_cached_subsets=1
        )

    def checked_requests(self, keys):
        subsets = sorted({request.targets for request in keys}, key=repr)
        chosen = set(random.Random(self.seed).sample(subsets, min(self.ORACLE_SUBSETS, len(subsets))))
        # grouped by subset, so the oracle builds each sub-session once
        return sorted((r for r in keys if r.targets in chosen), key=lambda r: repr(r.targets))


class ShardedScatter(Workload):
    """Whole-shard requests (all 3, any 2, or one shard) on a 3-shard session."""

    name = "sharded_scatter"
    instance = SHARDING
    #: one client: with two, the scatter threads of two requests convoyed
    #: on the interpreter lock and the median moved 10.9-18.2 ms between
    #: sessions of five runs (spread up to 0.28)
    connections = 1
    SHARDS = 3
    required_spans = (
        "sharding.open",
        "sharding.solve",
        "service.solve",
        "service.subset_build",
        "core.greedy",
        "core.copy",
        "graphs.phase1",
        "graphs.freeze",
        "enumeration.build",
        "persistence.hash",
    )

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        pieces = shard_assignment(self.targets, self.SHARDS)
        # all shards (the full target set), any two, or a single shard
        self.groups = (
            [None],
            [a + b for a, b in itertools.combinations(pieces, 2)],
            list(pieces),
        )

    def spec_payload(self) -> dict:
        return {**super().spec_payload(), "open": "sharded", "shards": self.SHARDS}

    def request(self, index: int) -> ProtectionRequest:
        rng = self._rng(~index)
        return self._greedy(index, targets=rng.choice(rng.choice(self.groups)))

    def open_oracle(self):
        graph = read_edge_list(self.edges)
        return ShardedProtectionService(
            graph, self.targets, motif=self.instance.motif, shards=self.SHARDS
        )


class DeltaReadWrite(Workload):
    """Snapshot cold start; open-loop delta writes beside open-loop reads.

    The generator writes the base snapshot and a hash-chained sequence of
    10-edge deltas (5 deletions, 5 insertions, 3 of each in a target's
    neighbourhood) before the server starts; during the measured window
    the writer POSTs them to ``/reload`` at ``RATE`` per second while the
    reader sends full-target solves at ``READ_RATE`` per second, both
    timed from their schedules.  Fixed rates make every window do the same
    work: with a closed-loop reader the number of reads followed the
    machine's speed while the reload work did not, and CPU time per read
    varied 5-15 ms between runs of one seed.
    """

    name = "delta_rw"
    connections = 1
    RATE = 2.0  # deltas per second
    READ_RATE = 40.0  # solves per second
    DELTA_EDGES = 10
    required_spans = (
        "service.open",
        "service.solve",
        "service.apply_delta",
        "server.reload",
        "core.greedy",
        "core.copy",
        "updates.apply",
        "persistence.snapshot_load",
        "persistence.delta_load",
        "persistence.hash",
    )

    def prepare(self, seconds: float) -> None:
        """Write the base snapshot and the delta chain for a ``seconds`` window."""
        graph = read_edge_list(self.edges)
        problem = TPPProblem(graph, self.targets, motif=self.instance.motif)
        self.snapshot = problem.save_index(self.work / "base.tppsnap")
        self.phase1 = problem.phase1_graph.copy()
        self.target_set = {canonical_edge(*t) for t in self.targets}
        rng = random.Random(self.seed)
        self.deltas: List[EdgeDelta] = []
        self.hashes = [index_content_hash(problem.build_index())]
        self.paths: List[Path] = []
        current = self.phase1.copy()
        endpoints = sorted({node for t in self.targets for node in t})
        nodes = sorted(current.nodes())
        for k in range(int(seconds * self.RATE)):
            delta = self._delta(current, rng, endpoints, nodes)
            problem, outcome = problem.apply_delta(delta)
            self.hashes.append(index_content_hash(outcome.index))
            path = self.work / f"chain-{k:04d}.tppdelta"
            save_delta_snapshot(path, delta, self.hashes[-2], self.hashes[-1])
            self.deltas.append(delta)
            self.paths.append(path)

    def _delta(self, graph: Graph, rng: random.Random, endpoints: List, nodes: List) -> EdgeDelta:
        deleted: List[Tuple] = []
        inserted: List[Tuple] = []
        half = self.DELTA_EDGES // 2
        while len(deleted) < half:
            u = rng.choice(endpoints) if len(deleted) < 3 else rng.choice(nodes)
            neighbours = sorted(graph.neighbors(u))
            if neighbours:
                edge = canonical_edge(u, rng.choice(neighbours))
                if edge not in deleted:
                    deleted.append(edge)
        while len(inserted) < self.DELTA_EDGES - half:
            if len(inserted) < 3:  # close a path u - w - v around a target endpoint
                u = rng.choice(endpoints)
                first = sorted(graph.neighbors(u))
                second = sorted(graph.neighbors(rng.choice(first))) if first else []
                if not second:
                    continue
                v = rng.choice(second)
            else:
                u, v = rng.sample(nodes, 2)
            if u == v:
                continue
            edge = canonical_edge(u, v)
            if (graph.has_edge(*edge) or edge in self.target_set
                    or edge in inserted or edge in deleted):
                continue
            inserted.append(edge)
        graph.remove_edges_from(deleted)
        graph.add_edges_from(inserted)
        return EdgeDelta.from_edges(insert=inserted, delete=deleted)

    def spec_payload(self) -> dict:
        return {"open": "snapshot", "snapshot": str(self.snapshot)}

    def request(self, index: int) -> ProtectionRequest:
        return self._greedy(index)

    def drive(self, server: ServerProcess, seconds: float) -> Run:
        feed = RequestFeed(self.body)
        warm_start = time.monotonic()
        samples = run_closed_loop(server.port, feed, self.connections, warm_start + WARMUP_S)
        cpu, start = server.cpu_seconds(), time.monotonic()
        reloads: List[Reload] = []
        writer = threading.Thread(
            target=lambda: reloads.extend(
                run_open_loop_writer(server.port, self.paths, start, self.RATE)
            )
        )
        writer.start()
        try:
            samples += run_open_loop_reads(
                server.port, feed, start, self.READ_RATE, int(seconds * self.READ_RATE)
            )
        finally:
            writer.join()
        spent = _spent(cpu, server.cpu_seconds())
        connection = Connection(server.port)
        try:
            _, health = connection.call("GET", "/healthz")
        finally:
            connection.close()
        return Run(samples, (start, start + seconds), start - warm_start, cpu=spent,
                   reloads=reloads, final_hash=str(health.get("content_hash", "")))

    def check(self, run: Run) -> Tuple[int, List[str]]:
        """Reload hashes, the final state, and every read against its state's oracle."""
        wrong, messages = 0, []
        applied = 0
        for reload in run.reloads:
            if reload.status == 200 and reload.content_hash == self.hashes[reload.index + 1]:
                applied = reload.index + 1
            else:
                wrong += 1
                messages.append(f"reload {reload.index} answered {reload.status} "
                                f"with hash {reload.content_hash[:12]}")
        graph = self.phase1.copy()
        for delta in self.deltas[:applied]:
            graph.remove_edges_from(delta.deleted)
            graph.add_edges_from(delta.inserted)
        graph.add_edges_from(self.targets)
        fresh = index_content_hash(
            TPPProblem(graph, self.targets, motif=self.instance.motif).build_index()
        )
        if run.final_hash != fresh or fresh != self.hashes[applied]:
            wrong += 1
            messages.append("final /healthz hash differs from a fresh build of the final graph")

        by_state: Dict[str, List[Sample]] = {}
        for sample in run.samples:
            if sample.status != 200:
                wrong += 1
                messages.append(f"read {sample.index} answered HTTP {sample.status}")
            else:
                by_state.setdefault(sample.content_hash, []).append(sample)
        problem = TPPProblem.from_snapshot(self.snapshot)
        for k in range(applied + 1):
            if k:
                problem, _ = problem.apply_delta(self.deltas[k - 1])
            reads = by_state.pop(self.hashes[k], [])
            if reads:
                oracle = ProtectionService(problem)
                for sample in reads:
                    result = oracle.solve(self.request(sample.index))
                    if answer_digest(result.to_dict()) != sample.digest:
                        wrong += 1
                        messages.append(f"read {sample.index} differs from the oracle")
        for content_hash, reads in by_state.items():
            wrong += len(reads)
            messages.append(f"{len(reads)} reads answered from unknown state {content_hash[:12]}")
        return wrong, messages


WORKLOADS = {
    cls.name: cls for cls in (SteadySolve, SubsetChurn, DeltaReadWrite, ShardedScatter)
}
