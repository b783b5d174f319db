"""Span recorder for the traced benchmark run.

The benchmark times the layers of ``src/repro`` from outside: it wraps the
public entry points listed in :data:`ENTRY_POINTS` before the session
opens and records one span per call — name, start, end, parent span and
request id — in memory until the server process exits.  Nothing under
``src/`` is changed.

Module-level functions are replaced at *every* binding the loaded
``repro`` modules hold (a ``from x import f`` copy is a second binding),
class attributes once on their class.  A wrapper that is never called
records nothing, so :func:`missing_spans` lets the caller fail a run whose
trace lacks a span the workload must exercise.

Parent links follow :mod:`contextvars`.  Work the sharded session scatters
onto its own thread pool keeps its parent because the pool class bound in
``repro.service.sharding`` is swapped for one that runs each task in a copy
of the submitting context.  A span opened with no parent is a root and
starts a new request id.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import importlib
import itertools
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(span name, module, attribute path)``.  The layer is the part of the
#: name before the first dot.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("server.reload", "repro.server.app", "ProtectionServer.reload_from_file"),
    ("service.open", "repro.service.service", "ProtectionService.__init__"),
    ("service.solve", "repro.service.service", "ProtectionService.solve"),
    (
        "service.subset_build",
        "repro.service.service",
        "ProtectionService.for_filtered_targets",
    ),
    ("service.evaluate_trace", "repro.service.service", "ProtectionService.evaluate_trace"),
    ("service.apply_delta", "repro.service.service", "ProtectionService.apply_delta"),
    ("sharding.open", "repro.service.sharding", "ShardedProtectionService.__init__"),
    ("sharding.solve", "repro.service.sharding", "ShardedProtectionService.solve"),
    ("core.copy", "repro.motifs.coverage", "CoverageState.copy"),
    ("core.new_state", "repro.motifs.enumeration", "TargetSubgraphIndex.new_state"),
    ("graphs.read", "repro.graphs.io", "read_edge_list"),
    ("graphs.phase1", "repro.graphs.graph", "Graph.without_edges"),
    ("graphs.freeze", "repro.graphs.indexed", "IndexedGraph.__init__"),
    ("enumeration.build", "repro.motifs.enumeration", "TargetSubgraphIndex.__init__"),
    ("updates.apply", "repro.core.model", "TPPProblem.apply_delta"),
    ("persistence.snapshot_load", "repro.persistence.snapshot", "load_snapshot"),
    ("persistence.delta_load", "repro.persistence.delta", "load_delta_snapshot"),
    ("persistence.hash", "repro.persistence.snapshot", "index_content_hash"),
)

#: Every registered method runner is wrapped under this span name.
RUNNER_SPAN = "core.greedy"

LAYERS = (
    "server",
    "service",
    "sharding",
    "core",
    "graphs",
    "enumeration",
    "updates",
    "persistence",
)

# one span: (span id, name, start, end, parent id, request id, count tag)
Span = Tuple[int, str, float, float, Optional[int], int, int]


def _count_tag(name: str, first_arg: object, result: object) -> int:
    """The work count a span carries (0 where the entry point has none)."""
    if name == RUNNER_SPAN:
        return int(result.budget_used)
    if name == "enumeration.build":
        return int(first_arg.number_of_instances())  # the built index
    if name == "updates.apply":
        return int(result[1].targets_reenumerated)
    return 0


class SpanRecorder:
    """Holds the spans of one process and installs the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    # ------------------------------------------------------------------
    def wrap(self, name: str, function: Callable) -> Callable:
        current = self._current
        spans = self.spans
        ids = self._ids
        requests = self._requests

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = current.get()
            span_id = next(ids)
            request_id = parent[1] if parent is not None else next(requests)
            token = current.set((span_id, request_id))
            start = time.monotonic()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.monotonic()
                current.reset(token)
            spans.append(
                (
                    span_id,
                    name,
                    start,
                    end,
                    parent[0] if parent is not None else None,
                    request_id,
                    _count_tag(name, args[0] if args else None, result),
                )
            )
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point; call before the session opens."""
        for name, module_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method_name = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method_name]
                if isinstance(raw, classmethod):
                    setattr(
                        owner,
                        method_name,
                        classmethod(self.wrap(name, raw.__func__)),
                    )
                else:
                    setattr(owner, method_name, self.wrap(name, raw))
            else:
                original = getattr(module, attribute)
                traced = self.wrap(name, original)
                # rebind every copy: `from x import f` made one per module
                for loaded in list(sys.modules.values()):
                    namespace = getattr(loaded, "__dict__", None)
                    if (
                        namespace is not None
                        and getattr(loaded, "__name__", "").startswith("repro")
                        and namespace.get(attribute) is original
                    ):
                        setattr(loaded, attribute, traced)

        from repro.service import registry

        for method, spec in list(registry._REGISTRY.items()):
            registry._REGISTRY[method] = dataclasses.replace(
                spec, runner=self.wrap(RUNNER_SPAN, spec.runner)
            )

        import repro.service.sharding as sharding

        sharding.ThreadPoolExecutor = _ContextThreadPoolExecutor


class _ContextThreadPoolExecutor(ThreadPoolExecutor):
    """Runs each task in a copy of the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)


# ----------------------------------------------------------------------
# analysis (runs in the load generator on the spans the server wrote)
# ----------------------------------------------------------------------
def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover (seconds).

    Children of one span may run concurrently on other threads (a sharded
    scatter), so their union is subtracted, not their sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, ()), start, end)
        for span_id, _, start, end, _, _, _ in spans
    }


def missing_spans(spans: Sequence[Span], required: Sequence[str]) -> List[str]:
    """The required span names that the trace never recorded."""
    seen = {span[1] for span in spans}
    return [name for name in required if name not in seen]
