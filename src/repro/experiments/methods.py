"""Back-compat façade over the service-layer method registry.

The seven methods of the paper's evaluation (Figs. 3-6, Tables III-V) used
to be hard-coded here in two hand-maintained dicts plus a duplicated
ordering tuple.  They now live in the decorator-based registry of
:mod:`repro.service.registry` (registered in :mod:`repro.service.builtin`),
which downstream users can extend with
:func:`~repro.service.register_method`; this module re-exports the old
names — derived live from the registry, so plugins show up.

Methods run through :class:`repro.service.ProtectionService`, which
builds the target-subgraph index once and serves every query from a copy of
its pristine coverage state::

    service = ProtectionService(problem)
    result = service.solve(ProtectionRequest("CT-Greedy:TBD", budget=30))
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.service import builtin  # noqa: F401  (registers the built-in methods)
from repro.service.registry import (
    MethodRunner,
    is_greedy_method,
    iter_methods,
    method_names,
)

__all__ = [
    "GREEDY_METHODS",
    "BASELINE_METHODS",
    "ALL_METHODS",
    "is_greedy_method",
]


def __getattr__(name: str):
    """Expose the legacy collections as live views of the registry.

    ``ALL_METHODS`` (a tuple in the paper's legend order) and the
    ``GREEDY_METHODS`` / ``BASELINE_METHODS`` dicts are computed from the
    registration metadata on every access, so methods registered by
    downstream plugins appear without any hand-maintained duplicate list.
    """
    if name == "ALL_METHODS":
        return method_names()
    if name == "GREEDY_METHODS":
        return {spec.name: spec.runner for spec in iter_methods() if spec.is_greedy}
    if name == "BASELINE_METHODS":
        return {spec.name: spec.runner for spec in iter_methods() if not spec.is_greedy}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# typing-only declarations for the module __getattr__ views above
ALL_METHODS: Tuple[str, ...]
GREEDY_METHODS: Dict[str, MethodRunner]
BASELINE_METHODS: Dict[str, MethodRunner]

