"""R8 — shard-boundary: service code builds indexes through the factories.

The sharding identity theorem rests on one construction invariant: every
index in the service layer is enumerated on the session's one frozen
phase-1 substrate (:class:`repro.core.model.Phase1Substrate`, *all*
session targets hidden), with targets filtered *before* enumeration.  Two
factories embody it — :func:`repro.service.sharding._build_shard_index`
(the shard path, enumerating on the substrate's ``IndexedGraph``) and
:meth:`ProtectionService.for_filtered_targets` (the subset and shard
session path, which takes the parent's substrate and routes through
``TPPProblem.on_substrate``).  A service module that calls
``TargetSubgraphIndex(...)`` directly can silently enumerate non-shard
targets or a differently-filtered graph, breaking bit-identity in a way
no single test would localise — so the lint forbids the constructor in
``repro/service/`` outside the sanctioned factory.

Code: ``R8-direct-index``.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from tools.reprolint.context import ModuleContext
from tools.reprolint.findings import Finding
from tools.reprolint.rules.base import Rule

#: path fragment marking the service layer the rule polices.
_SERVICE_PACKAGE_FRAGMENT = "repro/service/"

#: the one function allowed to construct a TargetSubgraphIndex directly.
_SANCTIONED_FACTORY = "_build_shard_index"


def _in_service_package(ctx: ModuleContext) -> bool:
    return _SERVICE_PACKAGE_FRAGMENT in ctx.relpath.replace("\\", "/")


def _constructs_index(call: ast.Call) -> bool:
    function = call.func
    if isinstance(function, ast.Name):
        return function.id == "TargetSubgraphIndex"
    if isinstance(function, ast.Attribute):
        return function.attr == "TargetSubgraphIndex"
    return False


class ShardBoundaryRule(Rule):
    family = "R8"
    name = "shard-boundary"
    description = (
        "service code never constructs TargetSubgraphIndex directly; "
        "indexes come from the shard/session factories that filter "
        "targets before enumeration"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        if not _in_service_package(ctx):
            return findings
        _check_scope(ctx.tree, None, ctx, findings)
        return findings


def _check_scope(
    scope: ast.AST,
    enclosing: Optional[str],
    ctx: ModuleContext,
    findings: List[Finding],
) -> None:
    """Walk ``scope`` tracking the innermost enclosing function name."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_scope(node, node.name, ctx, findings)
            continue
        if isinstance(node, ast.ClassDef):
            _check_scope(node, enclosing, ctx, findings)
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call) or not _constructs_index(call):
                continue
            if enclosing == _SANCTIONED_FACTORY:
                continue
            findings.append(
                Finding(
                    "R8-direct-index",
                    ctx.path,
                    call.lineno,
                    call.col_offset,
                    "direct TargetSubgraphIndex construction in service "
                    f"code (enclosing function {enclosing or '<module>'!r}); "
                    "build indexes through _build_shard_index or "
                    "ProtectionService.for_filtered_targets on the session's "
                    "phase-1 substrate so targets are filtered before "
                    "enumeration",
                )
            )
