"""TPP core: problem model, greedy algorithms, budgets, baselines, verification."""

from repro.core.baselines import random_deletion, random_target_subgraph_deletion
from repro.core.budget import (
    BudgetDivision,
    BudgetUnderAllocationWarning,
    degree_product_budget_division,
    make_budget_division,
    target_subgraph_budget_division,
    uniform_budget_division,
    validate_budget_division,
)
from repro.core.ct import ct_greedy
from repro.core.dissimilarity import (
    LocalIndexDissimilarity,
    SubgraphDissimilarity,
    apply_link_addition,
    apply_link_switching,
)
from repro.core.engines import (
    CoverageEngine,
    EngineLike,
    MarginalGainEngine,
    RecountEngine,
    make_engine,
)
from repro.core.model import Phase1Substrate, ProtectionResult, TPPProblem
from repro.core.node_protection import (
    NodeProtectionResult,
    node_targets,
    protect_target_nodes,
)
from repro.core.optimal import greedy_optimality_gap, optimal_protectors
from repro.core.refine import sgb_greedy_bb
from repro.core.sgb import sgb_greedy
from repro.core.verification import (
    critical_budget,
    is_fully_protected,
    protection_ratio,
    verify_result,
)
from repro.core.wt import wt_greedy

__all__ = [
    "TPPProblem",
    "Phase1Substrate",
    "ProtectionResult",
    "sgb_greedy",
    "sgb_greedy_bb",
    "ct_greedy",
    "wt_greedy",
    "random_deletion",
    "random_target_subgraph_deletion",
    "BudgetDivision",
    "BudgetUnderAllocationWarning",
    "target_subgraph_budget_division",
    "degree_product_budget_division",
    "uniform_budget_division",
    "make_budget_division",
    "validate_budget_division",
    "MarginalGainEngine",
    "CoverageEngine",
    "RecountEngine",
    "EngineLike",
    "make_engine",
    "SubgraphDissimilarity",
    "LocalIndexDissimilarity",
    "apply_link_addition",
    "apply_link_switching",
    "is_fully_protected",
    "verify_result",
    "protection_ratio",
    "critical_budget",
    "NodeProtectionResult",
    "node_targets",
    "protect_target_nodes",
    "optimal_protectors",
    "greedy_optimality_gap",
]
