"""Network-flow substrate: the assignment kernel every sub-SAP is solved
with, and the flow network + min-cost max-flow solver kept as its oracle."""

from .assignment import AssignmentSolution, min_cost_assignment
from .graph import FlowNetwork
from .mcmf import COST_EPS, MCMFResult, min_cost_max_flow
from .validate import conservation_violations, has_negative_residual_cycle

__all__ = [
    "AssignmentSolution",
    "COST_EPS",
    "FlowNetwork",
    "MCMFResult",
    "conservation_violations",
    "has_negative_residual_cycle",
    "min_cost_assignment",
    "min_cost_max_flow",
]
