"""A residual-arc flow network.

The SAP is solved per die by min-cost max-flow (Section 4.1).  The flow
itself is computed by the dense assignment kernel in
:mod:`repro.netflow.assignment`; this module provides the network
container of the successive-shortest-path solver that is kept as the
kernel's test oracle.  The representation is the standard paired-arc
scheme: arcs are stored in a flat array with the reverse arc of arc ``a``
at index ``a ^ 1``, which makes the residual updates inside the solver
branch-free.
"""

from __future__ import annotations

from typing import List, Optional


class FlowNetwork:
    """A directed flow network with per-arc capacity and cost."""

    def __init__(self) -> None:
        self._adjacency: List[List[int]] = []
        self._labels: List[Optional[str]] = []
        self.arc_to: List[int] = []
        self.arc_cap: List[float] = []
        self.arc_cost: List[float] = []
        self._arc_initial_cap: List[float] = []

    # -- construction ------------------------------------------------------------

    def add_node(self, label: Optional[str] = None) -> int:
        """Add a node; returns its index."""
        self._adjacency.append([])
        self._labels.append(label)
        return len(self._adjacency) - 1

    def add_edge(self, u: int, v: int, capacity: float, cost: float) -> int:
        """Add a ``u -> v`` arc; returns the forward arc's id.

        The reverse (residual) arc is created automatically at ``id ^ 1``
        with zero capacity and negated cost.
        """
        if capacity < 0:
            raise ValueError("arc capacity must be non-negative")
        n = len(self._adjacency)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc endpoints ({u}, {v}) out of range")
        arc_id = len(self.arc_to)
        self.arc_to.append(v)
        self.arc_cap.append(capacity)
        self.arc_cost.append(cost)
        self._arc_initial_cap.append(capacity)
        self._adjacency[u].append(arc_id)
        self.arc_to.append(u)
        self.arc_cap.append(0.0)
        self.arc_cost.append(-cost)
        self._arc_initial_cap.append(0.0)
        self._adjacency[v].append(arc_id + 1)
        return arc_id

    # -- accessors -----------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._adjacency)

    @property
    def arc_count(self) -> int:
        """Number of *forward* arcs (half the stored residual arcs)."""
        return len(self.arc_to) // 2

    def label(self, node: int) -> Optional[str]:
        """Optional debug label of a node."""
        return self._labels[node]

    def arcs_from(self, node: int) -> List[int]:
        """Arc ids (forward and residual) leaving a node."""
        return self._adjacency[node]

    def flow_on(self, arc_id: int) -> float:
        """Current flow on a forward arc."""
        return self._arc_initial_cap[arc_id] - self.arc_cap[arc_id]

    def initial_capacity(self, arc_id: int) -> float:
        """Capacity an arc was created with."""
        return self._arc_initial_cap[arc_id]

    def arc_source(self, arc_id: int) -> int:
        """Tail node of an arc (head of its paired reverse arc)."""
        return self.arc_to[arc_id ^ 1]

    def reset_flow(self) -> None:
        """Restore all capacities, discarding any routed flow."""
        self.arc_cap = list(self._arc_initial_cap)
