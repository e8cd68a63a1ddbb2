"""Shared fixtures/builders for the test suite."""

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.model import (
    Design,
    Die,
    EscapePoint,
    IOBuffer,
    Interposer,
    MicroBump,
    Package,
    Signal,
    TSV,
)
from repro.netflow import FlowNetwork, MCMFResult, min_cost_max_flow


def build_design(**overrides):
    """A small, fully valid two-die design used across these tests."""
    dies = overrides.pop(
        "dies",
        [
            Die(
                id="d1",
                width=1.0,
                height=1.0,
                buffers=[IOBuffer("b1", "d1", Point(0.9, 0.5), "s1")],
                bumps=[
                    MicroBump("m1", "d1", Point(0.8, 0.5)),
                    MicroBump("m2", "d1", Point(0.6, 0.5)),
                ],
            ),
            Die(
                id="d2",
                width=1.0,
                height=1.0,
                buffers=[IOBuffer("b2", "d2", Point(0.1, 0.5), "s1")],
                bumps=[MicroBump("m3", "d2", Point(0.2, 0.5))],
            ),
        ],
    )
    interposer = overrides.pop(
        "interposer",
        Interposer(width=3.0, height=2.0, tsvs=[TSV("t1", Point(1.5, 1.0))]),
    )
    package = overrides.pop(
        "package",
        Package(
            frame=Rect(-0.5, -0.5, 4.0, 3.0),
            escape_points=[EscapePoint("e1", Point(-0.5, 0.0), "s1")],
        ),
    )
    signals = overrides.pop("signals", [Signal("s1", ("b1", "b2"), "e1")])
    return Design(
        name="unit",
        dies=dies,
        interposer=interposer,
        package=package,
        signals=signals,
        **overrides,
    )


def ssp_assignment(matrix) -> MCMFResult:
    """The dict-graph SSP oracle on an assignment matrix.

    Builds source -> rows -> columns -> sink with unit capacities and one
    arc per finite entry, and returns the min-cost max-flow result.
    """
    n_rows, n_cols = matrix.shape
    net = FlowNetwork()
    s = net.add_node("s")
    t = net.add_node("t")
    rows = [net.add_node() for _ in range(n_rows)]
    cols = [net.add_node() for _ in range(n_cols)]
    for u in rows:
        net.add_edge(s, u, 1, 0.0)
    for v in cols:
        net.add_edge(v, t, 1, 0.0)
    for i, j in zip(*np.nonzero(np.isfinite(matrix))):
        net.add_edge(rows[i], cols[j], 1, float(matrix[i, j]))
    return min_cost_max_flow(net, s, t)
