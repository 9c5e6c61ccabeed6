"""Panel Gauss-Legendre quadrature over measurement bins of the torus cell.

Integrands here are analytic apart from isolated |.| kinks, so fixed panel
layouts with escalating node counts converge geometrically; every routine
verifies self-consistency between two refinement levels and raises
QuadratureNotConverged instead of returning a silently bad number.

Grid evaluators: callables f(xs, zs) -> array (len(xs), len(zs)). The Wigner
evaluators in this package are cheap on tensor grids, so each refinement
level costs a single call. The cell integral and 1-D bin integrals that the
checks use are built on the same escalation in oracles.py.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss


class QuadratureNotConverged(RuntimeError):
    """Two successive refinement levels failed to agree to tolerance."""


def panel_rule(edges, nodes_per_panel: int):
    """Gauss-Legendre nodes and weights on each interval of an edge list."""
    edges = np.asarray(edges, dtype=float)
    assert edges.ndim == 1 and edges.size >= 2 and np.all(np.diff(edges) > 0)
    x, w = leggauss(nodes_per_panel)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def escalate(level, abs_tol: float, start_nodes: int = 8, max_nodes: int = 48):
    """Evaluate level(nodes) at growing node counts until two levels agree.

    Returns (value, change): the final level's value and the largest change
    from the level before it, at most abs_tol.
    """
    prev = None
    nodes = start_nodes
    while nodes <= max_nodes:
        val = level(nodes)
        if prev is not None:
            change = float(np.max(np.abs(val - prev)))
            if change <= abs_tol:
                return val, change
        prev = val
        nodes += max(4, nodes // 2)
    raise QuadratureNotConverged(
        f"node escalation did not settle below {abs_tol:.1e} by {max_nodes} nodes"
    )


def integrate_bins_x(
    eval_grid,
    bin_edges,
    z_edges,
    panels_per_bin: int = 4,
    abs_tol: float = 1e-9,
    start_nodes: int = 8,
    max_nodes: int = 48,
):
    """Per-bin integrals along x (full z range), sharing one grid per level.

    bin_edges has K+1 entries; returns an array of K integrals. Each bin is
    internally split into panels_per_bin panels.
    """
    bin_edges = np.asarray(bin_edges, dtype=float)

    def level(nodes):
        px, wx = zip(*(
            panel_rule(np.linspace(lo, hi, panels_per_bin + 1), nodes)
            for lo, hi in zip(bin_edges[:-1], bin_edges[1:])
        ))
        pz, wz = panel_rule(z_edges, nodes)
        row = (eval_grid(np.concatenate(px), pz) @ wz).reshape(len(px), -1)
        return np.array([w @ r for w, r in zip(wx, row)])

    return escalate(level, abs_tol, start_nodes, max_nodes)
