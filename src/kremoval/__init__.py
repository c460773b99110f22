"""Random K_k-removal process: exact simulator and verification lab.

Start from the complete graph on n vertices, repeatedly pick a uniformly
random K_k and delete its edges until none remains.  This package runs that
process with exact clique-count bookkeeping, checks the exact combinatorial
identities behind the bookkeeping against brute force, and compares empirical
trajectories against the predicted curves and error envelopes.
"""

from .engine import ProcessTrace, RunConfig, panel_r_values, run
from .ensemble import concentration_score, exponent_fit, run_ensemble
from .graph import Graph, VertexSet, count_k_cliques, enumerate_k_cliques
from .index import CliqueIndex, ProcessTerminated, RemovalDelta
from .tail_bounds import azuma_bound, bohman_bound, chernoff_bound, union_bound_at_horizon
from .trajectory import (
    TrajectoryParams,
    alpha,
    B_constant,
    barrier_p,
    beta,
    critical_intervals,
    edges_expected,
    envelopes,
    final_size_bound,
    i0_p0,
    p_of,
    q_traj,
    r_traj,
    residuals,
    sigma,
    sigma_prime,
)

__version__ = "0.1.0"

__all__ = [
    "B_constant",
    "CliqueIndex",
    "Graph",
    "ProcessTerminated",
    "ProcessTrace",
    "RemovalDelta",
    "RunConfig",
    "TrajectoryParams",
    "VertexSet",
    "alpha",
    "azuma_bound",
    "barrier_p",
    "beta",
    "bohman_bound",
    "chernoff_bound",
    "concentration_score",
    "count_k_cliques",
    "critical_intervals",
    "edges_expected",
    "enumerate_k_cliques",
    "envelopes",
    "exponent_fit",
    "final_size_bound",
    "i0_p0",
    "p_of",
    "panel_r_values",
    "q_traj",
    "r_traj",
    "residuals",
    "run",
    "run_ensemble",
    "sigma",
    "sigma_prime",
    "union_bound_at_horizon",
]
