"""Reference bounds and the correctness gate.

Small graphs get the independent dense per-edge oracle: each directed edge
``(u, v)`` adds ``1/d_out(u)`` (normalized) or 1 (unnormalized) to the
symmetric adjacency, ``L = D - A``, LAPACK eigenvalues, then
``max_k floor(n / (k p)) * sum(lam[:k]) - 2 k M`` over ``k = 2..h``, clamped
at 0; unnormalized eigenvalues are divided by the largest out-degree.  A
chain (a path) uses the closed form ``2 - 2 cos(pi k / n)``.  Larger graphs
and the convex min-cut baseline use the answer of an in-process
``BoundService`` with no store.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.linalg

from repro.runtime.service import BoundQuery, BoundService

#: Largest graph the dense oracle handles; larger ones use the service.
DENSE_ORACLE_MAX_VERTICES = 3000

#: Eigenvalue truncation h, the program's default.
NUM_EIGENVALUES = 100

#: Absolute + relative slack between a served bound and its reference.
ABS_TOL = 1e-6
REL_TOL = 1e-7


def dense_spectrum(num_vertices: int, edges: np.ndarray, normalized: bool, h: int) -> np.ndarray:
    """The ``h`` smallest eigenvalues, built edge by edge."""
    n = num_vertices
    out_degree = np.bincount(edges[:, 0], minlength=n).astype(np.float64)
    weights = 1.0 / out_degree[edges[:, 0]] if normalized else np.ones(len(edges))
    adjacency = np.zeros((n, n))
    np.add.at(adjacency, (edges[:, 0], edges[:, 1]), weights)
    np.add.at(adjacency, (edges[:, 1], edges[:, 0]), weights)
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    values = scipy.linalg.eigvalsh(laplacian, subset_by_index=[0, h - 1])
    if not normalized:
        max_out = out_degree.max() if n else 0.0
        values = values / max_out if max_out else values * 0.0
    return values


def chain_spectrum(num_vertices: int, h: int) -> np.ndarray:
    """Path-graph eigenvalues (a chain has out-degree 1, so both normalizations agree)."""
    k = np.arange(h, dtype=np.float64)
    return 2.0 - 2.0 * np.cos(np.pi * k / num_vertices)


def bound_from_spectrum(values: np.ndarray, n: int, memory_size: int, processors: int = 1) -> float:
    best = -np.inf
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    for k in range(2, len(values) + 1):
        best = max(best, (n // (k * processors)) * prefix[k] - 2.0 * k * memory_size)
    return max(0.0, float(best))


class References:
    """Reference values, computed once per graph and normalization."""

    def __init__(self) -> None:
        self._spectra: Dict[Tuple[str, bool], np.ndarray] = {}
        self._service = None
        # Graph key whose references are lowered, to prove the gate trips.
        self.perturb: Optional[str] = None

    def _spectrum(self, key: str, graph, normalized: bool) -> np.ndarray:
        cache_key = (key, normalized)
        if cache_key not in self._spectra:
            n = graph.num_vertices
            h = min(NUM_EIGENVALUES, n)
            if key.startswith("chain:"):
                self._spectra[cache_key] = chain_spectrum(n, h)
            else:
                edges = np.asarray(graph.edge_array(), dtype=np.int64).reshape(-1, 2)
                self._spectra[cache_key] = dense_spectrum(n, edges, normalized, h)
        return self._spectra[cache_key]

    def expected(self, key: str, graph, graph_ref, memory_size: int,
                 processors: int, normalization: str, method: str) -> float:
        """The exact bound a query must be answered with.

        ``key`` names the graph (``family:size`` or a fingerprint) and
        ``graph_ref`` is the same graph as the service takes it.  For
        ``spectral-coarse`` this is the exact bound the interval must
        bracket.
        """
        normalized = normalization == "normalized"
        dense = graph.num_vertices <= DENSE_ORACLE_MAX_VERTICES or key.startswith("chain:")
        if method == "convex-min-cut" or not dense:
            if self._service is None:
                self._service = BoundService(store=None)
            query = BoundQuery(
                graph=graph_ref, memory_size=memory_size,
                num_processors=1 if method == "convex-min-cut" else processors,
                normalization="normalized" if normalized else "unnormalized",
                method="convex-min-cut" if method == "convex-min-cut" else "spectral",
            )
            value = self._service.solve(query).bound
        else:
            values = self._spectrum(key, graph, normalized)
            value = bound_from_spectrum(values, graph.num_vertices, memory_size, processors)
        if self.perturb == key:
            value -= 1.0 + 0.1 * abs(value)
        return value


def _slack(expected: float) -> float:
    return ABS_TOL + REL_TOL * abs(expected)


def close(served: float, expected: float) -> bool:
    return abs(served - expected) <= _slack(expected)


def check_answer(answer, expected: float, method: str) -> Optional[str]:
    """``None`` when the served answer is right, else why it is wrong."""
    if method == "spectral-coarse":
        low = answer.bound_lo if answer.bound_lo is not None else answer.bound
        high = answer.bound_hi
        if not close(answer.bound, low):
            return f"coarse bound {answer.bound} is not its lower end {low}"
        if low > expected + _slack(expected):
            return f"coarse lower end {low} above the exact bound {expected}"
        if high is not None and high < expected - _slack(expected):
            return f"coarse upper end {high} below the exact bound {expected}"
        return None
    if answer.bound > expected + _slack(expected):
        return f"bound {answer.bound} above its reference {expected}"
    if not close(answer.bound, expected):
        return f"bound {answer.bound} differs from its reference {expected}"
    return None
