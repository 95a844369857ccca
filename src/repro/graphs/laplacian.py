"""Laplacian and adjacency matrices of computation graphs.

Section 4.2 of the paper transforms the directed computation graph ``G`` into
a weighted undirected graph ``G~``: each directed edge ``(u, v)`` becomes an
undirected edge of weight ``1 / d_out(u)``.  The spectral bound of Theorem 4
uses the Laplacian ``L~ = D~ - A~`` of that weighted graph; the looser bound
of Theorem 5 uses the ordinary (unweighted, undirected) Laplacian
``L = D - A`` divided by the maximum out-degree.

This module builds both, in dense (:class:`numpy.ndarray`) or sparse
(:class:`scipy.sparse.csr_matrix`) form.  All constructions are fully
vectorized over the graph's frozen edge array
(:meth:`repro.graphs.compgraph.ComputationGraph.freeze`): there are no
per-edge Python loops, so assembling the Laplacian of a ~53k-vertex 12-level
FFT butterfly costs milliseconds, not seconds.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.compgraph import ComputationGraph
from repro.graphs.csr import pack_edge_keys, unpack_edge_key

__all__ = [
    "undirected_weights",
    "adjacency_matrix",
    "degree_vector",
    "laplacian",
    "LaplacianOperator",
    "laplacian_operator",
    "normalized_laplacian",
    "laplacian_quadratic_form",
]

MatrixLike = Union[np.ndarray, sp.csr_matrix]


def _edge_weights(view, normalized: bool) -> np.ndarray:
    """Per-directed-edge weights: ``1/d_out(u)`` if normalized else 1."""
    if not normalized:
        return np.ones(view.num_edges, dtype=np.float64)
    # Every edge (u, v) implies d_out(u) >= 1, so the division is safe.
    return 1.0 / view.out_degrees[view.edges[:, 0]].astype(np.float64)


def undirected_weights(
    graph: ComputationGraph, normalized: bool = True
) -> Dict[Tuple[int, int], float]:
    """Weights of the undirected graph ``G~`` derived from ``graph``.

    Each directed edge ``(u, v)`` contributes weight ``1 / d_out(u)`` (or 1 if
    ``normalized`` is False) to the undirected pair ``{u, v}``.  If both
    ``(u, v)`` and ``(v, u)`` existed the weights would accumulate, but a
    valid computation graph is acyclic so this cannot happen; the accumulation
    logic is kept for robustness.

    Returns
    -------
    dict
        Mapping from ordered pairs ``(min(u, v), max(u, v))`` to weights.
    """
    view = graph.freeze()
    if view.num_edges == 0:
        return {}
    w = _edge_weights(view, normalized)
    u, v = view.edge_endpoints()
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keys = pack_edge_keys(lo, hi)
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=w, minlength=unique_keys.shape[0])
    return {
        unpack_edge_key(key): weight
        for key, weight in zip(unique_keys.tolist(), sums.tolist())
    }


def adjacency_matrix(
    graph: ComputationGraph,
    normalized: bool = False,
    sparse: bool = False,
    directed: bool = False,
) -> MatrixLike:
    """Adjacency matrix of ``graph``.

    Parameters
    ----------
    graph:
        The computation graph.
    normalized:
        If True, build the adjacency of the out-degree-normalised undirected
        graph ``G~`` (weight ``1/d_out(u)`` per directed edge); otherwise the
        unweighted adjacency.
    sparse:
        Return a CSR matrix instead of a dense array.
    directed:
        If True, return the directed adjacency ``A[u, v] = w(u -> v)``;
        otherwise symmetrise (each directed edge contributes to both ``(u, v)``
        and ``(v, u)``), which is the adjacency of ``G~`` used by the bounds.
    """
    view = graph.freeze()
    n = view.num_vertices
    u, v = view.edge_endpoints()
    w = _edge_weights(view, normalized)
    if directed:
        rows, cols, vals = u, v, w
    else:
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        vals = np.concatenate([w, w])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.float64)
    # Duplicate entries (possible only in non-DAG inputs) are summed by COO->CSR.
    csr = mat.tocsr()
    if sparse:
        return csr
    return np.asarray(csr.todense())


def degree_vector(graph: ComputationGraph, normalized: bool = False) -> np.ndarray:
    """Weighted degree vector of the undirected graph ``G~`` (or of ``G``'s
    undirected version when ``normalized`` is False).

    For ``normalized=True`` the degree of vertex ``x`` is
    ``sum over incident directed edges (u, v) with x in {u, v} of 1/d_out(u)``.
    """
    view = graph.freeze()
    n = view.num_vertices
    u, v = view.edge_endpoints()
    w = _edge_weights(view, normalized)
    return np.bincount(u, weights=w, minlength=n) + np.bincount(
        v, weights=w, minlength=n
    )


def laplacian(
    graph: ComputationGraph, normalized: bool = True, sparse: bool = False
) -> MatrixLike:
    """Graph Laplacian ``L = D - A`` of the undirected (optionally
    out-degree-normalised) version of ``graph``.

    ``normalized=True`` yields ``L~`` (Theorem 4); ``normalized=False`` yields
    the ordinary Laplacian ``L`` (Theorem 5).  The result is symmetric
    positive semi-definite with row sums equal to zero.
    """
    adj = adjacency_matrix(graph, normalized=normalized, sparse=True, directed=False)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    lap = sp.diags(deg, format="csr") - adj
    lap = lap.tocsr()
    if sparse:
        return lap
    return np.asarray(lap.todense())


class LaplacianOperator(spla.LinearOperator):
    """Matrix-free Laplacian ``L = D - A`` over the frozen CSR adjacency.

    Stores only the sparse symmetrised adjacency (O(m) memory) and the
    weighted degree vector; ``matvec``/``matmat`` compute ``deg * x - A @ x``
    without ever materialising the n-by-n Laplacian.  This is what lets the
    iterative backends run on graphs whose dense Laplacian would not fit in
    memory (n = 100k already means 80 GB dense).

    Parameters
    ----------
    adjacency:
        Symmetric CSR adjacency of the undirected graph ``G~``.
    degrees:
        Weighted degree vector (the adjacency row sums); recomputed when
        omitted.
    block_rows:
        Optional row-block size: products are evaluated in row blocks of
        this many rows, bounding the transient output footprint when the
        right-hand side is a wide block (LOBPCG subspaces).
        ``None`` applies the whole operator at once.
    """

    def __init__(
        self,
        adjacency: sp.csr_matrix,
        degrees: Optional[np.ndarray] = None,
        block_rows: Optional[int] = None,
        dtype: np.dtype = np.float64,
    ) -> None:
        adj = adjacency.tocsr()
        if adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if block_rows is not None and block_rows < 1:
            raise ValueError(f"block_rows must be positive, got {block_rows}")
        dtype = np.dtype(dtype)
        if adj.dtype != dtype:
            adj = adj.astype(dtype)
        if degrees is None:
            degrees = np.asarray(adj.sum(axis=1)).ravel()
        super().__init__(dtype=dtype, shape=adj.shape)
        self.adjacency = adj
        self.degrees = np.ascontiguousarray(degrees, dtype=dtype)
        self.block_rows = int(block_rows) if block_rows is not None else None
        self._csr: Optional[sp.csr_matrix] = None

    @property
    def nnz(self) -> int:
        """Stored nonzeros (adjacency entries plus the diagonal)."""
        return self.adjacency.nnz + self.shape[0]

    def _apply(self, x: np.ndarray) -> np.ndarray:
        deg = self.degrees if x.ndim == 1 else self.degrees[:, None]
        if self.block_rows is None or self.shape[0] <= self.block_rows:
            return deg * x - self.adjacency @ x
        n = self.shape[0]
        out = np.empty(x.shape, dtype=np.result_type(self.dtype, x.dtype))
        for start in range(0, n, self.block_rows):
            stop = min(start + self.block_rows, n)
            block = self.adjacency[start:stop] @ x
            if x.ndim == 1:
                out[start:stop] = self.degrees[start:stop] * x[start:stop] - block
            else:
                out[start:stop] = (
                    self.degrees[start:stop, None] * x[start:stop] - block
                )
        return out

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        return self._apply(np.asarray(x).ravel())

    def _matmat(self, x: np.ndarray) -> np.ndarray:
        return self._apply(np.asarray(x))

    def _adjoint(self) -> "LaplacianOperator":
        return self  # symmetric by construction

    def diagonal(self) -> np.ndarray:
        """Laplacian diagonal (``G~`` is loop-free, so this is the degrees)."""
        return self.degrees

    def tocsr(self) -> sp.csr_matrix:
        """Materialise (and cache) the sparse Laplacian ``D - A``.

        Used by backends that need explicit entries (shift-invert
        factorisations, AMG hierarchy setup); still O(m) memory.
        """
        if self._csr is None:
            lap = sp.diags(self.degrees, format="csr") - self.adjacency
            self._csr = lap.tocsr()
        return self._csr

    def astype(self, dtype: np.dtype) -> "LaplacianOperator":
        """This operator with entries cast to ``dtype`` (self if unchanged)."""
        dtype = np.dtype(dtype)
        if dtype == self.dtype:
            return self
        return LaplacianOperator(
            self.adjacency, self.degrees, block_rows=self.block_rows, dtype=dtype
        )


def laplacian_operator(
    graph: ComputationGraph,
    normalized: bool = True,
    block_rows: Optional[int] = None,
) -> LaplacianOperator:
    """Matrix-free :class:`LaplacianOperator` for ``graph``.

    Semantically identical to ``laplacian(graph, normalized, sparse=True)``
    (same ``@`` results to rounding) but never forms ``D - A`` explicitly
    unless a consumer asks for :meth:`LaplacianOperator.tocsr`.  See
    :class:`LaplacianOperator` for ``block_rows``.
    """
    adj = adjacency_matrix(graph, normalized=normalized, sparse=True, directed=False)
    return LaplacianOperator(adj, block_rows=block_rows)


def normalized_laplacian(graph: ComputationGraph, sparse: bool = False) -> MatrixLike:
    """Convenience alias for the out-degree-normalised Laplacian ``L~``."""
    return laplacian(graph, normalized=True, sparse=sparse)


def laplacian_quadratic_form(lap: MatrixLike, x: np.ndarray) -> float:
    """Evaluate ``x^T L x`` for a dense or sparse Laplacian.

    For an indicator vector ``x`` of a vertex subset ``S`` this equals the
    weighted edge boundary of ``S`` (Equation 3 of the paper), which is what
    the partition bound counts.
    """
    x = np.asarray(x, dtype=np.float64)
    if sp.issparse(lap):
        return float(x @ (lap @ x))
    return float(x @ np.asarray(lap) @ x)
