"""Spectral I/O lower bounds (Theorems 4, 5 and 6 of the paper).

The central results:

* **Theorem 4 (spectral method)** — for any ``k <= n``,

      J*_G  >=  floor(n/k) * sum_{i=1..k} lambda_i(L~)  -  2 k M

  where ``L~`` is the Laplacian of the out-degree-normalised undirected graph
  and the eigenvalues are sorted increasingly.  Any ``k`` gives a valid lower
  bound, so the implementation sweeps ``k`` over ``2 .. h`` (``h = 100`` by
  default, the truncation used in §6.1) and takes the maximum; ``k = 1`` is
  excluded from the default sweep because ``lambda_1(L~) = 0`` makes its
  expression ``-2M``, which can never win (an explicit ``k=1`` is still
  honoured).

* **Theorem 5** — the same statement with the ordinary Laplacian ``L``
  divided by the maximum out-degree; looser but convenient when only
  ``lambda(L)`` is known in closed form.

* **Theorem 6 (parallel)** — with ``p`` processors of fast-memory ``M`` each,
  at least one processor incurs
  ``floor(n/(k p)) * sum_{i=1..k} lambda_i(L~) - 2 k M``.

All three bounds clamp at zero: a negative value simply means the relaxation
is uninformative for that graph and memory size.

Execution is delegated to :class:`repro.core.engine.BoundEngine`: each public
function here builds a throwaway engine (with a private spectrum cache, so
the historical one-eigensolve-per-call semantics are preserved), while code
that evaluates many bounds on the same graph should hold a ``BoundEngine``
directly — or pass a shared :class:`~repro.solvers.spectrum_cache
.SpectrumCache` via ``cache=`` — to amortise the eigensolve.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import BoundEngine, KSpec
from repro.core.formula import (
    DEFAULT_NUM_EIGENVALUES,
    evaluate_bound_formula,
)
from repro.core.result import ParallelBoundResult, SpectralBoundResult
from repro.graphs.compgraph import ComputationGraph
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.spectrum_cache import SpectrumCache

__all__ = [
    "DEFAULT_NUM_EIGENVALUES",
    "bound_spectrum",
    "spectral_bound",
    "spectral_bound_unnormalized",
    "spectral_bound_from_eigenvalues",
    "spectral_bounds_for_memory_sizes",
    "parallel_spectral_bound",
]


def _engine(
    graph: ComputationGraph,
    num_eigenvalues: int,
    eig_options: Optional[EigenSolverOptions],
    sparse: Optional[bool],
    cache: Optional[SpectrumCache],
) -> BoundEngine:
    """Engine used by the one-shot wrappers.

    With ``cache=None`` each wrapper call gets a private single-entry cache,
    keeping the historical semantics (every call performs its own
    eigensolve); callers that want cross-call reuse pass a shared cache.
    """
    return BoundEngine(
        graph,
        num_eigenvalues=num_eigenvalues,
        eig_options=eig_options,
        sparse=sparse,
        cache=cache if cache is not None else SpectrumCache(max_entries=2),
    )


def spectral_bound_from_eigenvalues(
    eigenvalues: Sequence[float],
    num_vertices: int,
    M: int,
    k: KSpec = None,
    num_processors: int = 1,
) -> Tuple[float, int, Dict[int, float]]:
    """Evaluate the Theorem 4/6 expression given precomputed eigenvalues.

    Parameters
    ----------
    eigenvalues:
        The smallest eigenvalues of the (normalised) Laplacian, ascending.
        Only as many ``k`` values as there are eigenvalues can be swept.
    num_vertices:
        ``n``, the number of vertices of the graph.
    M:
        Fast-memory size.
    k:
        ``None`` to sweep ``k = 2 ..`` (all available eigenvalues); an int or
        a sequence to evaluate specific values.
    num_processors:
        ``p >= 1``; the sequential bound is the ``p = 1`` special case.

    Returns
    -------
    (best_value, best_k, per_k_values)
        ``best_value`` is the raw (un-clamped) maximum over the swept ``k``.
    """
    return evaluate_bound_formula(
        eigenvalues, num_vertices, M, k=k, num_processors=num_processors
    )


def bound_spectrum(
    graph: ComputationGraph,
    num_eigenvalues: int = DEFAULT_NUM_EIGENVALUES,
    normalized: bool = True,
    eig_options: Optional[EigenSolverOptions] = None,
    sparse: Optional[bool] = None,
    cache: Optional[SpectrumCache] = None,
) -> np.ndarray:
    """The smallest Laplacian eigenvalues a spectral bound needs.

    Computes the ``min(num_eigenvalues, n)`` smallest eigenvalues of ``L~``
    (``normalized=True``) or of ``L / max_out_degree`` (``normalized=False``).
    The eigenvalues depend only on the graph — not on the memory size ``M`` —
    so sweeps over several ``M`` values should compute them once (that is
    what :func:`spectral_bounds_for_memory_sizes` and
    :class:`~repro.core.engine.BoundEngine` do).
    """
    return _engine(graph, num_eigenvalues, eig_options, sparse, cache).spectrum(
        normalized=normalized
    )


def spectral_bounds_for_memory_sizes(
    graph: ComputationGraph,
    memory_sizes: Sequence[int],
    k: KSpec = None,
    num_eigenvalues: int = DEFAULT_NUM_EIGENVALUES,
    normalized: bool = True,
    eig_options: Optional[EigenSolverOptions] = None,
    sparse: Optional[bool] = None,
    cache: Optional[SpectrumCache] = None,
) -> Dict[int, SpectralBoundResult]:
    """Spectral bounds for several memory sizes with one eigensolve.

    Returns a mapping ``M -> SpectralBoundResult``.  Equivalent to calling
    :func:`spectral_bound` per ``M`` but amortises the (dominant) eigenvalue
    computation.  The eigensolve cost lands in the ``elapsed_seconds`` of the
    first result only (the call that performed it); every result reports it
    separately in ``eig_elapsed_seconds``, so summing ``elapsed_seconds``
    over the sweep attributes the eigensolve exactly once.
    """
    engine = _engine(graph, num_eigenvalues, eig_options, sparse, cache)
    results: Dict[int, SpectralBoundResult] = {}
    for M in memory_sizes:
        if normalized:
            results[int(M)] = engine.spectral(M, k=k)
        else:
            results[int(M)] = engine.unnormalized(M, k=k)
    return results


def spectral_bound(
    graph: ComputationGraph,
    M: int,
    k: KSpec = None,
    num_eigenvalues: int = DEFAULT_NUM_EIGENVALUES,
    normalized: bool = True,
    eig_options: Optional[EigenSolverOptions] = None,
    sparse: Optional[bool] = None,
    cache: Optional[SpectrumCache] = None,
) -> SpectralBoundResult:
    """Spectral I/O lower bound for a computation graph (Theorem 4).

    Parameters
    ----------
    graph:
        The computation graph ``G``.
    M:
        Fast-memory size in elements.
    k:
        Number of partition segments.  ``None`` (default) sweeps
        ``k = 2 .. min(num_eigenvalues, n)`` (§6.1) and returns the best
        bound; an integer evaluates one specific ``k``; a sequence sweeps
        exactly those values.
    num_eigenvalues:
        The truncation ``h``: how many of the smallest Laplacian eigenvalues
        to compute when sweeping (default 100, as in §6.1 of the paper).
    normalized:
        ``True`` uses the out-degree-normalised Laplacian ``L~`` (Theorem 4);
        ``False`` uses ``L / max_out_degree`` (Theorem 5).
    eig_options:
        Optional eigensolver configuration (backend and dtype).
    sparse:
        Force sparse (True) or dense (False) Laplacian assembly; ``None``
        decides by graph size.
    cache:
        Optional shared :class:`SpectrumCache`; by default each call solves
        independently.

    Returns
    -------
    SpectralBoundResult
        The bound (clamped at zero), the best ``k``, the eigenvalues used and
        the full ``k``-sweep for diagnostics.
    """
    engine = _engine(graph, num_eigenvalues, eig_options, sparse, cache)
    if normalized:
        return engine.spectral(M, k=k)
    return engine.unnormalized(M, k=k)


def spectral_bound_unnormalized(
    graph: ComputationGraph,
    M: int,
    k: KSpec = None,
    num_eigenvalues: int = DEFAULT_NUM_EIGENVALUES,
    eig_options: Optional[EigenSolverOptions] = None,
    sparse: Optional[bool] = None,
    cache: Optional[SpectrumCache] = None,
) -> SpectralBoundResult:
    """Theorem 5 variant: ordinary Laplacian ``L`` scaled by ``1/max d_out``.

    Equivalent to ``spectral_bound(..., normalized=False)``; provided as a
    named entry point because the closed-form analyses of Section 5 are all
    stated in this form.
    """
    return spectral_bound(
        graph,
        M,
        k=k,
        num_eigenvalues=num_eigenvalues,
        normalized=False,
        eig_options=eig_options,
        sparse=sparse,
        cache=cache,
    )


def parallel_spectral_bound(
    graph: ComputationGraph,
    M: int,
    num_processors: int,
    k: KSpec = None,
    num_eigenvalues: int = DEFAULT_NUM_EIGENVALUES,
    normalized: bool = True,
    eig_options: Optional[EigenSolverOptions] = None,
    sparse: Optional[bool] = None,
    cache: Optional[SpectrumCache] = None,
) -> ParallelBoundResult:
    """Parallel spectral bound (Theorem 6).

    With ``p = num_processors`` processors, each with fast memory ``M``, at
    least one processor incurs at least the returned number of I/Os
    (communication with slow memory or with other processors).  The
    sequential bound is recovered with ``p = 1``.
    """
    engine = _engine(graph, num_eigenvalues, eig_options, sparse, cache)
    return engine.parallel(M, num_processors, k=k, normalized=normalized)
