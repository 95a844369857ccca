"""Eigenvalue solvers for graph Laplacians.

The spectral bound of Theorem 4 needs the ``h`` smallest eigenvalues of a
symmetric positive semi-definite Laplacian.  This subpackage provides

* :mod:`backends` — the :class:`SpectralBackend` protocol, its four
  implementations (``dense``, ``sparse``, ``lobpcg``, ``amg``), ``auto``
  routing, :func:`solve_smallest`, and :class:`WarmStartContext` for
  seeding re-solves with earlier Ritz vectors,
* :mod:`backend` — :class:`EigenSolverOptions` (``method`` and ``dtype``,
  the hashable object all cache tiers key on),
* :mod:`amg` — a pure-SciPy smoothed-aggregation multigrid V-cycle (the
  ``amg`` backend's preconditioner when ``pyamg`` is not installed),
* :mod:`coarsen` — interlacing-certified spectral coarsening: eigenvalue
  *intervals* from a principal-submatrix solve at a fraction of the cost,
* :mod:`dense` — exact dense spectra via LAPACK (``numpy.linalg.eigvalsh``),
  the reference the tests check every backend against,
* :mod:`spectrum_cache` — an LRU cache of eigensolves keyed by the graph's
  structural fingerprint, shared by all bound computations so repeated
  bounds on the same graph solve once.
"""

from repro.solvers.backend import EigenSolverOptions
from repro.solvers.backends import (
    BackendSolveResult,
    SpectralBackend,
    WarmStartContext,
    available_backends,
    create_backend,
    default_warm_start_context,
    resolve_method,
    solve_smallest,
)
from repro.solvers.coarsen import (
    IntervalSpectrum,
    certified_interval_spectrum,
    coarse_variant,
)
from repro.solvers.dense import dense_spectrum, dense_smallest_eigenvalues
from repro.solvers.spectrum_cache import (
    CachedIntervalSpectrum,
    CachedSpectrum,
    SpectrumCache,
    default_spectrum_cache,
)

__all__ = [
    "solve_smallest",
    "resolve_method",
    "EigenSolverOptions",
    "BackendSolveResult",
    "SpectralBackend",
    "WarmStartContext",
    "available_backends",
    "create_backend",
    "default_warm_start_context",
    "IntervalSpectrum",
    "certified_interval_spectrum",
    "coarse_variant",
    "CachedSpectrum",
    "CachedIntervalSpectrum",
    "SpectrumCache",
    "default_spectrum_cache",
    "dense_spectrum",
    "dense_smallest_eigenvalues",
]
