"""Tests for the paper-scale spectral engine (PR 6).

Covers the three tentpole layers and their contracts:

* the pure-SciPy smoothed-aggregation AMG machinery (aggregation covers
  every vertex, the V-cycle contracts residuals, block application matches
  column-wise matvecs) and the ``amg`` backend's closed-form parity on
  hypercube/butterfly spectra — cold and warm, float64 and float32 — at
  sizes that exercise the *real* multigrid path, not the dense fallback;
* matrix-free :class:`~repro.graphs.laplacian.LaplacianOperator` inputs
  (including sharded row blocks) agreeing with assembled-CSR solves, and
  ``resolve_method`` auto-routing (dense / sparse / amg by size, resolved
  ids recorded everywhere an ``"auto"`` could previously leak);
* interlacing-certified coarsening: hypothesis property tests that the
  certified intervals contain the exact eigenvalues on random DAGs (both
  the raw interval arithmetic and the public entry point), non-trivial
  lower ends for small deletion counts, the interval cache/store tiers,
  and the engine/service surfaces (``spectral_interval``,
  ``method="spectral-coarse"``).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import BoundEngine
from repro.core.result import IntervalBoundResult
from repro.core.spectra import butterfly_spectrum_array, hypercube_spectrum_array
from repro.graphs.generators import fft_graph, hypercube_graph
from repro.graphs.generators.random_graphs import random_dag
from repro.graphs.laplacian import LaplacianOperator, laplacian, laplacian_operator
from repro.runtime.families import GraphSpec
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import SpectrumStore
from repro.solvers.amg import (
    SmoothedAggregationPreconditioner,
    aggregate_vertices,
    smoothed_aggregation_preconditioner,
    strength_graph,
)
from repro.solvers.backend import EigenSolverOptions
from repro.solvers.backends import (
    AMG_AUTO_CUTOFF,
    WarmStartContext,
    available_backends,
    resolve_method,
    solve_smallest,
)
from repro.solvers.coarsen import (
    COARSEN_MIN_VERTICES,
    _interval_arrays,
    certified_interval_spectrum,
    coarse_plan,
    coarse_variant,
    coarsen_keep_indices,
    principal_submatrix,
)
from repro.solvers.spectrum_cache import SpectrumCache

H = 12

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# (n, edge probability, seed) for small random DAGs (repo-wide idiom).
dag_params = st.tuples(
    st.integers(min_value=4, max_value=24),
    st.floats(min_value=0.05, max_value=0.9),
    st.integers(min_value=0, max_value=10_000),
)


def shifted_fft_laplacian(levels: int) -> sp.csr_matrix:
    lap = laplacian(fft_graph(levels), normalized=False, sparse=True).tocsr()
    return (lap + 1e-2 * sp.identity(lap.shape[0], format="csr")).tocsr()


class TestAmgMachinery:
    """The pure-SciPy smoothed-aggregation building blocks."""

    def test_aggregation_labels_every_vertex(self):
        matrix = shifted_fft_laplacian(6)
        labels = aggregate_vertices(strength_graph(matrix))
        assert labels.shape == (matrix.shape[0],)
        assert labels.min() >= 0
        # Aggregate ids are contiguous 0..num_aggregates-1.
        assert set(np.unique(labels)) == set(range(labels.max() + 1))
        assert labels.max() + 1 < matrix.shape[0]  # actually coarsens

    def test_hierarchy_has_multiple_levels(self):
        matrix = shifted_fft_laplacian(6)  # n = 448
        precond = SmoothedAggregationPreconditioner(matrix, coarse_size=50)
        assert precond.num_levels >= 2
        assert precond.operator_complexity() >= 1.0

    def test_vcycle_contracts_residual(self):
        matrix = shifted_fft_laplacian(6)
        precond = smoothed_aggregation_preconditioner(matrix)
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(matrix.shape[0])
        x = precond @ rhs
        assert np.linalg.norm(rhs - matrix @ x) < 0.5 * np.linalg.norm(rhs)

    def test_block_application_matches_columnwise(self):
        matrix = shifted_fft_laplacian(5)
        precond = smoothed_aggregation_preconditioner(matrix)
        rng = np.random.default_rng(1)
        block = rng.standard_normal((matrix.shape[0], 4))
        stacked = np.stack([precond @ block[:, j] for j in range(4)], axis=1)
        np.testing.assert_allclose(precond @ block, stacked, atol=1e-12)


class TestAmgBackendParity:
    """Closed-form parity at sizes where the real multigrid path runs.

    The amg backend falls back to dense below ``5 * (k + 8)`` vertices, so
    these tests use n >= 256 to guarantee LOBPCG + AMG actually executes.
    """

    def test_hypercube_parity_cold(self):
        dimension = 8  # n = 256
        exact = hypercube_spectrum_array(dimension)[:H]
        lap = laplacian(hypercube_graph(dimension), normalized=False, sparse=True)
        values = solve_smallest(lap, H, EigenSolverOptions(method="amg")).eigenvalues
        np.testing.assert_allclose(values, exact, atol=1e-5)

    def test_butterfly_parity_cold(self):
        levels = 6  # n = 448
        exact = butterfly_spectrum_array(levels)[:H]
        lap = laplacian(fft_graph(levels), normalized=False, sparse=True)
        values = solve_smallest(lap, H, EigenSolverOptions(method="amg")).eigenvalues
        np.testing.assert_allclose(values, exact, atol=1e-5)

    def test_butterfly_parity_float32(self):
        levels = 6
        exact = butterfly_spectrum_array(levels)[:H]
        lap = laplacian(fft_graph(levels), normalized=False, sparse=True)
        options = EigenSolverOptions(method="amg", dtype="float32")
        values = solve_smallest(lap, H, options).eigenvalues
        assert values.dtype == np.float64  # results are always upcast
        np.testing.assert_allclose(values, exact, atol=1e-3)

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_warm_resolve_matches_cold(self, dtype):
        options = EigenSolverOptions(method="amg", dtype=dtype)
        context = WarmStartContext()
        lap = laplacian(fft_graph(6), normalized=False, sparse=True)
        cold = solve_smallest(lap, H, options, warm_start=context, lineage="fft")
        assert not cold.warm_started
        assert cold.backend == "amg"
        warm = solve_smallest(lap, H, options, warm_start=context, lineage="fft")
        assert warm.warm_started
        atol = 1e-3 if dtype == "float32" else 1e-6
        np.testing.assert_allclose(warm.eigenvalues, cold.eigenvalues, atol=atol)

    def test_operator_input_matches_csr(self):
        graph = fft_graph(6)
        csr = laplacian(graph, normalized=False, sparse=True)
        operator = laplacian_operator(graph, normalized=False)
        options = EigenSolverOptions(method="amg")
        from_csr = solve_smallest(csr, H, options).eigenvalues
        from_op = solve_smallest(operator, H, options).eigenvalues
        np.testing.assert_allclose(from_op, from_csr, atol=1e-7)


class TestLaplacianOperator:
    def test_matvec_matches_assembled_matrix(self):
        graph = fft_graph(5)
        dense = laplacian(graph, normalized=False, sparse=False)
        operator = laplacian_operator(graph, normalized=False)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(graph.num_vertices)
        np.testing.assert_allclose(operator @ x, dense @ x, atol=1e-10)
        np.testing.assert_allclose(operator.tocsr().toarray(), dense, atol=1e-12)
        np.testing.assert_allclose(operator.diagonal(), np.diag(dense), atol=1e-12)

    def test_sharded_row_blocks_match(self):
        graph = hypercube_graph(7)
        full = laplacian_operator(graph, normalized=True)
        sharded = laplacian_operator(graph, normalized=True, block_rows=17)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(graph.num_vertices)
        block = rng.standard_normal((graph.num_vertices, 3))
        np.testing.assert_allclose(sharded @ x, full @ x, atol=1e-12)
        np.testing.assert_allclose(sharded @ block, full @ block, atol=1e-12)

    def test_astype_roundtrip(self):
        operator = laplacian_operator(fft_graph(4), normalized=False)
        assert operator.astype(np.float64) is operator
        f32 = operator.astype(np.float32)
        assert isinstance(f32, LaplacianOperator)
        assert f32.dtype == np.float32

    def test_rejects_bad_block_rows(self):
        with pytest.raises(ValueError, match="block_rows"):
            laplacian_operator(fft_graph(4), block_rows=0)


class TestResolveMethod:
    def test_explicit_method_always_wins(self):
        assert resolve_method("lobpcg", 10**6, 5) == "lobpcg"

    def test_auto_routes_by_size(self):
        assert resolve_method("auto", 100, 5) == "dense"
        assert resolve_method("auto", 10_000, 5) == "sparse"
        assert resolve_method("auto", AMG_AUTO_CUTOFF + 1, 5) == "amg"

    def test_auto_never_dense_above_cutoff(self):
        # Full-spectrum requests (k >= n-1) go dense only below the cap.
        assert resolve_method("auto", 20_000, 19_999) == "dense"
        n = 60_000
        assert resolve_method("auto", n, n - 1) == "amg"


class TestResolvedBackendRecording:
    """No surface may record the literal string "auto" as a backend id."""

    def test_solve_smallest_records_resolved_id(self):
        lap = laplacian(fft_graph(4), normalized=False, sparse=True)
        result = solve_smallest(lap, 6, EigenSolverOptions())
        assert result.backend in available_backends()

    def test_zero_eigenvalue_request_resolves_backend(self):
        lap = laplacian(fft_graph(4), normalized=False, sparse=True)
        result = solve_smallest(lap, 0, EigenSolverOptions())
        assert result.backend in available_backends()
        assert result.eigenvalues.shape == (0,)

    def test_cache_and_store_record_resolved_id(self, tmp_path):
        store = SpectrumStore(tmp_path / "s")
        cache = SpectrumCache(store=store)
        fetched = cache.spectrum(fft_graph(4), 6)  # default options: auto
        assert fetched.backend in available_backends()
        assert store.entries()[0]["backend"] in available_backends()

    def test_engine_solve_log_records_resolved_id(self):
        engine = BoundEngine(fft_graph(4), num_eigenvalues=6, cache=SpectrumCache())
        engine.spectral(M=4)
        assert all(r.backend in available_backends() for r in engine.solve_log)


class TestInterlacingContainment:
    """The certified intervals provably contain the exact eigenvalues."""

    @given(
        params=dag_params,
        keep_fraction=st.floats(min_value=0.3, max_value=1.0),
        coarsen_seed=st.integers(min_value=0, max_value=100),
    )
    @common_settings
    def test_interval_arithmetic_on_random_dags(
        self, params, keep_fraction, coarsen_seed
    ):
        """Raw interlacing arithmetic, bypassing the small-n exact shortcut."""
        n, p, seed = params
        lap = laplacian(random_dag(n, edge_probability=p, seed=seed), normalized=False)
        exact = np.linalg.eigvalsh(lap)
        num_coarse = max(1, int(round(keep_fraction * n)))
        keep = coarsen_keep_indices(n, num_coarse, seed=coarsen_seed)
        coarse = np.linalg.eigvalsh(
            principal_submatrix(sp.csr_matrix(lap), keep).toarray()
        )
        h = num_coarse
        lower, upper = _interval_arrays(coarse, h, n - num_coarse)
        assert np.all(lower <= upper + 1e-12)
        assert np.all(lower - 1e-8 <= exact[:h])
        assert np.all(exact[:h] <= upper + 1e-8)

    @given(
        n=st.integers(min_value=COARSEN_MIN_VERTICES, max_value=96),
        p=st.floats(min_value=0.05, max_value=0.4),
        seed=st.integers(min_value=0, max_value=1000),
        ratio=st.floats(min_value=0.5, max_value=0.98),
    )
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_public_entry_point_on_random_dags(self, n, p, seed, ratio):
        lap = laplacian(random_dag(n, edge_probability=p, seed=seed), normalized=True)
        exact = np.linalg.eigvalsh(lap)
        h = 10
        interval = certified_interval_spectrum(sp.csr_matrix(lap), h, ratio=ratio)
        assert interval.contains(exact[:h])
        assert np.all(np.asarray(interval.lower) <= np.asarray(interval.upper) + 1e-12)
        num_coarse, exact_plan = coarse_plan(n, h, ratio)
        assert interval.exact == exact_plan
        assert interval.num_coarse == num_coarse

    def test_small_deletion_gives_nontrivial_lower_ends(self):
        # Deleting m=1 vertex from a connected graph's Laplacian leaves a
        # positive-definite principal submatrix, so every lower end beyond
        # index m is strictly positive (the informative regime).
        dimension = 7  # n = 128
        lap = laplacian(hypercube_graph(dimension), normalized=False, sparse=True)
        exact = hypercube_spectrum_array(dimension)
        h = 10
        interval = certified_interval_spectrum(lap, h, ratio=127.0 / 128.0)
        assert not interval.exact
        assert interval.num_deleted == 1
        assert interval.contains(exact[:h])
        assert np.all(np.asarray(interval.lower)[1:] > 0.0)

    def test_small_graphs_degenerate_to_exact(self):
        lap = laplacian(fft_graph(3), normalized=False, sparse=True)
        interval = certified_interval_spectrum(lap, 6, ratio=0.5)
        assert interval.exact
        np.testing.assert_array_equal(interval.lower, interval.upper)

    def test_deterministic_in_seed(self):
        lap = laplacian(hypercube_graph(7), normalized=False, sparse=True)
        first = certified_interval_spectrum(lap, 8, ratio=0.5, seed=3)
        second = certified_interval_spectrum(lap, 8, ratio=0.5, seed=3)
        np.testing.assert_array_equal(first.upper, second.upper)
        np.testing.assert_array_equal(first.lower, second.lower)

    def test_validation(self):
        lap = laplacian(fft_graph(3), normalized=False, sparse=True)
        with pytest.raises(ValueError, match="ratio"):
            certified_interval_spectrum(lap, 4, ratio=0.0)
        with pytest.raises(ValueError, match="ratio"):
            certified_interval_spectrum(lap, 4, ratio=1.5)
        with pytest.raises(ValueError, match="eigenvalues"):
            certified_interval_spectrum(lap, lap.shape[0] + 1)

    def test_variant_tag_round_trip(self):
        assert coarse_variant(0.5, 0) == "coarse-r0.5-s0"
        assert coarse_variant(0.25, 7) == "coarse-r0.25-s7"


class TestIntervalCacheTiers:
    GRAPH = hypercube_graph(7)  # n = 128: big enough to actually coarsen

    def test_memory_cache_hit_and_prefix_serving(self):
        cache = SpectrumCache()
        first = cache.interval_spectrum(self.GRAPH, 10)
        assert not first.cache_hit and cache.misses == 1
        again = cache.interval_spectrum(self.GRAPH, 10)
        assert again.cache_hit
        prefix = cache.interval_spectrum(self.GRAPH, 6)
        assert prefix.cache_hit  # served as a prefix of the h=10 entry
        np.testing.assert_array_equal(prefix.upper, first.upper[:6])
        np.testing.assert_array_equal(prefix.lower, first.lower[:6])
        assert cache.misses == 1

    def test_interval_and_exact_entries_coexist(self):
        cache = SpectrumCache()
        cache.interval_spectrum(self.GRAPH, 8)
        cache.spectrum(self.GRAPH, 8)
        assert cache.misses == 2  # distinct tiers, no cross-contamination

    def test_store_round_trip_with_variant(self, tmp_path):
        store = SpectrumStore(tmp_path / "s")
        cache = SpectrumCache(store=store)
        first = cache.interval_spectrum(self.GRAPH, 8, coarsen_seed=1)
        assert not first.cache_hit
        rows = store.entries()
        assert len(rows) == 1
        assert rows[0]["variant"] == coarse_variant(seed=1)
        assert store.verify()["ok"]
        # A fresh cache against the same store serves the interval from disk.
        warm = SpectrumCache(store=SpectrumStore(tmp_path / "s"))
        served = warm.interval_spectrum(self.GRAPH, 8, coarsen_seed=1)
        assert served.cache_hit and warm.store_hits == 1
        np.testing.assert_allclose(served.upper, first.upper, atol=1e-12)
        np.testing.assert_allclose(served.lower, first.lower, atol=1e-12)
        # A different coarsening seed is a different variant: real solve.
        other = warm.interval_spectrum(self.GRAPH, 8, coarsen_seed=2)
        assert not other.cache_hit


class TestEngineAndServiceIntervals:
    def test_engine_interval_brackets_exact_bound(self):
        graph = hypercube_graph(7)
        cache = SpectrumCache()
        engine = BoundEngine(graph, num_eigenvalues=10, cache=cache)
        interval = engine.spectral_interval(8)
        exact = engine.spectral(8)
        assert isinstance(interval, IntervalBoundResult)
        assert interval.value == interval.value_lo
        assert interval.value_lo <= exact.value + 1e-9
        assert exact.value <= interval.value_hi + 1e-9
        assert interval.width >= 0.0
        data = interval.as_dict()
        assert "lower_eigenvalues" not in data and "upper_eigenvalues" not in data

    def test_engine_interval_is_cached(self):
        engine = BoundEngine(hypercube_graph(7), num_eigenvalues=10, cache=SpectrumCache())
        engine.spectral_interval(8)
        solves = engine.num_eigensolves
        engine.spectral_interval(16)  # same spectrum, different M
        assert engine.num_eigensolves == solves

    def test_sweep_accepts_spectral_coarse(self):
        engine = BoundEngine(hypercube_graph(7), num_eigenvalues=10, cache=SpectrumCache())
        points = engine.sweep([4, 8], methods=("spectral-coarse",))
        assert len(points) == 2
        assert all(isinstance(p.result, IntervalBoundResult) for p in points)

    def test_service_routes_spectral_coarse(self):
        service = BoundService(store=None, num_eigenvalues=10)
        spec = GraphSpec(family="hypercube", size_param=7)
        coarse, exact = service.submit(
            [
                BoundQuery(graph=spec, memory_size=8, method="spectral-coarse"),
                BoundQuery(graph=spec, memory_size=8),
            ]
        )
        assert coarse.bound_lo is not None and coarse.bound_hi is not None
        assert coarse.bound == coarse.bound_lo
        assert coarse.bound_lo <= exact.bound <= coarse.bound_hi + 1e-9
        assert exact.bound_lo is None and exact.bound_hi is None

    def test_service_rejects_unknown_method(self):
        service = BoundService(store=None, num_eigenvalues=10)
        spec = GraphSpec(family="hypercube", size_param=4)
        with pytest.raises(ValueError, match="unknown method"):
            service.submit([BoundQuery(graph=spec, memory_size=8, method="nope")])
