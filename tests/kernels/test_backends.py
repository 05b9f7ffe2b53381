"""Backend selection, introspection and integration-surface tests.

Covers the resolution precedence (``argument > $REPRO_KERNEL_BACKEND >
auto``), the failure modes (unknown names, explicit ``"numba"`` without
numba installed), the introspection dicts recorded in bench metadata, and
the places the resolved backend name must surface: sampler metadata, pickled
shard payloads, session ``describe()`` and the planner's :class:`PlanReport`.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api.planner import plan_algorithm
from repro.api.session import SamplingSession
from repro.core import grid_sampler_base
from repro.core.bbst_sampler import BBSTSampler
from repro.core.registry import create_sampler
from repro.errors import KernelBackendError
from repro.kernels import (
    BACKEND_ENV_VAR,
    KNOWN_BACKENDS,
    get_kernels,
    kernel_info,
    numba_available,
    numba_version,
    resolve_backend,
    runtime_meta,
)


class TestResolveBackend:
    def test_default_resolves_to_concrete_backend(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        resolved = resolve_backend(None)
        assert resolved in ("numpy", "numba")
        assert resolved == ("numba" if numba_available() else "numpy")

    def test_explicit_numpy_always_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus-backend")
        # The argument takes precedence, so the broken env var is never read.
        assert resolve_backend("numpy") == "numpy"

    def test_env_variable_used_when_no_argument(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend(None) == "numpy"

    def test_bad_env_variable_raises_without_argument(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus-backend")
        with pytest.raises(KernelBackendError, match="bogus-backend"):
            resolve_backend(None)

    def test_blank_env_variable_means_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "   ")
        assert resolve_backend(None) == ("numba" if numba_available() else "numpy")

    def test_names_are_case_insensitive(self):
        assert resolve_backend("NumPy") == "numpy"
        assert resolve_backend(" AUTO ") in ("numpy", "numba")

    def test_unknown_name_raises(self):
        with pytest.raises(KernelBackendError, match="unknown kernel backend"):
            resolve_backend("cython")

    @pytest.mark.skipif(numba_available(), reason="needs a numba-less machine")
    def test_explicit_numba_raises_when_missing(self):
        with pytest.raises(KernelBackendError, match="not installed"):
            resolve_backend("numba")

    @pytest.mark.skipif(numba_available(), reason="needs a numba-less machine")
    def test_auto_degrades_to_numpy_when_numba_missing(self):
        assert resolve_backend("auto") == "numpy"


class TestKernelSets:
    def test_numpy_kernels_are_cached(self):
        assert get_kernels("numpy") is get_kernels("numpy")

    def test_kernel_set_carries_backend_name(self):
        assert get_kernels("numpy").name == "numpy"

    def test_every_kernel_is_callable(self):
        kernels = get_kernels("numpy")
        for field in (
            "column_select",
            "edge_positions",
            "gather_accept",
            "sorted_block_counts",
            "corner_qualifying",
            "corner_pick",
            "packed_lookup",
            "counts_gather",
            "rejection_accept",
        ):
            assert callable(getattr(kernels, field))


class TestIntrospection:
    def test_kernel_info_shape(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        info = kernel_info()
        assert info["default_backend"] in KNOWN_BACKENDS
        assert "numpy" in info["available_backends"]
        assert info["env_override"] is None
        if not numba_available():
            assert info["numba_version"] is None
            assert "numba" not in info["available_backends"]

    def test_kernel_info_reports_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert kernel_info()["env_override"] == "numpy"

    def test_runtime_meta_keys(self, monkeypatch):
        meta = runtime_meta()
        assert set(meta) >= {
            "kernel_backend_default",
            "numpy_version",
            "numba_version",
            "cpus",
            "count_workers",
        }
        if numba_available():
            assert meta["numba_version"] == numba_version()
        else:
            assert meta["numba_version"] == "absent"
        assert meta["count_workers"] == grid_sampler_base._count_workers() >= 1
        monkeypatch.setattr(grid_sampler_base, "_count_workers", lambda: 3)
        assert runtime_meta()["count_workers"] == 3


class TestSamplerIntegration:
    def test_sampler_records_backend_in_metadata(self, small_uniform_spec):
        sampler = BBSTSampler(small_uniform_spec, backend="numpy")
        assert sampler.kernel_backend == "numpy"
        result = sampler.sample(25, seed=11)
        assert result.metadata["kernel_backend"] == "numpy"

    def test_registry_threads_backend_through(self, small_uniform_spec):
        sampler = create_sampler("kds-rejection", small_uniform_spec, backend="numpy")
        assert sampler.kernel_backend == "numpy"

    def test_bad_backend_fails_at_construction(self, small_uniform_spec):
        with pytest.raises(KernelBackendError):
            BBSTSampler(small_uniform_spec, backend="fortran")

    def test_prepared_sampler_pickles_with_backend(self, small_uniform_spec):
        sampler = BBSTSampler(small_uniform_spec, backend="numpy")
        sampler.prepare()
        clone = pickle.loads(pickle.dumps(sampler))
        assert clone.kernel_backend == "numpy"
        original = sampler.sample(40, seed=7)
        restored = clone.sample(40, seed=7)
        assert [p.as_index_tuple() for p in original.pairs] == [
            p.as_index_tuple() for p in restored.pairs
        ]


class TestSessionAndPlanner:
    def test_session_resolves_and_reports_backend(self, small_uniform_spec):
        session = SamplingSession(
            small_uniform_spec.r_points,
            small_uniform_spec.s_points,
            small_uniform_spec.half_extent,
            backend="numpy",
            eager=False,
        )
        try:
            assert session.kernel_backend == "numpy"
            assert session.describe()["kernel_backend"] == "numpy"
        finally:
            session.close()

    def test_session_rejects_bad_backend_at_open(self, small_uniform_spec):
        with pytest.raises(KernelBackendError):
            SamplingSession(
                small_uniform_spec.r_points,
                small_uniform_spec.s_points,
                small_uniform_spec.half_extent,
                backend="bogus",
                eager=False,
            )

    def test_plan_report_carries_backend(self, small_uniform_spec):
        report = plan_algorithm(small_uniform_spec, kernel_backend="numpy")
        assert report.kernel_backend == "numpy"
        assert "kernel backend: numpy" in report.explain()

    def test_session_plan_uses_session_backend(self, small_uniform_spec):
        session = SamplingSession(
            small_uniform_spec.r_points,
            small_uniform_spec.s_points,
            small_uniform_spec.half_extent,
            backend="numpy",
            eager=False,
        )
        try:
            assert session.plan().kernel_backend == "numpy"
        finally:
            session.close()
