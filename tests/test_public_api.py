"""Smoke tests of the package's public surface.

These tests make sure everything advertised in ``__all__`` actually resolves,
that the README quickstart keeps working verbatim, and that the version
string follows the expected format.
"""

import importlib

import pytest

import repro


class TestPublicExports:
    def test_version_format(self):
        major, minor, patch = repro.__version__.split(".")
        assert major.isdigit() and minor.isdigit() and patch.isdigit()

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ advertises missing name {name}"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.geometry",
            "repro.alias",
            "repro.grid",
            "repro.kdtree",
            "repro.bbst",
            "repro.core",
            "repro.datasets",
            "repro.stats",
            "repro.bench",
            "repro.cli",
            "repro.service",
        ],
    )
    def test_subpackage_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ advertises {name}"

    def test_samplers_share_the_base_class(self):
        from repro import (
            BBSTSampler,
            CellKDTreeSampler,
            JoinSampler,
            JoinThenSample,
            KDSRejectionSampler,
            KDSSampler,
        )

        for sampler in (
            BBSTSampler,
            CellKDTreeSampler,
            JoinThenSample,
            KDSRejectionSampler,
            KDSSampler,
        ):
            assert issubclass(sampler, JoinSampler)

    def test_docstrings_present_on_public_classes(self):
        from repro import BBSTSampler, JoinSampleResult, JoinSpec, PointSet, Rect

        for item in (BBSTSampler, JoinSampleResult, JoinSpec, PointSet, Rect):
            assert item.__doc__ and item.__doc__.strip()

    def test_readme_quickstart_snippet(self):
        import numpy as np

        from repro import BBSTSampler, JoinSpec, split_r_s, uniform_points

        rng = np.random.default_rng(0)
        points = uniform_points(2_000, rng)
        r_points, s_points = split_r_s(points, rng)
        spec = JoinSpec(r_points=r_points, s_points=s_points, half_extent=200.0)
        result = BBSTSampler(spec).sample(100, seed=0)
        assert len(result) == 100
