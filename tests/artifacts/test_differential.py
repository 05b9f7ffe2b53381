"""Differential tests: draws from an attached artifact vs a fresh build.

The contract of the artifact layer is *bit-identity*: a sampler attached
from disk must consume its RNG exactly like the freshly-built twin, so the
draw streams are equal pair-for-pair - serial, sharded across processes,
and through the dynamic-update engine after a ``flush()``.
"""

import numpy as np
import pytest

from repro.artifacts import attach_sampler_artifact, save_sampler_artifact, write_artifact
from repro.core.config import JoinSpec
from repro.core.registry import create_sampler
from repro.datasets.partition import split_r_s
from repro.datasets.synthetic import uniform_points
from repro.dynamic import DynamicSampler
from repro.errors import ArtifactCorruptError, ArtifactError, ArtifactVersionError
from repro.geometry.point import PointSet
from repro.parallel import ShardedSampler

ALGORITHMS = ("bbst", "cell-kdtree", "kds", "kds-rejection")

SEED = 4242


@pytest.fixture(scope="module")
def spec():
    rng = np.random.default_rng(SEED)
    points = uniform_points(3_000, rng, name="artifact-diff")
    r_points, s_points = split_r_s(points, rng)
    return JoinSpec(r_points=r_points, s_points=s_points, half_extent=150.0)


def _pairs(sampler, t=400, seed=SEED):
    return [p.as_index_tuple() for p in sampler.sample(t, seed=seed).pairs]


class TestSerialSamplers:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_attached_draws_are_bit_identical(self, name, spec, tmp_path):
        fresh = create_sampler(name, spec)
        fresh.prepare()
        save_sampler_artifact(fresh, tmp_path / name)

        warm = create_sampler(name, spec)
        attach_sampler_artifact(warm, tmp_path / name)
        assert _pairs(warm) == _pairs(fresh)
        # A second request must agree too: attach restores the alias/count
        # state exactly, not just enough for one draw.
        assert _pairs(warm, seed=SEED + 1) == _pairs(fresh, seed=SEED + 1)

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_attach_reports_restored_footprint(self, name, spec, tmp_path):
        fresh = create_sampler(name, spec)
        fresh.prepare()
        save_sampler_artifact(fresh, tmp_path / name)
        warm = create_sampler(name, spec)
        attach_sampler_artifact(warm, tmp_path / name)
        assert warm.index_nbytes() > 0

    def test_kind_cross_attach_rejected(self, spec, tmp_path):
        fresh = create_sampler("bbst", spec)
        fresh.prepare()
        save_sampler_artifact(fresh, tmp_path / "bbst")
        other = create_sampler("cell-kdtree", spec)
        with pytest.raises(ArtifactCorruptError):
            attach_sampler_artifact(other, tmp_path / "bbst")

    @pytest.mark.parametrize("name", ["bbst", "cell-kdtree"])
    def test_schema_1_grid_artifact_refused(self, name, spec, tmp_path):
        """The schema-1 layout (float64 bounds and prefix sums, int64 cell ids)."""
        fresh = create_sampler(name, spec)
        fresh.prepare()
        meta, arrays = fresh.export_prepared_arrays()
        assert meta["schema"] == 2 and "state.cumulative" not in arrays
        bounds = arrays["state.bounds"].astype(np.float64)
        arrays.update(
            {
                "state.bounds": bounds,
                "state.cumulative": np.cumsum(bounds, axis=1),
                "cell_ids": arrays["cell_ids"].astype(np.int64),
            }
        )
        meta.update(schema=1, n=spec.n, m=spec.m, half_extent=spec.half_extent)
        write_artifact(tmp_path / "old", meta, arrays)
        with pytest.raises(ArtifactVersionError, match="schema 1"):
            attach_sampler_artifact(create_sampler(name, spec), tmp_path / "old")

    def test_unprepared_sampler_cannot_save(self, spec, tmp_path):
        fresh = create_sampler("bbst", spec)
        with pytest.raises(ArtifactError):
            save_sampler_artifact(fresh, tmp_path / "unprepared")


class TestShardedSampler:
    @pytest.mark.parametrize("use_processes", [False, True])
    def test_sharded_attach_is_bit_identical(self, spec, tmp_path, use_processes):
        fresh = ShardedSampler(spec, jobs=2, use_processes=use_processes)
        try:
            fresh.prepare()
            fresh.save_artifact(tmp_path / "sharded")
            warm = ShardedSampler(spec, jobs=2, use_processes=use_processes)
            try:
                warm.attach_artifact(tmp_path / "sharded")
                assert warm.total_weight == fresh.total_weight
                assert _pairs(warm) == _pairs(fresh)
                assert _pairs(warm, seed=SEED + 7) == _pairs(fresh, seed=SEED + 7)
            finally:
                warm.close()
        finally:
            fresh.close()

    def test_jobs_mismatch_rejected(self, spec, tmp_path):
        fresh = ShardedSampler(spec, jobs=2, use_processes=False)
        try:
            fresh.prepare()
            fresh.save_artifact(tmp_path / "sharded")
        finally:
            fresh.close()
        other = ShardedSampler(spec, jobs=3, use_processes=False)
        try:
            with pytest.raises(ArtifactCorruptError):
                other.attach_artifact(tmp_path / "sharded")
        finally:
            other.close()

    def test_membership_tamper_rejected(self, spec, tmp_path):
        fresh = ShardedSampler(spec, jobs=2, use_processes=False)
        target = tmp_path / "sharded"
        try:
            fresh.prepare()
            fresh.save_artifact(target)
        finally:
            fresh.close()
        # Drop rows from one shard's membership so the shards no longer
        # partition R: the partition check must refuse to attach.
        blob = target / "blobs" / "shard0.r_indices.bin"
        rows = np.fromfile(blob, dtype=np.int64)
        import json

        manifest_path = target / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["arrays"]["shard0.r_indices"]["shape"] = [max(0, rows.size - 1)]
        manifest["arrays"]["shard0.r_indices"]["nbytes"] = 8 * max(0, rows.size - 1)
        manifest_path.write_text(json.dumps(manifest))
        rows[:-1].tofile(blob)
        warm = ShardedSampler(spec, jobs=2, use_processes=False)
        try:
            with pytest.raises(ArtifactCorruptError):
                warm.attach_artifact(target)
        finally:
            warm.close()


class TestDynamicSampler:
    def _updates(self, sampler):
        sampler.insert(
            "s",
            PointSet(xs=[101.0, 220.0, 543.0], ys=[99.0, 210.0, 560.0]),
            ids=np.array([900_001, 900_002, 900_003]),
        )
        sampler.delete("s", np.asarray(sampler.spec.s_points.ids[:2]))

    def test_post_flush_attach_is_bit_identical(self, spec, tmp_path):
        fresh = DynamicSampler(spec, algorithm="bbst")
        fresh.prepare()
        self._updates(fresh)
        fresh.flush()
        # export_prepared_arrays flushes pending deltas, so the artifact is
        # the canonical post-update state - a warm twin is therefore opened
        # over the *final* (R, S), not the pre-update points.
        save_sampler_artifact(fresh, tmp_path / "dynamic")

        warm = DynamicSampler(fresh.spec, algorithm="bbst")
        attach_sampler_artifact(warm, tmp_path / "dynamic")
        assert _pairs(warm) == _pairs(fresh)

    def test_attached_sampler_keeps_accepting_updates(self, spec, tmp_path):
        fresh = DynamicSampler(spec, algorithm="bbst")
        fresh.prepare()
        save_sampler_artifact(fresh, tmp_path / "dynamic")

        warm = DynamicSampler(spec, algorithm="bbst")
        attach_sampler_artifact(warm, tmp_path / "dynamic")
        # Same updates on both sides; the attached twin must track exactly,
        # including in-place maintenance over (copied) memmapped arrays.
        self._updates(fresh)
        self._updates(warm)
        fresh.flush()
        warm.flush()
        assert _pairs(warm) == _pairs(fresh)
