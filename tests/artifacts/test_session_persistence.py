"""Session- and manager-level persistence: save, warm start, staleness.

The stale-artifact contract is the load-bearing piece: a session (or
manager tenant) opened over *different* points than the artifact was built
from must raise :class:`~repro.errors.ArtifactMismatchError` - never
silently serve draws from someone else's prepared state.
"""

import numpy as np
import pytest

from repro.api.session import SamplingSession
from repro.datasets.partition import split_r_s
from repro.datasets.synthetic import uniform_points
from repro.errors import ArtifactError, ArtifactMismatchError
from repro.geometry.point import PointSet
from repro.manager import SessionManager

SEED = 777


@pytest.fixture(scope="module")
def pointsets():
    rng = np.random.default_rng(SEED)
    points = uniform_points(4_000, rng, name="session-persist")
    return split_r_s(points, rng)


def _ids(result):
    return result.id_pairs()


class TestSessionSaveLoad:
    def test_multi_entry_save_then_load_is_bit_identical(self, pointsets, tmp_path):
        r_points, s_points = pointsets
        cold = SamplingSession(r_points, s_points, half_extent=120.0, eager=False)
        keys = [("bbst", 120.0, None), ("kds", 120.0, None), ("bbst", 60.0, None)]
        cold_draws = {}
        for name, extent, jobs in keys:
            cold.prepare(name, extent, jobs)
            cold_draws[(name, extent)] = _ids(
                cold.draw(300, seed=SEED, algorithm=name, half_extent=extent)
            )
        cold.save(tmp_path / "session")
        cold.close()

        warm = SamplingSession.load(
            tmp_path / "session", r_points, s_points, eager=True
        )
        try:
            assert warm.stats.warm_loads == len(keys)
            for name, extent, _jobs in keys:
                assert (
                    _ids(warm.draw(300, seed=SEED, algorithm=name, half_extent=extent))
                    == cold_draws[(name, extent)]
                )
        finally:
            warm.close()

    def test_eager_load_hashes_each_input_once_and_lazy_entries_recheck(
        self, pointsets, tmp_path, monkeypatch
    ):
        r_points, s_points = pointsets
        cold = SamplingSession(r_points, s_points, half_extent=120.0, eager=False)
        cold.prepare("bbst")
        cold.prepare("kds")
        cold.save(tmp_path / "session")
        cold.close()
        hashed = []
        fingerprint = PointSet.fingerprint
        monkeypatch.setattr(
            PointSet, "fingerprint", lambda self: hashed.append(self) or fingerprint(self)
        )
        warm = SamplingSession.load(tmp_path / "session", r_points, s_points, eager=True)
        try:
            assert warm.stats.warm_loads == 2
            assert hashed == [r_points, s_points]
        finally:
            warm.close()
        # A lazily loaded entry attaches on its first request, after the
        # caller had the points: that attach checks them in full again.
        hashed.clear()
        lazy = SamplingSession.load(tmp_path / "session", r_points, s_points, eager=False)
        try:
            lazy.draw(10, seed=SEED, algorithm="bbst")
            assert hashed == [r_points, s_points] * 2
        finally:
            lazy.close()

    def test_wrong_points_raise_mismatch(self, pointsets, tmp_path):
        r_points, s_points = pointsets
        session = SamplingSession(r_points, s_points, half_extent=120.0, eager=True)
        session.save(tmp_path / "session")
        session.close()

        rng = np.random.default_rng(SEED + 1)
        other = uniform_points(4_000, rng, name="different")
        other_r, other_s = split_r_s(other, rng)
        with pytest.raises(ArtifactMismatchError):
            SamplingSession.load(tmp_path / "session", other_r, other_s)

    def test_load_missing_directory_is_typed(self, pointsets, tmp_path):
        r_points, s_points = pointsets
        with pytest.raises(ArtifactError):
            SamplingSession.load(tmp_path / "never-saved", r_points, s_points)

    def test_save_without_target_is_typed(self, pointsets):
        r_points, s_points = pointsets
        session = SamplingSession(r_points, s_points, half_extent=120.0, eager=False)
        try:
            with pytest.raises(ArtifactError):
                session.save()
        finally:
            session.close()

    def test_update_invalidates_artifact_entries(self, pointsets, tmp_path):
        r_points, s_points = pointsets
        session = SamplingSession(
            r_points,
            s_points,
            half_extent=120.0,
            eager=True,
            artifact_dir=tmp_path / "session",
        )
        session.save()
        try:
            key = next(iter(k for k in session._artifact_entries))
            assert session.has_artifact_for(key)
            session.update(
                "s", insert=(np.array([50.0, 70.0]), np.array([55.0, 75.0]))
            )
            # The on-disk artifacts describe the pre-update points now;
            # warm starts from them must be off the table.
            assert not session.has_artifact_for(key)
        finally:
            session.close()

    def test_sharded_entry_round_trips(self, pointsets, tmp_path):
        r_points, s_points = pointsets
        cold = SamplingSession(
            r_points, s_points, half_extent=120.0, jobs=2, eager=True
        )
        cold_pairs = _ids(cold.draw(300, seed=SEED))
        cold.save(tmp_path / "sharded-session")
        cold.close()

        warm = SamplingSession.load(
            tmp_path / "sharded-session", r_points, s_points, eager=True
        )
        try:
            assert warm.stats.warm_loads == 1
            assert _ids(warm.draw(300, seed=SEED)) == cold_pairs
        finally:
            warm.close()

    def test_defaults_come_from_manifest(self, pointsets, tmp_path):
        r_points, s_points = pointsets
        cold = SamplingSession(
            r_points, s_points, half_extent=60.0, algorithm="kds", eager=True
        )
        cold.save(tmp_path / "defaults")
        cold.close()
        warm = SamplingSession.load(tmp_path / "defaults", r_points, s_points)
        try:
            described = warm.describe()
            assert described["default_half_extent"] == 60.0
            assert described["default_algorithm"] == "kds"
        finally:
            warm.close()


class TestManagerWarmStart:
    def test_expiry_saves_and_reopen_warm_starts(self, pointsets, tmp_path):
        r_points, s_points = pointsets
        baseline = SamplingSession(r_points, s_points, half_extent=120.0, eager=True)
        expected = _ids(baseline.draw(300, seed=SEED))
        baseline.close()

        with SessionManager(
            idle_timeout=0.05, artifact_dir=tmp_path / "tenants", name="warm"
        ) as manager:
            handle = manager.open("alpha", r_points, s_points, 120.0)
            assert _ids(handle.draw(300, seed=SEED)) == expected

            import time

            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                time.sleep(0.06)
                manager.expire_idle()
                if manager.stats()["expirations"] >= 1:
                    break
            stats = manager.stats()
            assert stats["expirations"] >= 1
            assert stats["artifact_saves"] >= 1

            # The same tenant re-opens from disk: bit-identical draws and a
            # recorded warm load instead of a rebuild.
            handle = manager.open("alpha", r_points, s_points, 120.0)
            assert _ids(handle.draw(300, seed=SEED)) == expected
            tenant = manager.stats()["tenants"]["alpha"]
            assert tenant["stats"].get("warm_loads", 0) >= 1

    def test_tenant_directories_are_sanitized(self, pointsets, tmp_path):
        r_points, s_points = pointsets
        with SessionManager(
            artifact_dir=tmp_path / "tenants", name="sanitize"
        ) as manager:
            handle = manager.open("weird/../tenant id", r_points, s_points, 120.0)
            artifact_dir = handle.describe()["artifact_dir"]
            assert artifact_dir is not None
            # The tenant id's separators and spaces never survive into the
            # path: the directory is a single component directly under the
            # manager root, so "../" in an id cannot escape it.
            from pathlib import Path

            leaf = Path(artifact_dir)
            assert leaf.parent == tmp_path / "tenants"
            assert "/" not in leaf.name and " " not in leaf.name
            handle.draw(50, seed=SEED)
