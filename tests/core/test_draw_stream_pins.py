"""SHA-256 pins of every sampler's draw stream and artifact bytes.

The differential suites compare two paths of the same code (vectorised vs
scalar, attached vs built, dynamic vs fresh), so a change that shifts the
RNG stream on both paths passes them.  These digests pin absolute output:

* ``index_pairs()`` plus ``iterations`` of ``sample(t, seed)`` for every
  registered sampler, over two seeds on one sampler instance (the first
  call builds, the second reuses the cached state), with adaptive and with
  fixed-size rounds; the vectorised and the scalar round processors must
  both match the pinned digest;
* a dynamic BBST sampler after one ``S`` insert/delete batch, before and
  after ``flush()``;
* the blobs and manifest :func:`~repro.artifacts.save_sampler_artifact`
  writes for every sampler that supports artifacts, minus the informational
  ``kernel_backend`` meta key (it names the machine's backend).

A digest may only change with an intended change of the draw stream or the
artifact layout; ``PYTHONPATH=src python tests/core/test_draw_stream_pins.py``
prints the current digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.artifacts import save_sampler_artifact
from repro.artifacts.store import MANIFEST_NAME
from repro.core.config import JoinSpec
from repro.core.registry import create_sampler, sampler_names
from repro.datasets.partition import split_r_s
from repro.datasets.synthetic import uniform_points
from repro.dynamic import DynamicSampler

NAMES = tuple(sampler_names())
SEEDS = (11, 12)
T = 300

#: Round schedules: adaptive refill, and fixed rounds that split ``t``
#: over many rounds (so the per-round cutoff is exercised).
SCHEDULES = {"adaptive": None, "batch7": 7}

DRAW_PINS: dict[str, str] = {
    "bbst/adaptive": "01e558d1596fcddaf8c410354d0309a6541651d27a4cce961093f7f58a208fb3",
    "bbst/batch7": "5c33dd232f38e04757dd06fda43b25dc4bafd8b75ba0158ac44bd3408632c8ce",
    "cell-kdtree/adaptive": "d46790cebb92403b7eb5b063e72baaaadc77b0487f3941097ec177276eee055c",
    "cell-kdtree/batch7": "6376d7bfd0a2082979269dc5298aa6b5cb5468541339ddf5f8c03c7b3c6a7608",
    "join-then-sample/adaptive": "3972a98c05611f717c10e97d5b3e32e5aedfb79c75c4006dd67211d091fe2d4a",
    "join-then-sample/batch7": "3972a98c05611f717c10e97d5b3e32e5aedfb79c75c4006dd67211d091fe2d4a",
    "kds/adaptive": "e8c83eef454af2abb21540bb6c74c465dff68af13f8f591e0d2a6627e7191ac8",
    "kds/batch7": "e8c83eef454af2abb21540bb6c74c465dff68af13f8f591e0d2a6627e7191ac8",
    "kds-rejection/adaptive": "10cc58c1f1b015b68e7970efe73753b8ec3f3bf19f2ff877792e64cdc59a3811",
    "kds-rejection/batch7": "0bdf3ee4eba0b4f09625a32bef7918d85a0a9db6906c4be05d1a09c360cdaf88",
}

DYNAMIC_PINS: dict[str, str] = {
    "before-flush": "57040b7f681835d3eaa06bae6b97e9e0f8d796f1bce866c9857632e670e72eba",
    "after-flush": "c5a0045e422bd3c6e39b1f36dc9ea581e5d6f49c2b1442fe1534ee370dc58460",
}

ARTIFACT_PINS: dict[str, str] = {
    "bbst": "cba988d3d4afcd37d9ec497133a55dee3b9b1a6059e4c94163ce535e954265fb",
    "cell-kdtree": "e4129f8b041c9da331e31d6569f828a3d35a18ee5be962608af7b122513baf08",
    "kds": "fdbd38f94fdb0a5fa1b81c01c2f6d1fe3ca1e055198a4b68c574f8a5b9654fa6",
    "kds-rejection": "5a4666817a6c31400232f5c93f74a5d704d0cd9845a0a6c1ee0e1c89baff1cce",
    "dynamic-bbst-updated": "6b9200e30e844bc5c048e49da2116b28a02fa935317abbb41e7a48650681e10e",
}


def _spec() -> JoinSpec:
    rng = np.random.default_rng(2026)
    points = uniform_points(800, rng, name="pins")
    r_points, s_points = split_r_s(points, rng)
    return JoinSpec(r_points=r_points, s_points=s_points, half_extent=400.0)


def _draw_digest(*results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(result.index_pairs().tobytes())
        digest.update(np.int64(result.iterations).tobytes())
    return digest.hexdigest()


def _artifact_digest(directory: Path) -> str:
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    manifest["meta"].pop("kernel_backend", None)
    digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
    for name in sorted(manifest["arrays"]):
        digest.update((directory / manifest["arrays"][name]["blob"]).read_bytes())
    return digest.hexdigest()


def _draws(name: str, schedule: str, vectorized: bool = True) -> str:
    sampler = create_sampler(
        name, _spec(), batch_size=SCHEDULES[schedule], vectorized=vectorized
    )
    return _draw_digest(*(sampler.sample(T, seed=seed) for seed in SEEDS))


def _updated_dynamic() -> DynamicSampler:
    dynamic = DynamicSampler(_spec(), algorithm="bbst")
    dynamic.prepare()
    rng = np.random.default_rng(7)
    dynamic.update(
        "s",
        insert=(rng.uniform(0.0, 10_000.0, 40), rng.uniform(0.0, 10_000.0, 40)),
        delete=dynamic.spec.s_points.ids[:25],
    )
    return dynamic


def _dynamic_draws() -> dict[str, str]:
    dynamic = _updated_dynamic()
    pins = {"before-flush": _draw_digest(dynamic.sample(T, seed=SEEDS[0]))}
    dynamic.flush()
    pins["after-flush"] = _draw_digest(dynamic.sample(T, seed=SEEDS[1]))
    return pins


def _artifact_samplers():
    for name in NAMES:
        sampler = create_sampler(name, _spec())
        if hasattr(sampler, "export_prepared_arrays"):
            yield name, sampler
    yield "dynamic-bbst-updated", _updated_dynamic()


def _artifacts(directory: Path) -> dict[str, str]:
    pins = {}
    for name, sampler in _artifact_samplers():
        sampler.prepare()
        save_sampler_artifact(sampler, directory / name)
        pins[name] = _artifact_digest(directory / name)
    return pins


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("name", NAMES)
def test_draw_stream_is_pinned(name, schedule, vectorized):
    assert _draws(name, schedule, vectorized) == DRAW_PINS[f"{name}/{schedule}"]


def test_dynamic_draw_stream_is_pinned():
    assert _dynamic_draws() == DYNAMIC_PINS


def test_artifact_bytes_are_pinned(tmp_path):
    assert _artifacts(tmp_path) == ARTIFACT_PINS


if __name__ == "__main__":  # print the current digests
    import tempfile

    print({f"{name}/{schedule}": _draws(name, schedule) for name in NAMES for schedule in SCHEDULES})
    print(_dynamic_draws())
    with tempfile.TemporaryDirectory() as directory:
        print(_artifacts(Path(directory)))
