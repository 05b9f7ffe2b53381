"""Prepared-state artifacts: zero-copy persistence and instant warm start.

The package has two layers:

* :mod:`repro.artifacts.store` - the versioned on-disk format (manifest
  JSON + raw little-endian blobs, attached with ``np.memmap(mode="r")``);
* :mod:`repro.artifacts.spec` - the :class:`ArtifactSpec` protocol every
  prepared-state dataclass implements, plus the sampler-level
  :func:`save_sampler_artifact` / :func:`attach_sampler_artifact` glue.

Session-level save/load (full fingerprint validation, multi-entry layouts,
sharded artifacts) lives with its owners in :mod:`repro.api.session`,
:mod:`repro.parallel.sharded` and :mod:`repro.manager`.
"""

from repro.artifacts.spec import (
    ArtifactSpec,
    attach_sampler_artifact,
    load_sampler_artifact,
    pack_alias,
    prefixed,
    prepared_state_kinds,
    register_prepared_state,
    required_array,
    resolve_prepared_state,
    save_sampler_artifact,
    select_prefix,
    unpack_alias,
)
from repro.artifacts.store import (
    ARTIFACT_FORMAT_VERSION,
    MANIFEST_NAME,
    artifact_nbytes,
    load_artifact,
    read_manifest,
    write_artifact,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "MANIFEST_NAME",
    "ArtifactSpec",
    "artifact_nbytes",
    "attach_sampler_artifact",
    "load_artifact",
    "load_sampler_artifact",
    "pack_alias",
    "prefixed",
    "prepared_state_kinds",
    "read_manifest",
    "register_prepared_state",
    "required_array",
    "resolve_prepared_state",
    "save_sampler_artifact",
    "select_prefix",
    "unpack_alias",
    "write_artifact",
]
