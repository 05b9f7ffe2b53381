"""The :class:`ArtifactSpec` protocol: prepared state declares its arrays.

Every sampler's prepared-state dataclass (``PreparedGridState``,
``PreparedExactCounts``, ``PreparedGridBounds``, the sharded composition)
implements the same small protocol instead of owning ad-hoc pickle:

* ``artifact_kind`` - stable string naming the state's layout;
* ``artifact_schema`` - integer schema version of that layout;
* ``to_arrays()`` - decompose into ``(meta, arrays)``: JSON-serialisable
  scalars plus named numpy arrays;
* ``from_arrays(meta, arrays)`` - reassemble from (possibly memmapped,
  read-only) arrays without copying them.

The module also carries the sampler-level glue used by the session,
manager, CLI and shard workers: :func:`save_sampler_artifact` asks a
prepared sampler for its arrays and writes one artifact directory;
:func:`attach_sampler_artifact` validates kind/schema/spec shape and adopts
the memmapped arrays into a fresh (unprepared) sampler.  The kernel backend
name is recorded for information only and re-resolved by the attaching
process - a numpy-built artifact attaches under numba and vice versa,
because the blobs are backend-independent (the kernels are bit-identical
twins).
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path
from typing import Any, ClassVar, Protocol, runtime_checkable

import numpy as np

from repro.alias.walker import AliasTable
from repro.artifacts.store import load_artifact, write_artifact
from repro.errors import ArtifactCorruptError, ArtifactVersionError

__all__ = [
    "ArtifactSpec",
    "pack_alias",
    "prefixed",
    "prepared_state_kinds",
    "register_prepared_state",
    "required_array",
    "resolve_prepared_state",
    "save_sampler_artifact",
    "select_prefix",
    "unpack_alias",
    "attach_sampler_artifact",
    "load_sampler_artifact",
]


def prefixed(prefix: str, arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Namespace a group of arrays (``{"bounds": ...}`` -> ``{"state.bounds": ...}``)."""
    return {f"{prefix}.{name}": array for name, array in arrays.items()}


def select_prefix(
    arrays: Mapping[str, np.ndarray], prefix: str
) -> dict[str, np.ndarray]:
    """Inverse of :func:`prefixed`: extract one namespace, names un-prefixed."""
    cut = len(prefix) + 1
    return {
        name[cut:]: array
        for name, array in arrays.items()
        if name.startswith(prefix + ".")
    }


@runtime_checkable
class ArtifactSpec(Protocol):
    """What a prepared-state class must expose to flow through artifacts."""

    artifact_kind: ClassVar[str]
    artifact_schema: ClassVar[int]

    def to_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Decompose into JSON-safe ``meta`` plus named numpy arrays."""
        ...  # pragma: no cover - protocol

    @classmethod
    def from_arrays(
        cls, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> "ArtifactSpec":
        """Reassemble from (possibly read-only memmapped) arrays, zero-copy."""
        ...  # pragma: no cover - protocol


#: kind -> prepared-state class; filled by :func:`register_prepared_state`.
_PREPARED_STATES: dict[str, type] = {}


def register_prepared_state(cls: type) -> type:
    """Class decorator registering an :class:`ArtifactSpec` implementation."""
    kind = getattr(cls, "artifact_kind", None)
    schema = getattr(cls, "artifact_schema", None)
    if not isinstance(kind, str) or not isinstance(schema, int):
        raise TypeError(
            f"{cls.__name__} must declare artifact_kind (str) and "
            "artifact_schema (int) to register as prepared state"
        )
    _PREPARED_STATES[kind] = cls
    return cls


def prepared_state_kinds() -> list[str]:
    """The registered prepared-state kinds (sorted)."""
    return sorted(_PREPARED_STATES)


def resolve_prepared_state(kind: str, schema: int, context: str) -> type:
    """Look up a registered state class and check its schema version."""
    cls = _PREPARED_STATES.get(kind)
    if cls is None:
        raise ArtifactCorruptError(
            f"{context}: unknown prepared-state kind {kind!r} "
            f"(known: {', '.join(prepared_state_kinds()) or 'none'})"
        )
    expected = cls.artifact_schema
    if schema != expected:
        raise ArtifactVersionError(
            f"{context}: prepared-state kind {kind!r} was written with "
            f"schema {schema!r}; this library reads schema {expected}"
        )
    return cls


def required_array(
    arrays: Mapping[str, np.ndarray],
    name: str,
    *,
    dtype: str | None = None,
    ndim: int | None = None,
    context: str = "artifact",
) -> np.ndarray:
    """Fetch one declared array, failing with a typed error when absent/off."""
    array = arrays.get(name)
    if array is None:
        raise ArtifactCorruptError(f"{context}: required array {name!r} is missing")
    if dtype is not None and array.dtype != np.dtype(dtype):
        raise ArtifactCorruptError(
            f"{context}: array {name!r} has dtype {array.dtype.str}, "
            f"expected {np.dtype(dtype).str}"
        )
    if ndim is not None and array.ndim != ndim:
        raise ArtifactCorruptError(
            f"{context}: array {name!r} has {array.ndim} dimensions, expected {ndim}"
        )
    return array


def pack_alias(
    alias: AliasTable | None,
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """``(meta, arrays)`` fragment persisting an optional alias structure.

    The two tables are stored verbatim (no re-construction on load), which is
    what keeps restored draws bit-identical: :meth:`AliasTable.from_tables`
    consumes the generator exactly like the original instance.
    """
    if alias is None:
        return {"has_alias": False}, {}
    prob, alias_indices = alias.tables
    return (
        {"has_alias": True, "alias_total": float(alias.total_weight)},
        {"alias_prob": prob, "alias_alias": alias_indices},
    )


def unpack_alias(
    meta: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
    context: str = "artifact",
) -> AliasTable | None:
    """Inverse of :func:`pack_alias` with typed corruption errors."""
    if not meta.get("has_alias"):
        return None
    prob = required_array(arrays, "alias_prob", dtype="<f8", ndim=1, context=context)
    alias_indices = required_array(
        arrays, "alias_alias", dtype="<i8", ndim=1, context=context
    )
    try:
        return AliasTable.from_tables(prob, alias_indices, float(meta["alias_total"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(
            f"{context}: persisted alias tables are invalid: {exc}"
        ) from None


def save_sampler_artifact(
    sampler: Any,
    path: str | Path,
    extra_meta: Mapping[str, Any] | None = None,
) -> Path:
    """Persist one prepared sampler's state as an artifact directory.

    The sampler must be prepared and implement
    ``export_prepared_arrays() -> (meta, arrays)``; the written manifest meta
    carries the state kind/schema, the instance shape ``(n, m,
    half_extent)`` and the (informational) kernel backend name, plus any
    ``extra_meta`` the caller adds.
    """
    exporter = getattr(sampler, "export_prepared_arrays", None)
    if exporter is None:
        raise ArtifactCorruptError(
            f"sampler {getattr(sampler, 'name', sampler)!r} does not support "
            "prepared-state artifacts"
        )
    meta, arrays = exporter()
    spec = sampler.spec
    meta = dict(meta)
    meta.setdefault("kernel_backend", getattr(sampler, "kernel_backend", "numpy"))
    meta["n"] = int(spec.n)
    meta["m"] = int(spec.m)
    meta["half_extent"] = float(spec.half_extent)
    if extra_meta:
        meta.update(extra_meta)
    return write_artifact(path, meta, arrays)


def attach_sampler_artifact(sampler: Any, path: str | Path) -> dict[str, Any]:
    """Adopt an on-disk artifact into a fresh sampler (zero-copy attach).

    Loads and checks the artifact with :func:`load_sampler_artifact`, then
    hands the memmapped arrays to ``sampler.adopt_prepared_arrays``.
    Returns the manifest meta.
    """
    adopter = getattr(sampler, "adopt_prepared_arrays", None)
    if adopter is None:
        raise ArtifactCorruptError(
            f"sampler {getattr(sampler, 'name', sampler)!r} does not support "
            "prepared-state artifacts"
        )
    meta, arrays = load_sampler_artifact(sampler, path)
    adopter(meta, arrays)
    return meta


def load_sampler_artifact(
    sampler: Any, path: str | Path
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Load an artifact written for ``sampler``: ``(meta, memmapped arrays)``.

    The artifact's kind/schema must be the sampler's declared ones and its
    saved instance shape ``(n, m, half_extent)`` that of the sampler's spec.
    """
    meta, arrays = load_artifact(path)
    context = str(Path(path))
    kind = meta.get("kind")
    schema = meta.get("schema")
    expected_kind = getattr(sampler, "artifact_kind", None)
    expected_schema = getattr(sampler, "artifact_schema", None)
    if not isinstance(kind, str) or not isinstance(schema, int):
        raise ArtifactCorruptError(
            f"{context}: manifest meta is missing its kind/schema declaration"
        )
    if expected_kind is not None and kind != expected_kind:
        raise ArtifactCorruptError(
            f"{context}: artifact holds {kind!r} state but the sampler "
            f"expects {expected_kind!r}"
        )
    if expected_schema is not None and schema != expected_schema:
        raise ArtifactVersionError(
            f"{context}: artifact holds {kind!r} state at schema {schema!r}; "
            f"this sampler reads schema {expected_schema}"
        )
    spec = sampler.spec
    saved_shape = (meta.get("n"), meta.get("m"), meta.get("half_extent"))
    live_shape = (int(spec.n), int(spec.m), float(spec.half_extent))
    if saved_shape != live_shape:
        raise ArtifactCorruptError(
            f"{context}: artifact was built for (n, m, half_extent)="
            f"{saved_shape}, the sampler's spec is {live_shape}"
        )
    return meta, arrays
