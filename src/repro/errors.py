"""The library-wide exception hierarchy.

Every error the request/response layers raise deliberately derives from
:class:`ReproError`, so a service wrapping the library can catch one type at
its request boundary and map subclasses to responses (400 for
:class:`InvalidSpecError`, 409 for :class:`StaleInputError`, 429/507 for
:class:`BudgetExceededError`, 410 for :class:`SessionClosedError`).

Deprecation compatibility: each subclass *also* derives from the ad-hoc
builtin the same condition used to raise (``ValueError`` / ``RuntimeError``),
so existing ``except ValueError`` / ``except RuntimeError`` call sites keep
working for one deprecation cycle.  New code should catch the
:class:`ReproError` types; the builtin bases will be dropped in a future
major release.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidSpecError",
    "KernelBackendError",
    "StaleInputError",
    "BudgetExceededError",
    "SessionClosedError",
    "MaintenanceError",
    "SamplingExhaustedError",
    "ServiceOverloadedError",
    "UnknownKeyError",
    "LockOrderError",
    "ArtifactError",
    "ArtifactCorruptError",
    "ArtifactVersionError",
    "ArtifactMismatchError",
]


class ReproError(Exception):
    """Base class of every deliberate error raised by the library."""


class InvalidSpecError(ReproError, ValueError):
    """A request or join-instance parameter is out of its legal domain.

    Raised for non-positive window half-extents, bad worker counts, negative
    sample counts, malformed update batches, empty-join draw requests and the
    like.  Subclasses ``ValueError`` for one deprecation cycle.
    """


class KernelBackendError(InvalidSpecError):
    """A kernel backend request cannot be honoured.

    Raised by :func:`repro.kernels.resolve_backend` for unknown backend names
    and for an explicit ``backend="numba"`` request when numba is not
    importable (install it with ``pip install repro[numba]``).  The ``"auto"``
    backend never raises - it silently falls back to the NumPy twin.
    """


class StaleInputError(ReproError, RuntimeError):
    """The session's input point sets were mutated behind its back.

    Prepared structures are built from the open-time (or last update-time)
    content of ``(R, S)``; the content-fingerprint guard raises this instead
    of silently serving draws from a stale join.  Subclasses ``RuntimeError``
    for one deprecation cycle.
    """


class BudgetExceededError(ReproError, RuntimeError):
    """A memory budget cannot be met even after evicting every idle entry.

    Raised by :class:`~repro.manager.SessionManager` when a single prepared
    entry alone exceeds the global budget, or when every evictable entry has
    been dropped and the tracked bytes still exceed it.  Subclasses
    ``RuntimeError`` for one deprecation cycle.
    """


class SessionClosedError(ReproError, RuntimeError):
    """An operation was attempted on a closed session, sampler or manager.

    Subclasses ``RuntimeError`` for one deprecation cycle.
    """


class MaintenanceError(ReproError, RuntimeError):
    """An update batch was applied but some cached engines failed to follow.

    The data change itself succeeded and the failing engines were dropped
    (they rebuild lazily from the new data on the next request); this error
    reports which ones.  Subclasses ``RuntimeError`` for one deprecation
    cycle.
    """


class SamplingExhaustedError(ReproError, RuntimeError):
    """A rejection or distinct-draw loop gave up without filling its request.

    Raised by the rejection samplers when no join sample is accepted after
    the empty-join guard's iteration budget (the join result is empty or
    vanishingly small relative to the bound being rejected against), and by
    ``sample_without_replacement`` when the join result probably holds fewer
    than ``t`` distinct pairs.  Subclasses ``RuntimeError`` for one
    deprecation cycle.
    """


class UnknownKeyError(ReproError, KeyError):
    """A name or identifier lookup failed: unknown sampler, dataset or point id.

    Raised by the sampler registry, the dataset catalogues and the dynamic
    point stores instead of a bare ``KeyError``, so a service can map "you
    asked for something that does not exist" to a 404-shaped response.
    Subclasses ``KeyError`` for one deprecation cycle.
    """


class LockOrderError(ReproError, RuntimeError):
    """The runtime lock-order tracker observed an acquisition inversion.

    The concurrent serving stack acquires its locks in one declared partial
    order (manager > session-build > session > entry > sharded-build >
    shard > pool > lease; see :mod:`repro.devtools.lockcheck`).  Acquiring a
    lock that ranks *before* one already held by the same thread is a
    potential deadlock; with ``REPRO_LOCKCHECK=1`` the tracker turns it into
    this deterministic error at the acquisition site instead of a hung test
    job.  Subclasses ``RuntimeError`` for one deprecation cycle.
    """


class ServiceOverloadedError(ReproError, RuntimeError):
    """Admission control rejected a request: the service is at capacity.

    Raised by :class:`~repro.service.ServiceCore` when the bounded wait queue
    is full, a per-tenant quota is exhausted, or the service is draining for
    shutdown.  The request was *not* served and is safe to retry after
    :attr:`retry_after` seconds (the HTTP transport maps this to 503 with a
    ``Retry-After`` header).  Subclasses ``RuntimeError`` for one deprecation
    cycle.
    """

    def __init__(self, message: str, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class ArtifactError(ReproError, RuntimeError):
    """Base class of every prepared-state artifact failure.

    Raised by :mod:`repro.artifacts` and the session/manager warm-start
    paths.  Catching this one type covers corruption, version skew and
    fingerprint mismatches alike; the message always names the offending
    on-disk path.  Subclasses ``RuntimeError`` for one deprecation cycle.
    """


class ArtifactCorruptError(ArtifactError):
    """An artifact's manifest or blob does not match what it declares.

    Covers unreadable/malformed manifest JSON, missing blobs, blob files
    whose size disagrees with the declared ``dtype``/``shape`` (a short blob
    would otherwise segfault a memmap read), and manifest entries with
    illegal dtypes or shapes.
    """


class ArtifactVersionError(ArtifactError):
    """The artifact was written by an incompatible format or schema version.

    Raised instead of attempting a best-effort parse: a version skew between
    the manifest and this library (or between the manifest and a sampler's
    declared state schema) must fail loudly, never deserialise garbage.
    """


class ArtifactMismatchError(ArtifactError):
    """The artifact does not belong to the inputs it is being attached to.

    Raised by :meth:`SamplingSession.load` (and the manager's warm-start
    path) when the saved content fingerprints of ``(R, S)`` differ from the
    point sets supplied at load time - a stale artifact must never silently
    serve draws from the wrong join.
    """
