"""Selectable compiled-kernel backends for the batch-sampling hot paths.

The batch engine's inner loops (cell selection, edge/corner picks, gathered
acceptance tests, packed-key lookups, rejection coins) are expressed as a
small set of *kernels* - pure functions over the prepared-state arrays.  Two
implementations exist:

* ``"numpy"`` - the reference twin, byte-for-byte the expressions the
  samplers ran before the kernel package existed.  Always available.
* ``"numba"`` - ``@njit``-compiled per-attempt loops over the same arrays.
  Optional (``pip install repro[numba]``); every compiled kernel is pinned
  bit-identical to its NumPy twin by the differential suite in
  ``tests/kernels/``, including RNG consumption order (the kernels never
  touch the generator - all variates are pre-drawn by the callers).

Backend selection precedence is ``argument > $REPRO_KERNEL_BACKEND > auto``,
where ``"auto"`` resolves to numba when importable and the NumPy twin
otherwise.  Samplers store the *resolved* backend name (a plain string) so
prepared samplers still pickle cleanly across shard-worker process
boundaries; the kernel namespace itself is re-resolved lazily per process.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import KernelBackendError

__all__ = [
    "BACKEND_ENV_VAR",
    "KNOWN_BACKENDS",
    "KernelSet",
    "numba_version",
    "numba_available",
    "resolve_backend",
    "get_kernels",
    "kernel_info",
    "runtime_meta",
]

#: Environment variable consulted when no explicit ``backend`` is given.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Every name :func:`resolve_backend` accepts.
KNOWN_BACKENDS = ("numpy", "numba", "auto")

#: Sentinel distinguishing "not probed yet" from "probed, not installed".
_UNPROBED = object()

_numba_version: object = _UNPROBED


def numba_version() -> str | None:
    """The installed numba version, or ``None`` when numba is not importable.

    The import probe runs once per process and is cached (numba's first
    import is expensive).
    """
    global _numba_version
    if _numba_version is _UNPROBED:
        try:
            import numba

            _numba_version = str(numba.__version__)
        except Exception:
            _numba_version = None
    return _numba_version  # type: ignore[return-value]


def numba_available() -> bool:
    """Whether the compiled backend can be selected in this process."""
    return numba_version() is not None


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend request to a concrete backend name.

    Precedence: explicit ``backend`` argument, then the
    :data:`BACKEND_ENV_VAR` environment variable, then ``"auto"``.  The
    ``"auto"`` request resolves to ``"numba"`` when importable and
    ``"numpy"`` otherwise; an *explicit* ``"numba"`` request raises
    :class:`~repro.errors.KernelBackendError` when numba is missing instead
    of silently degrading.
    """
    requested = backend if backend is not None else os.environ.get(BACKEND_ENV_VAR)
    if requested is None or not str(requested).strip():
        requested = "auto"
    name = str(requested).strip().lower()
    if name not in KNOWN_BACKENDS:
        raise KernelBackendError(
            f"unknown kernel backend {requested!r}; "
            f"expected one of {', '.join(KNOWN_BACKENDS)}"
        )
    if name == "auto":
        return "numba" if numba_available() else "numpy"
    if name == "numba" and not numba_available():
        raise KernelBackendError(
            "kernel backend 'numba' was requested but numba is not installed; "
            "install it with `pip install repro[numba]` or use backend='auto'"
        )
    return name


@dataclass(frozen=True)
class KernelSet:
    """One backend's implementations of every hot-path kernel.

    All kernels are pure functions over pre-drawn variate arrays and
    prepared-state arrays: they never consume randomness themselves, which is
    what keeps the two backends bit-identical including RNG stream position.
    """

    name: str
    #: Cumulative-row cell-column selection (the per-point alias ``A_r``).
    column_select: Callable
    #: Case 1/2 (center + edge) point picks into the grid-flat sorted views.
    edge_positions: Callable
    #: Candidate gather + closed-window acceptance test.
    gather_accept: Callable
    #: One-sided rank counts over per-cell sorted runs (edge bounds).
    sorted_block_counts: Callable
    #: Corner (case 3) qualifying-bucket counts via envelope dominance.
    corner_qualifying: Callable
    #: Corner (case 3) bucket/slot pick in bucket-index rank order.
    corner_pick: Callable
    #: Sorted packed-key ``(ix, iy) -> flat cell id`` lookups.
    packed_lookup: Callable
    #: Per-cell length gather for the KDS neighbourhood bounds.
    counts_gather: Callable
    #: The rejection baseline's vectorised acceptance coin.
    rejection_accept: Callable


_KERNEL_SETS: dict[str, KernelSet] = {}


def get_kernels(backend: str | None = None) -> KernelSet:
    """The (cached) :class:`KernelSet` of a resolved backend."""
    name = resolve_backend(backend)
    cached = _KERNEL_SETS.get(name)
    if cached is None:
        if name == "numba":
            from repro.kernels import numba_backend as module
        else:
            from repro.kernels import numpy_backend as module
        cached = module.build_kernel_set()
        _KERNEL_SETS[name] = cached
    return cached


def kernel_info() -> dict:
    """Backend summary surfaced by ``stats()`` / ``describe()`` / the CLI."""
    return {
        "default_backend": resolve_backend(None),
        "available_backends": ["numpy"] + (["numba"] if numba_available() else []),
        "numba_version": numba_version(),
        "env_override": os.environ.get(BACKEND_ENV_VAR) or None,
    }


def runtime_meta() -> dict:
    """Runtime environment block recorded in every bench result's ``meta``.

    Captures what a baseline comparison across machines needs to interpret
    the numbers: numpy/numba versions (or numba's absence), the backend the
    run would resolve to by default, and the thread-count environment,
    including the threads the grid samplers' count phase runs on.
    """
    import numpy as np

    from repro.core.grid_sampler_base import _count_workers

    return {
        "kernel_backend_default": resolve_backend(None),
        "numpy_version": np.__version__,
        "numba_version": numba_version() or "absent",
        "cpus": os.cpu_count(),
        "count_workers": _count_workers(),
        "numba_num_threads": os.environ.get("NUMBA_NUM_THREADS") or None,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS") or None,
    }
