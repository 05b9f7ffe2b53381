"""Selectable compiled kernels for the batch-sampling hot paths.

Every kernel has a numpy reference (:mod:`repro.kernels.numpy_backend`)
and an optional numba twin (:mod:`repro.kernels.numba_backend`); the two
are bit-identical and consume no randomness.  See
:mod:`repro.kernels.backends` for backend selection
(``"numpy" | "numba" | "auto"``, precedence ``arg > $REPRO_KERNEL_BACKEND >
auto``).
"""

from repro.kernels.backends import (
    BACKEND_ENV_VAR,
    KNOWN_BACKENDS,
    KernelSet,
    get_kernels,
    kernel_info,
    numba_available,
    numba_version,
    resolve_backend,
    runtime_meta,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "KNOWN_BACKENDS",
    "KernelSet",
    "get_kernels",
    "kernel_info",
    "numba_available",
    "numba_version",
    "resolve_backend",
    "runtime_meta",
]
