"""The proposed algorithm (Section IV): grid + per-cell BBSTs.

``BBSTSampler`` plugs :class:`repro.bbst.join_index.BBSTJoinIndex` into the
Algorithm 1 skeleton of :class:`repro.core.grid_sampler_base.GridJoinSamplerBase`:

* offline: pre-sort ``S`` by x (the only preprocessing BBST needs, Table II);
* GM: grid mapping + per-cell ``Sy(c)`` copies + the bucket envelopes of
  every cell (Definition 3); the two BBSTs per cell (Lemma 3) are built only
  by the scalar ``vectorized=False`` oracle;
* UB: per-point upper bounds ``mu(r)`` with exact counts for cases 1/2 and
  the BBST's qualifying-bucket counts for case 3 (Lemmas 4-5), read off the
  envelopes by an x-pruned scan, then the alias structures;
* sampling: O~(1) expected per accepted pair (Lemma 6), with the final
  ``w(r) ∩ s`` check guaranteeing uniformity (Theorem 3).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, ClassVar

import numpy as np

from repro.artifacts.spec import required_array, select_prefix
from repro.bbst.join_index import BBSTJoinIndex, BucketArrays
from repro.core.config import JoinSpec
from repro.core.grid_sampler_base import GridJoinSamplerBase
from repro.core.registry import register_sampler
from repro.errors import ArtifactCorruptError
from repro.grid.grid import Grid

__all__ = ["BBSTSampler"]


@register_sampler(
    "bbst",
    tags=("online", "comparison", "grid"),
    summary="the paper's grid + per-cell BBST sampler (Section IV)",
    supports_updates=True,
)
class BBSTSampler(GridJoinSamplerBase):
    """The paper's O~(n + m + t) expected-time join sampler.

    Parameters
    ----------
    spec:
        The join instance.
    bucket_capacity:
        Optional override of the bucket size (defaults to ``ceil(log2 m)``);
        exposed for the ``bucketcap`` ablation experiment on the bucket-size
        design choice.
    batch_size, vectorized, backend:
        Batch-engine knobs forwarded to
        :class:`~repro.core.grid_sampler_base.GridJoinSamplerBase`.
    """

    def __init__(
        self,
        spec: JoinSpec,
        bucket_capacity: int | None = None,
        batch_size: int | None = None,
        vectorized: bool = True,
        backend: str | None = None,
    ) -> None:
        super().__init__(
            spec, batch_size=batch_size, vectorized=vectorized, backend=backend
        )
        self._bucket_capacity = bucket_capacity

    @property
    def name(self) -> str:
        return "BBST"

    @property
    def bucket_capacity(self) -> int | None:
        """Bucket-capacity override (``None`` means the paper's ``log m``)."""
        return self._bucket_capacity

    #: Artifact payload identity of this sampler's prepared state.
    artifact_kind: ClassVar[str] = "grid-bbst"

    def _build_index(self) -> BBSTJoinIndex:
        return BBSTJoinIndex(
            self.sorted_s,
            half_extent=self.spec.half_extent,
            bucket_capacity=self._bucket_capacity,
            backend=self.kernel_backend,
        )

    def _restore_index(
        self,
        grid: Grid,
        meta: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
    ) -> BBSTJoinIndex:
        capacity = int(meta.get("bucket_capacity", 0))
        if capacity < 1:
            raise ArtifactCorruptError(
                f"artifact declares illegal bucket capacity {capacity}"
            )
        if self._bucket_capacity is not None and capacity != int(self._bucket_capacity):
            raise ArtifactCorruptError(
                f"artifact was built with bucket capacity {capacity} but this "
                f"sampler pins {int(self._bucket_capacity)}"
            )
        buckets = select_prefix(arrays, "buckets")
        fields: dict[str, np.ndarray] = {}
        for name, dtype in (
            ("starts", "<i8"),
            ("counts", "<i8"),
            ("min_x", "<f8"),
            ("max_x", "<f8"),
            ("min_y", "<f8"),
            ("max_y", "<f8"),
            ("point_start", "<i8"),
            ("sizes", "<i8"),
        ):
            fields[name] = required_array(
                buckets, name, dtype=dtype, ndim=1, context="artifact buckets"
            )
        if fields["counts"].shape[0] != grid.num_cells:
            raise ArtifactCorruptError(
                f"artifact bucket table covers {fields['counts'].shape[0]} "
                f"cells but the grid has {grid.num_cells}"
            )
        return BBSTJoinIndex.from_prepared(
            self.spec.s_points,
            self.spec.half_extent,
            grid,
            bucket_capacity=capacity,
            capacity_override=bool(meta.get("capacity_override", False)),
            backend=self.kernel_backend,
            bucket_arrays=BucketArrays(**fields),
        )
