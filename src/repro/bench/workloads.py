"""Workload configurations for every experiment.

The paper's default setting is ``l = 100`` and ``t = 1,000,000`` on datasets
between 2.2M and 323M points.  The reproduction scales the datasets down to
tens of thousands of points (synthetic proxies of the four datasets, see
:mod:`repro.datasets.real_proxies`) and scales the window up slightly so
that per-cell occupancies - the quantity the algorithms' behaviour depends
on - stay realistic.

Two pre-defined scales are provided:

* ``ExperimentScale.SMOKE`` - seconds-level runs used by the test-suite, the
  CI perf gate and the CLI's default ``experiment`` / ``all`` runs.
* ``ExperimentScale.PAPER`` - minutes-level runs produced with
  ``repro-spatial-join-sampling all --scale paper --output FILE``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.core.config import JoinSpec
from repro.core.validation import validate_half_extent
from repro.datasets.partition import split_r_s
from repro.datasets.real_proxies import DATASET_NAMES, load_proxy
from repro.errors import InvalidSpecError, UnknownKeyError

__all__ = [
    "DEFAULT_HALF_EXTENT",
    "DEFAULT_NUM_SAMPLES",
    "ExperimentScale",
    "WorkloadConfig",
    "build_join_spec",
    "default_workloads",
]

#: Default window half-extent (the paper uses l = 100 at full dataset scale;
#: the scaled-down proxies use a larger window so cells stay well populated).
DEFAULT_HALF_EXTENT = 250.0

#: Default number of samples per run (the paper uses 1,000,000).
DEFAULT_NUM_SAMPLES = 10_000


class ExperimentScale(Enum):
    """How much work an experiment run is allowed to do."""

    SMOKE = "smoke"
    PAPER = "paper"


#: Per-dataset point budgets at each scale (total points before the R/S split).
_SCALE_SIZES: Mapping[ExperimentScale, Mapping[str, int]] = {
    ExperimentScale.SMOKE: {
        "castreet": 4_000,
        "foursquare": 5_000,
        "imis": 6_000,
        "nyc": 8_000,
    },
    ExperimentScale.PAPER: {
        "castreet": 20_000,
        "foursquare": 30_000,
        "imis": 45_000,
        "nyc": 60_000,
    },
}

#: Samples requested per run at each scale.
_SCALE_SAMPLES: Mapping[ExperimentScale, int] = {
    ExperimentScale.SMOKE: 2_000,
    ExperimentScale.PAPER: DEFAULT_NUM_SAMPLES,
}


@dataclass(frozen=True)
class WorkloadConfig:
    """One dataset workload: proxy name, size, split, window and sample count."""

    dataset: str
    total_points: int
    half_extent: float = DEFAULT_HALF_EXTENT
    num_samples: int = DEFAULT_NUM_SAMPLES
    r_fraction: float = 0.5
    seed: int = 7
    range_sweep: Sequence[float] = field(
        default_factory=lambda: (25.0, 50.0, 100.0, 250.0, 500.0)
    )
    samples_sweep: Sequence[int] = field(
        default_factory=lambda: (1_000, 5_000, 10_000, 50_000, 100_000)
    )
    scale_sweep: Sequence[float] = field(default_factory=lambda: (0.2, 0.4, 0.6, 0.8, 1.0))
    ratio_sweep: Sequence[float] = field(default_factory=lambda: (0.1, 0.2, 0.3, 0.4, 0.5))

    def __post_init__(self) -> None:
        if self.total_points < 2:
            raise InvalidSpecError("total_points must be at least 2")
        validate_half_extent(self.half_extent)
        if self.num_samples < 0:
            raise InvalidSpecError("num_samples must be non-negative")
        if not 0.0 < self.r_fraction < 1.0:
            raise InvalidSpecError("r_fraction must be in (0, 1)")


def default_workloads(
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
) -> list[WorkloadConfig]:
    """The four dataset workloads (or a subset) at the requested scale."""
    names = tuple(datasets) if datasets is not None else DATASET_NAMES
    sizes = _SCALE_SIZES[scale]
    samples = _SCALE_SAMPLES[scale]
    workloads = []
    for name in names:
        key = name.strip().lower()
        if key not in sizes:
            raise UnknownKeyError(f"unknown dataset {name!r}")
        workloads.append(
            WorkloadConfig(
                dataset=key,
                total_points=sizes[key],
                num_samples=samples,
            )
        )
    return workloads


def build_join_spec(
    config: WorkloadConfig,
    scale_fraction: float = 1.0,
    r_fraction: float | None = None,
    half_extent: float | None = None,
) -> JoinSpec:
    """Materialise a :class:`JoinSpec` for a workload configuration.

    Parameters
    ----------
    config:
        The workload to realise.
    scale_fraction:
        Keep only this fraction of the proxy points (dataset-size sweeps).
    r_fraction:
        Override of the ``|R| / (|R| + |S|)`` ratio (Fig. 8 sweep).
    half_extent:
        Override of the window half-extent (Fig. 5 sweep).
    """
    if not 0.0 < scale_fraction <= 1.0:
        raise InvalidSpecError("scale_fraction must be in (0, 1]")
    rng = np.random.default_rng(config.seed)
    points = load_proxy(config.dataset, size=config.total_points)
    if scale_fraction < 1.0:
        points = points.scaled(scale_fraction, rng)
    r_points, s_points = split_r_s(
        points, rng, r_fraction=config.r_fraction if r_fraction is None else r_fraction
    )
    return JoinSpec(
        r_points=r_points,
        s_points=s_points,
        half_extent=config.half_extent if half_extent is None else half_extent,
    )
