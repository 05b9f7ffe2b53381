"""repro - Random Sampling over Spatial Range Joins (ICDE 2025).

A from-scratch Python implementation of the paper's proposed BBST join
sampler, its two baselines, the substrates they rely on (grid, kd-tree,
alias structure, range tree) and the full experiment harness that
regenerates every table and figure of the evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import open_session, split_r_s, uniform_points
>>> rng = np.random.default_rng(0)
>>> points = uniform_points(2_000, rng)
>>> r_points, s_points = split_r_s(points, rng)
>>> with open_session(r_points, s_points, half_extent=200.0) as handle:
...     result = handle.draw(100, seed=0)       # builds + counts + samples
...     again = handle.draw(100, seed=1)        # reuses the cached structures
>>> len(result), len(again)
(100, 100)

Services holding many ``(R, S)`` pairs open them through one
:class:`~repro.manager.SessionManager` instead, which owns the memory budget
and the shared worker pool across all tenants.  The one-shot API
(``BBSTSampler(spec).sample(t, seed=s)``) and direct ``SamplingSession``
construction keep working and return bit-identical pairs for the same
``(spec, algorithm, seed)``.
"""

from repro.api import (
    PlanReport,
    SamplingSession,
    SessionStats,
    WorkloadStats,
    collect_workload_stats,
    plan_algorithm,
    recommend_jobs,
)
from repro.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactSpec,
    attach_sampler_artifact,
    save_sampler_artifact,
)
from repro.core import (
    BBSTSampler,
    CellKDTreeSampler,
    JoinSampleResult,
    JoinSampler,
    JoinSpec,
    JoinThenSample,
    KDSRejectionSampler,
    KDSSampler,
    PhaseTimings,
    SamplePair,
    SamplerEntry,
    brute_force_join,
    create_sampler,
    get_sampler,
    join_size,
    register_sampler,
    resolve_rng,
    sampler_entries,
    sampler_names,
    spatial_range_join,
)
from repro.datasets import (
    DATASET_NAMES,
    load_proxy,
    split_r_s,
    uniform_points,
)
from repro.dynamic import DynamicPointStore, DynamicSampler, UpdateReport
from repro.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactMismatchError,
    ArtifactVersionError,
    BudgetExceededError,
    InvalidSpecError,
    LockOrderError,
    MaintenanceError,
    ReproError,
    SamplingExhaustedError,
    ServiceOverloadedError,
    SessionClosedError,
    StaleInputError,
    UnknownKeyError,
)
from repro.geometry import Point, PointSet, Rect, window_around
from repro.manager import SessionHandle, SessionManager, open_session
from repro.parallel import (
    Shard,
    ShardedSampler,
    ShardPlan,
    WorkerLease,
    WorkerPool,
    shared_pool,
)
from repro.service import ServiceConfig, ServiceCore, ServiceServer, run_server

__version__ = "1.5.0"

__all__ = [
    "__version__",
    # manager API (the recommended entry point)
    "SessionManager",
    "SessionHandle",
    "open_session",
    # error hierarchy
    "ReproError",
    "InvalidSpecError",
    "StaleInputError",
    "BudgetExceededError",
    "SessionClosedError",
    "MaintenanceError",
    "SamplingExhaustedError",
    "UnknownKeyError",
    "LockOrderError",
    "ServiceOverloadedError",
    "ArtifactError",
    "ArtifactCorruptError",
    "ArtifactVersionError",
    "ArtifactMismatchError",
    # prepared-state artifacts
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactSpec",
    "save_sampler_artifact",
    "attach_sampler_artifact",
    # async serving front-end
    "ServiceConfig",
    "ServiceCore",
    "ServiceServer",
    "run_server",
    # session API
    "SamplingSession",
    "SessionStats",
    "PlanReport",
    "WorkloadStats",
    "plan_algorithm",
    "collect_workload_stats",
    "recommend_jobs",
    # shard-parallel engine
    "Shard",
    "ShardPlan",
    "ShardedSampler",
    "WorkerLease",
    "WorkerPool",
    "shared_pool",
    # dynamic updates
    "DynamicPointStore",
    "DynamicSampler",
    "UpdateReport",
    # sampler registry
    "SamplerEntry",
    "register_sampler",
    "get_sampler",
    "create_sampler",
    "sampler_names",
    "sampler_entries",
    "resolve_rng",
    # problem definition
    "JoinSpec",
    "Point",
    "PointSet",
    "Rect",
    "window_around",
    # samplers
    "JoinSampler",
    "JoinSampleResult",
    "SamplePair",
    "PhaseTimings",
    "BBSTSampler",
    "KDSSampler",
    "KDSRejectionSampler",
    "CellKDTreeSampler",
    "JoinThenSample",
    # exact join
    "spatial_range_join",
    "brute_force_join",
    "join_size",
    # data
    "DATASET_NAMES",
    "load_proxy",
    "split_r_s",
    "uniform_points",
]
