"""The transport-free async service core: coalescing + admission control.

:class:`ServiceCore` is the testable heart of the network front-end: it wraps
a multi-tenant :class:`~repro.manager.SessionManager` behind ``async``
request methods and owns the two things a transport should not implement
itself:

**Coalescing.**  Thousands of concurrent clients mostly issue *small*
``draw(t)`` requests.  The :class:`Coalescer` gathers the concurrent requests
that target the same ``(tenant, algorithm, half_extent, jobs, distinct)``
cache entry within a short window (``coalesce_window`` seconds, or until
``coalesce_max_batch`` requests are pending) and serves them as **one**
:meth:`~repro.manager.SessionHandle.draw_batch` call - one cache resolve, one
entry lock, one executor hop and one budget-enforcement pass for the whole
batch.  Fan-out back to the callers is exact: every request keeps its own
seed and gets its own fresh generator inside the batch, so each reply is
**bit-identical** to the same request served alone, serially, or by an
unmanaged twin session (the determinism contract: prepared structures consume
no randomness, and ``draw(t, seed=s)`` is a pure function of
``(spec, algorithm, seed)``).

**Admission control.**  At most ``max_in_flight`` admitted requests run at
once; up to ``max_queued`` more wait in a FIFO queue, and everything beyond
that - or beyond a tenant's ``per_tenant_in_flight`` quota, or arriving while
the service drains for shutdown - fails fast with
:class:`~repro.errors.ServiceOverloadedError` instead of building an
unbounded backlog.

The core is transport-free on purpose (the thin HTTP layer in
:mod:`repro.service.http` just maps JSON to these methods and exceptions to
status codes), so the whole contract is testable without a socket.  All
``async`` methods must be called from one event loop; the blocking sampler
work itself runs in a small thread pool (sessions are thread-safe), so the
loop never blocks on a draw.
"""

from __future__ import annotations

import asyncio
import collections
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.planner import PlanReport
from repro.core.base import JoinSampleResult, validate_seed
from repro.errors import (
    InvalidSpecError,
    ServiceOverloadedError,
    SessionClosedError,
)
from repro.geometry.point import PointSet
from repro.kernels import kernel_info as _kernel_info
from repro.manager.manager import SessionHandle, SessionManager

__all__ = ["ServiceConfig", "ServiceCore", "Coalescer"]

#: Ring-buffer size of the latency window stats() summarises.
_LATENCY_WINDOW = 4096

#: Seed space for service-derived per-request seeds (mirrors the sharded
#: engine's child-seed space; any seed accepted by default_rng works).
_SEED_SPACE = 2**62


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`ServiceCore` (all validated up front).

    Parameters
    ----------
    coalesce_window:
        Seconds a draw request waits for companions before its batch flushes
        (``0`` still coalesces whatever arrives in the same event-loop tick).
    coalesce_max_batch:
        A pending batch flushes immediately at this size, bounding both the
        extra latency of the last joiner and the entry-lock hold time.
    max_in_flight:
        Admitted requests executing at once (the concurrency the sampler
        threads actually see).
    max_queued:
        Requests allowed to wait for admission beyond ``max_in_flight``;
        arrival number ``max_in_flight + max_queued + 1`` fails fast.
    per_tenant_in_flight:
        Per-tenant quota on admitted requests (``None`` = no per-tenant cap).
        Quota breaches fail fast rather than queueing, so one tenant cannot
        occupy the shared wait queue either.
    executor_threads:
        Threads serving the blocking sampler calls.  A few suffice: draws are
        NumPy-bound and release the GIL in bulk operations.
    drain_timeout:
        Default seconds :meth:`ServiceCore.drain` waits for in-flight
        requests on shutdown.
    max_samples_per_request:
        Upper bound on one request's ``t`` (rejected as invalid, not
        overload: a huge ``t`` is a malformed request, not back-pressure).
    """

    coalesce_window: float = 0.002
    coalesce_max_batch: int = 64
    max_in_flight: int = 256
    max_queued: int = 1024
    per_tenant_in_flight: int | None = None
    executor_threads: int = 4
    drain_timeout: float = 10.0
    max_samples_per_request: int = 1_000_000

    def __post_init__(self) -> None:
        if self.coalesce_window < 0:
            raise InvalidSpecError("coalesce_window must be non-negative")
        if self.coalesce_max_batch < 1:
            raise InvalidSpecError("coalesce_max_batch must be at least 1")
        if self.max_in_flight < 1:
            raise InvalidSpecError("max_in_flight must be at least 1")
        if self.max_queued < 0:
            raise InvalidSpecError("max_queued must be non-negative")
        if self.per_tenant_in_flight is not None and self.per_tenant_in_flight < 1:
            raise InvalidSpecError("per_tenant_in_flight must be at least 1")
        if self.executor_threads < 1:
            raise InvalidSpecError("executor_threads must be at least 1")
        if not self.drain_timeout > 0:
            raise InvalidSpecError("drain_timeout must be positive")
        if self.max_samples_per_request < 1:
            raise InvalidSpecError("max_samples_per_request must be at least 1")


class _Admission:
    """Counting admission control, confined to one event loop (lock-free).

    ``max_in_flight`` slots are handed out; a full service parks up to
    ``max_queued`` waiters in FIFO order and fails everything beyond that
    fast.  Releasing a slot hands it *directly* to the oldest waiter (the
    in-flight count never dips in between), so the cap is strict even while
    the queue drains.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self._config = config
        self.in_flight = 0
        self.queued = 0
        self.rejections = 0
        self._waiters: collections.deque[asyncio.Future] = collections.deque()
        self._tenant_in_flight: dict[str, int] = {}

    @property
    def busy(self) -> bool:
        return self.in_flight > 0 or self.queued > 0

    def tenant_in_flight(self, tenant_id: str) -> int:
        return self._tenant_in_flight.get(tenant_id, 0)

    async def acquire(self, tenant_id: str, draining: bool) -> None:
        if draining:
            self.rejections += 1
            raise ServiceOverloadedError(
                "the service is draining for shutdown", retry_after=1.0
            )
        quota = self._config.per_tenant_in_flight
        if quota is not None and self.tenant_in_flight(tenant_id) >= quota:
            self.rejections += 1
            raise ServiceOverloadedError(
                f"tenant {tenant_id!r} is at its in-flight quota ({quota})"
            )
        if self.in_flight >= self._config.max_in_flight:
            if self.queued >= self._config.max_queued:
                self.rejections += 1
                raise ServiceOverloadedError(
                    f"admission queue is full "
                    f"({self._config.max_in_flight} in flight, "
                    f"{self._config.max_queued} queued)"
                )
            slot: asyncio.Future = asyncio.get_running_loop().create_future()
            self._waiters.append(slot)
            self.queued += 1
            try:
                await slot
            except asyncio.CancelledError:
                if slot.done() and not slot.cancelled():
                    # The slot was handed over in the same tick the waiter
                    # was cancelled: pass it on, or it leaks forever.
                    self._hand_over_or_free()
                raise
            finally:
                self.queued -= 1
            # The releaser handed its slot straight over; in_flight already
            # counts it.
        else:
            self.in_flight += 1
        self._tenant_in_flight[tenant_id] = self.tenant_in_flight(tenant_id) + 1

    def release(self, tenant_id: str) -> None:
        count = self.tenant_in_flight(tenant_id) - 1
        if count > 0:
            self._tenant_in_flight[tenant_id] = count
        else:
            self._tenant_in_flight.pop(tenant_id, None)
        self._hand_over_or_free()

    def _hand_over_or_free(self) -> None:
        while self._waiters:
            slot = self._waiters.popleft()
            if not slot.done():
                slot.set_result(None)  # the slot changes hands, count intact
                return
        self.in_flight = max(0, self.in_flight - 1)


@dataclass
class _PendingDraw:
    t: int
    seed: int
    future: asyncio.Future


@dataclass
class _Group:
    key: tuple
    pending: list[_PendingDraw]
    timer: asyncio.TimerHandle | asyncio.Handle | None = None


class Coalescer:
    """Gathers concurrent same-entry draw requests into one batch draw.

    Requests are grouped by their full cache-entry key (tenant, algorithm,
    half_extent, jobs, distinct); a group flushes when its window timer fires
    or it reaches the batch cap, whichever comes first.  Flushing schedules
    one :meth:`ServiceCore._run_batch` task that serves the whole group
    through ``SessionHandle.draw_batch`` and fans the per-request results (or
    the one failure) back out to the callers' futures.
    """

    def __init__(self, core: "ServiceCore") -> None:
        self._core = core
        self._groups: dict[tuple, _Group] = {}
        self.requests_total = 0
        self.batches_total = 0
        self.max_batch = 0

    @property
    def pending(self) -> int:
        return sum(len(group.pending) for group in self._groups.values())

    def submit(self, key: tuple, t: int, seed: int) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        group = self._groups.get(key)
        if group is None:
            group = _Group(key=key, pending=[])
            self._groups[key] = group
        future = loop.create_future()
        group.pending.append(_PendingDraw(t=t, seed=seed, future=future))
        config = self._core.config
        if len(group.pending) >= config.coalesce_max_batch:
            self._flush(group)
        elif group.timer is None:
            if config.coalesce_window <= 0:
                # Still batches: every request that arrives in the same loop
                # tick joins before the soon-callback runs.
                group.timer = loop.call_soon(self._flush, group)
            else:
                group.timer = loop.call_later(
                    config.coalesce_window, self._flush, group
                )
        return future

    def _flush(self, group: _Group) -> None:
        if group.timer is not None:
            group.timer.cancel()
            group.timer = None
        if self._groups.get(group.key) is group:
            del self._groups[group.key]
        pending = group.pending
        group.pending = []
        if not pending:
            return
        self.requests_total += len(pending)
        self.batches_total += 1
        self.max_batch = max(self.max_batch, len(pending))
        asyncio.get_running_loop().create_task(
            self._core._run_batch(group.key, pending)
        )

    def flush_all(self) -> None:
        """Flush every pending group now (drain path)."""
        for group in list(self._groups.values()):
            self._flush(group)


class ServiceCore:
    """The async request surface over one :class:`SessionManager`.

    Parameters
    ----------
    manager:
        The multi-tenant manager that owns sessions, memory and workers.
    config:
        Coalescing/admission knobs (default :class:`ServiceConfig`).
    own_manager:
        When true, :meth:`aclose`/:meth:`close` also close the manager (the
        CLI sets this; embedders that share a manager keep the default).

    Tenants are bound with :meth:`bind` (a thin wrapper over
    ``manager.open``); requests name a tenant explicitly, or omit it when
    exactly one tenant is bound.  Unseeded draws get a service-derived seed,
    reported back in the result metadata, so *every* reply is replayable.
    """

    def __init__(
        self,
        manager: SessionManager,
        config: ServiceConfig | None = None,
        *,
        own_manager: bool = False,
    ) -> None:
        self.manager = manager
        self.config = config if config is not None else ServiceConfig()
        self._own_manager = own_manager
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="repro-service",
        )
        self._handles: dict[str, SessionHandle] = {}
        self._admission = _Admission(self.config)
        self._coalescer = Coalescer(self)
        self._draining = False
        self._closed = False
        self._requests_total = 0
        self._errors_total = 0
        self._latencies: collections.deque[float] = collections.deque(
            maxlen=_LATENCY_WINDOW
        )
        self._seed_rng = np.random.default_rng()
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    def bind(
        self,
        tenant_id: str,
        r_points: PointSet,
        s_points: PointSet,
        half_extent: float,
        **opts: Any,
    ) -> SessionHandle:
        """Bind a tenant on the manager and register it with the service."""
        handle = self.manager.open(tenant_id, r_points, s_points, half_extent, **opts)
        self._handles[str(tenant_id)] = handle
        return handle

    def unbind(self, tenant_id: str) -> None:
        """Release one tenant (idempotent)."""
        handle = self._handles.pop(str(tenant_id), None)
        if handle is not None:
            handle.close()

    @property
    def tenants(self) -> list[str]:
        return sorted(self._handles)

    @property
    def draining(self) -> bool:
        return self._draining

    def _resolve_tenant(self, tenant: str | None) -> str:
        if tenant is not None:
            return str(tenant)
        if len(self._handles) == 1:
            return next(iter(self._handles))
        raise InvalidSpecError(
            "no tenant named and the service binds "
            f"{len(self._handles)} tenants; pass 'tenant' explicitly"
        )

    def _handle_for(self, tenant_id: str) -> SessionHandle:
        handle = self._handles.get(tenant_id)
        if handle is None:
            raise SessionClosedError(
                f"tenant {tenant_id!r} is not bound to this service"
            )
        return handle

    def _derive_seed(self) -> int:
        return int(self._seed_rng.integers(_SEED_SPACE))

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------
    async def _admit(self, tenant_id: str) -> None:
        self._requests_total += 1
        await self._admission.acquire(tenant_id, self._draining)

    async def draw(
        self,
        t: int,
        *,
        tenant: str | None = None,
        seed: int | None = None,
        algorithm: str | None = None,
        half_extent: float | None = None,
        jobs: int | None = None,
        distinct: bool = False,
    ) -> JoinSampleResult:
        """``t`` uniform join samples, coalesced with concurrent companions.

        Bit-identical to ``handle.draw(t, seed=seed)`` (or the distinct
        twin) regardless of what the request was batched with; the reply's
        ``metadata["request_seed"]`` and ``metadata["coalesced_batch"]``
        report the effective seed and batch size.
        """
        t = int(t)
        if t < 0:
            raise InvalidSpecError("t must be non-negative")
        if t > self.config.max_samples_per_request:
            raise InvalidSpecError(
                f"t={t} exceeds max_samples_per_request="
                f"{self.config.max_samples_per_request}"
            )
        seed = self._derive_seed() if seed is None else int(seed)
        validate_seed(seed)
        tenant_id = self._resolve_tenant(tenant)
        start = time.perf_counter()
        await self._admit(tenant_id)
        try:
            key = (
                tenant_id,
                algorithm,
                None if half_extent is None else float(half_extent),
                jobs,
                bool(distinct),
            )
            result = await self._coalescer.submit(key, t, seed)
        finally:
            self._admission.release(tenant_id)
        self._latencies.append(time.perf_counter() - start)
        return result

    async def draw_distinct(self, t: int, **kwargs: Any) -> JoinSampleResult:
        """``t`` distinct join pairs (without replacement), coalesced."""
        return await self.draw(t, distinct=True, **kwargs)

    async def _run_batch(self, key: tuple, pending: list[_PendingDraw]) -> None:
        tenant_id, algorithm, half_extent, jobs, distinct = key
        requests = [(item.t, item.seed) for item in pending]
        loop = asyncio.get_running_loop()
        try:
            handle = self._handle_for(tenant_id)
            results = await loop.run_in_executor(
                self._executor,
                lambda: handle.draw_batch(
                    requests,
                    algorithm=algorithm,
                    half_extent=half_extent,
                    jobs=jobs,
                    distinct=distinct,
                ),
            )
        except BaseException as exc:  # noqa: BLE001 - fanned out to callers
            self._errors_total += len(pending)
            for item in pending:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        for item, result in zip(pending, results):
            result.metadata["coalesced_batch"] = len(pending)
            result.metadata["request_seed"] = item.seed
            if not item.future.done():
                item.future.set_result(result)

    async def update(
        self,
        side: str,
        *,
        tenant: str | None = None,
        insert: Any = None,
        delete: Any = None,
    ) -> dict[str, Any]:
        """Insert/delete points of one side (see ``SessionHandle.update``)."""
        tenant_id = self._resolve_tenant(tenant)
        await self._admit(tenant_id)
        try:
            handle = self._handle_for(tenant_id)
            return await asyncio.get_running_loop().run_in_executor(
                self._executor,
                lambda: handle.update(side, insert=insert, delete=delete),
            )
        finally:
            self._admission.release(tenant_id)

    async def plan(
        self, *, tenant: str | None = None, half_extent: float | None = None
    ) -> PlanReport:
        """The planner's explainable decision for a tenant's workload."""
        tenant_id = self._resolve_tenant(tenant)
        await self._admit(tenant_id)
        try:
            handle = self._handle_for(tenant_id)
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, lambda: handle.plan(half_extent)
            )
        finally:
            self._admission.release(tenant_id)

    async def describe(self, *, tenant: str | None = None) -> dict[str, Any]:
        """JSON-friendly snapshot of one tenant's session."""
        tenant_id = self._resolve_tenant(tenant)
        handle = self._handle_for(tenant_id)
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, handle.describe
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Service + manager metrics (what ``GET /v1/stats`` returns)."""
        latencies = sorted(self._latencies)

        def quantile(q: float) -> float:
            if not latencies:
                return 0.0
            index = min(len(latencies) - 1, int(q * len(latencies)))
            return latencies[index]

        batches = self._coalescer.batches_total
        coalesced_requests = self._coalescer.requests_total
        return {
            "service": {
                "draining": self._draining,
                "tenants": self.tenants,
                "uptime_seconds": time.monotonic() - self._started,
                "in_flight": self._admission.in_flight,
                "queued": self._admission.queued,
                "requests_total": self._requests_total,
                "rejections_total": self._admission.rejections,
                "errors_total": self._errors_total,
                "draw_requests_total": coalesced_requests,
                "coalesced_batches_total": batches,
                "coalescing_ratio": (
                    coalesced_requests / batches if batches else 0.0
                ),
                "max_batch": self._coalescer.max_batch,
                "latency": {
                    "window": len(latencies),
                    "p50_ms": quantile(0.50) * 1e3,
                    "p99_ms": quantile(0.99) * 1e3,
                    "mean_ms": (
                        sum(latencies) / len(latencies) * 1e3 if latencies else 0.0
                    ),
                },
                "config": {
                    "coalesce_window": self.config.coalesce_window,
                    "coalesce_max_batch": self.config.coalesce_max_batch,
                    "max_in_flight": self.config.max_in_flight,
                    "max_queued": self.config.max_queued,
                    "per_tenant_in_flight": self.config.per_tenant_in_flight,
                },
            },
            "kernels": _kernel_info(),
            "manager": self.manager.stats(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, flush pending batches, wait for in-flight work.

        Returns ``True`` when the service went quiet within ``timeout``
        (default ``config.drain_timeout``) - the graceful half of SIGTERM
        handling; the transport closes sockets afterwards either way.
        """
        self._draining = True
        self._coalescer.flush_all()
        deadline = time.monotonic() + (
            self.config.drain_timeout if timeout is None else timeout
        )
        while self._admission.busy or self._coalescer.pending:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    async def aclose(self) -> None:
        """Drain, then release the executor (and the manager when owned)."""
        if self._closed:
            return
        await self.drain()
        self.close()

    def close(self) -> None:
        """Synchronous teardown (no drain); idempotent."""
        if self._closed:
            return
        self._closed = True
        self._draining = True
        self._executor.shutdown(wait=True)
        if self._own_manager:
            self.manager.close()
