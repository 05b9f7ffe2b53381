"""Span recorder that times the program's layers from the benchmark's side.

The program under test carries no tracing of its own, so a traced run wraps
the public methods of each layer's classes at run time (class attributes are
looked up at call time, so every caller sees the wrapper; module-level names
that other modules already imported are left alone).  Each wrapped call
becomes a span with a name, a start and end time, the request it belongs to
and the time its child spans cover, so a layer's self time is its duration
minus its children.

Requests are identified through ``contextvars``: the benchmark opens a
request scope around each call it makes, and the service's entry points open
one per HTTP request, keyed by the request's pinned seed.  Executor threads
do not inherit context, so the batch wrapper re-scopes its spans with the
seeds of the requests it serves, which is how server-side batch spans are
tied back to client requests.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from typing import Any

_REQUEST: contextvars.ContextVar[tuple[str, Any] | None] = contextvars.ContextVar(
    "pathbench_request", default=None
)
_PARENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "pathbench_parent", default=None
)

Info = Callable[[tuple, dict, Any], Any]
Scope = Callable[[tuple, dict], tuple[str, Any]]


class Span:
    """One timed call of a wrapped method."""

    __slots__ = ("name", "request", "parent_name", "start", "end", "children", "info")

    def __init__(
        self,
        name: str,
        request: tuple[str, Any] | None,
        parent_name: str | None,
        start: float,
        end: float = 0.0,
        children: float = 0.0,
        info: Any = None,
    ) -> None:
        self.name = name
        self.request = request
        self.parent_name = parent_name
        self.start = start
        self.end = end
        self.children = children
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.children

    def row(self) -> list:
        """JSON form (the server process ships its spans to the client)."""
        klass, rid = self.request if self.request is not None else (None, None)
        return [self.name, klass, rid, self.parent_name, self.start, self.end, self.children, self.info]

    @classmethod
    def from_row(cls, row: list) -> Span:
        name, klass, rid, parent_name, start, end, children, info = row
        request = None if klass is None else (klass, rid)
        return cls(name, request, parent_name, start, end, children, info)


class Tracer:
    """Installs span wrappers and keeps the spans they record.

    ``enabled`` can be flipped while the wrappers stay installed: a disabled
    wrapper only forwards the call, which lets a traced run interleave
    traced and untraced segments to measure the tracing overhead.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        #: Traced requests per request class (the per-request denominators).
        self.requests: dict[str, int] = defaultdict(int)
        self._restore: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def request(self, klass: str, rid: Any = None) -> Iterator[None]:
        """Scope the calls made inside the block to one request."""
        token = _REQUEST.set((klass, rid))
        if self.enabled:
            self.requests[klass] += 1
        try:
            yield
        finally:
            _REQUEST.reset(token)

    def wrap(
        self,
        fn: Callable,
        name: str,
        info: Info | None = None,
        scope: Scope | None = None,
        entry: bool = False,
    ) -> Callable:
        """A traced twin of ``fn``.

        ``info(args, kwargs, result)`` attaches data to the span.  ``scope``
        opens a request scope for the call.  ``entry`` marks a request entry
        point of the service: it counts the request and leaves its scope set
        in the caller's task afterwards, so the reply encoding that follows
        is attributed to the same request.
        """
        tracer = self

        def open_span(args: tuple, kwargs: dict) -> tuple[Span, Span | None, tuple[Any, Any]]:
            request_token = None
            if scope is not None:
                request = scope(args, kwargs)
                request_token = _REQUEST.set(request)
                if entry:
                    tracer.requests[request[0]] += 1
            parent = _PARENT.get()
            span = Span(
                name,
                _REQUEST.get(),
                parent.name if parent is not None else None,
                time.perf_counter(),
            )
            tracer.spans.append(span)
            return span, parent, (_PARENT.set(span), request_token)

        def close_span(span: Span, parent: Span | None, tokens: tuple[Any, Any]) -> None:
            span.end = time.perf_counter()
            parent_token, request_token = tokens
            _PARENT.reset(parent_token)
            if request_token is not None and not entry:
                _REQUEST.reset(request_token)
            if parent is not None:
                parent.children += span.end - span.start

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                span, parent, tokens = open_span(args, kwargs)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    close_span(span, parent, tokens)
                if info is not None:
                    span.info = info(args, kwargs, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span, parent, tokens = open_span(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(span, parent, tokens)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Replace ``owner.attr`` (on a class, or on the shared kernel set) by a traced twin."""
        original = getattr(owner, attr)
        # The kernel set is a frozen dataclass: set its fields past the freeze.
        setter = setattr if isinstance(owner, type) else object.__setattr__
        setter(owner, attr, self.wrap(original, name, **options))
        self._restore.append(lambda: setter(owner, attr, original))

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._restore:
            self._restore.pop()()
        self.enabled = False


# ----------------------------------------------------------------------
# What a traced run wraps
# ----------------------------------------------------------------------
def _result_info(args: tuple, kwargs: dict, result: Any) -> Any:
    """Pairs, iterations and phase timings of a ``JoinSampler.sample`` result."""
    timings = result.timings
    return [
        len(result.pairs),
        result.iterations,
        timings.build_seconds,
        timings.count_seconds,
        timings.sample_seconds,
    ]


def _attempts_info(args: tuple, kwargs: dict, result: Any) -> Any:
    """Attempts resolved by one ``gather_accept`` kernel call."""
    return int(len(args[0]))


def _rows_info(args: tuple, kwargs: dict, result: Any) -> Any:
    """Bound-matrix rows one ``DynamicSampler.update`` recounted."""
    return int(result.refreshed_rows)


def _batch_scope(args: tuple, kwargs: dict) -> tuple[str, Any]:
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    return ("batch", [int(seed) for _t, seed in requests])


def _draw_scope(args: tuple, kwargs: dict) -> tuple[str, Any]:
    seed = kwargs.get("seed")
    return ("draw", None if seed is None else int(seed))


def _update_scope(args: tuple, kwargs: dict) -> tuple[str, Any]:
    return ("update", None)


def install(tracer: Tracer, service: bool = False) -> None:
    """Wrap every layer the per-layer metrics read (and the service's, on request)."""
    from repro.alias.walker import AliasTable, CumulativeTable
    from repro.api.session import SamplingSession
    from repro.bbst.join_index import BBSTJoinIndex
    from repro.core.base import JoinSampler
    from repro.dynamic.sampler import DynamicSampler
    from repro.geometry.point import PointSet
    from repro.grid.grid import Grid
    from repro.kernels import get_kernels
    from repro.manager.manager import SessionHandle

    patch = tracer.patch
    patch(PointSet, "sorted_by_x", "geometry.sort")
    patch(PointSet, "fingerprint", "geometry.fingerprint")
    patch(PointSet, "spot_fingerprint", "geometry.fingerprint")
    patch(Grid, "__init__", "grid.build")
    patch(Grid, "neighbor_cell_ids", "grid.cell_ids")
    patch(Grid, "flat", "grid.flat")
    patch(BBSTJoinIndex, "__init__", "bbst.build")
    patch(BBSTJoinIndex, "batch_bounds", "bbst.bounds")
    patch(BBSTJoinIndex, "corner_pick_batch", "bbst.corner")
    patch(BBSTJoinIndex, "nbytes", "bbst.nbytes")
    patch(AliasTable, "__init__", "alias.build")
    patch(AliasTable, "draw_many", "alias.draw")
    patch(CumulativeTable, "draw_many", "alias.draw")
    kernels = get_kernels()  # the default backend's shared kernel set
    for field in (
        "column_select",
        "edge_positions",
        "sorted_block_counts",
        "corner_qualifying",
        "corner_pick",
        "packed_lookup",
        "counts_gather",
        "rejection_accept",
    ):
        patch(kernels, field, "kernels")
    patch(kernels, "gather_accept", "kernels", info=_attempts_info)
    patch(JoinSampler, "sample", "core.sample", info=_result_info)
    patch(JoinSampler, "prepare", "api.prepare")
    patch(DynamicSampler, "prepare", "api.prepare")
    patch(SamplingSession, "draw", "api.draw")
    patch(SamplingSession, "draw_batch", "api.draw")
    patch(SamplingSession, "update", "api.update")
    patch(SessionHandle, "draw", "manager.call")
    patch(SessionHandle, "draw_batch", "manager.call", scope=_batch_scope)
    patch(SessionHandle, "update", "manager.call", scope=_update_scope)
    patch(DynamicSampler, "update", "dynamic.update", info=_rows_info)
    patch(DynamicSampler, "flush", "dynamic.flush")
    patch(DynamicSampler, "adopt_prepared_arrays", "artifacts.attach")
    if service:
        from repro.service import http
        from repro.service.core import ServiceCore

        patch(ServiceCore, "draw", "service.draw", scope=_draw_scope, entry=True)
        patch(ServiceCore, "update", "service.update", scope=_update_scope, entry=True)
        patch(http.ServiceServer, "_send_json", "service.encode")
        # _dispatch looks result_to_json up in its own module at call time.
        original = http.result_to_json
        http.result_to_json = tracer.wrap(original, "service.encode")
        tracer._restore.append(lambda: setattr(http, "result_to_json", original))
