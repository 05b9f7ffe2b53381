"""Per-layer metrics computed from the spans of a traced run.

Every per-layer metric is printed on every workload.  A metric averages over
the traced requests of one request class, chosen per workload from where the
layer does its work (``None``: the layer does no work on that path and the
metric reads 0).  The classes are ``setup`` and ``cold`` on
``oneshot-skewed``; ``setup``, ``small`` (t = 64) and ``bulk`` (t = 65,536)
on ``session-uniform``; ``setup`` (the first draw after a server start),
``draw`` and ``update`` on ``service-mixed``.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from pathbench.tracing import Span

ONESHOT, SESSION, SERVICE = "oneshot-skewed", "session-uniform", "service-mixed"


def _on(oneshot: str | None, session: str | None, service: str | None) -> dict:
    return {ONESHOT: oneshot, SESSION: session, SERVICE: service}


#: metric -> (span name, statistic, scale, request class per workload)
SPAN_METRICS: dict[str, tuple[str, str, float, dict[str, str | None]]] = {
    "geometry.sort_s": ("geometry.sort", "self", 1.0, _on("setup", "setup", "setup")),
    "geometry.fingerprint_ms": ("geometry.fingerprint", "self", 1e3, _on(None, "small", "update")),
    "grid.build_s": ("grid.build", "self", 1.0, _on("cold", "setup", None)),
    "grid.cell_ids_s": ("grid.cell_ids", "self", 1.0, _on("cold", "setup", None)),
    "grid.flat_ms": ("grid.flat", "self", 1e3, _on("cold", "setup", "update")),
    "bbst.build_s": ("bbst.build", "self", 1.0, _on("cold", "setup", None)),
    "bbst.bounds_s": ("bbst.bounds", "self", 1.0, _on("cold", "setup", "update")),
    "bbst.corner_ms": ("bbst.corner", "self", 1e3, _on("cold", "bulk", "draw")),
    "bbst.nbytes_ms": ("bbst.nbytes", "self", 1e3, _on(None, None, "update")),
    "alias.build_s": ("alias.build", "self", 1.0, _on("cold", "setup", "update")),
    "alias.draw_ms": ("alias.draw", "self", 1e3, _on("cold", "bulk", "draw")),
    "kernels.ms": ("kernels", "self", 1e3, _on("cold", "bulk", "draw")),
    "kernels.attempts": ("kernels", "info", 1.0, _on("cold", "bulk", "draw")),
    "core.build_s": ("core.sample", "timing:2", 1.0, _on("cold", "setup", None)),
    "core.count_s": ("core.sample", "timing:3", 1.0, _on("cold", "setup", None)),
    "core.sample_s": ("core.sample", "timing:4", 1.0, _on("cold", "bulk", "draw")),
    "core.self_ms": ("core.sample", "self", 1e3, _on("cold", "small", "draw")),
    "core.attempts_per_pair": ("core.sample", "ratio", 1.0, _on("cold", "bulk", "draw")),
    "core.rounds": ("alias.draw", "calls", 1.0, _on("cold", "small", "draw")),
    "api.prepare_s": ("api.prepare", "total", 1.0, _on(None, "setup", "setup")),
    "api.self_ms": ("api.draw", "self", 1e3, _on(None, "small", "draw")),
    "api.update_ms": ("api.update", "self", 1e3, _on(None, None, "update")),
    "manager.self_ms": ("manager.call", "self", 1e3, _on(None, "small", "draw")),
    "dynamic.update_ms": ("dynamic.update", "self", 1e3, _on(None, None, "update")),
    "dynamic.flush_ms": ("dynamic.flush", "self", 1e3, _on(None, None, "update")),
    "dynamic.rows": ("dynamic.update", "info", 1.0, _on(None, None, "update")),
    "artifacts.attach_s": ("artifacts.attach", "total", 1.0, _on(None, None, "setup")),
}

#: Metrics the service workload computes from client and server records.
SERVICE_METRICS = (
    "service.wait_ms",
    "service.batch_size",
    "service.encode_ms",
    "service.transport_ms",
    "service.rejected",
    "artifacts.mapped_mb",
    "loadgen.late_p99_ms",
    "loadgen.update_p50_ms",
)



def klass_of(span: Span) -> str | None:
    return span.request[0] if span.request is not None else None


def span_metrics(
    workload: str, spans: Iterable[Span], requests: dict[str, int]
) -> dict[str, float]:
    """Every span-derived metric of one workload (0 where the layer is idle)."""
    by_name: dict[tuple[str, str | None], list[Span]] = defaultdict(list)
    for span in spans:
        by_name[(span.name, klass_of(span))].append(span)
    # The service workload overwrites these with what it measured.
    metrics: dict[str, float] = dict.fromkeys(SERVICE_METRICS, 0.0)
    for metric, (name, statistic, scale, classes) in SPAN_METRICS.items():
        klass = classes[workload]
        count = requests.get(klass, 0) if klass is not None else 0
        if count == 0:
            metrics[metric] = 0.0
            continue
        chosen = by_name.get((name, klass), [])
        if statistic != "self":
            # A dynamic sampler's sample() and prepare() wrap its inner
            # sampler's: count each call once, from the outermost span.
            chosen = [span for span in chosen if span.parent_name != name]
        if statistic == "self":
            value = sum(span.self_time for span in chosen) / count
        elif statistic == "total":
            value = sum(span.duration for span in chosen) / count
        elif statistic == "calls":
            value = len(chosen) / count
        elif statistic == "info":
            value = sum(span.info or 0 for span in chosen) / count
        elif statistic == "ratio":
            pairs = sum(span.info[0] for span in chosen)
            value = sum(span.info[1] for span in chosen) / pairs if pairs else 0.0
        else:  # "timing:<column of the sample() info>"
            column = int(statistic.split(":")[1])
            value = sum(span.info[column] for span in chosen) / count
        metrics[metric] = value * scale
    return metrics


def attributed(spans: Iterable[Span], classes: Iterable[str]) -> float:
    """Seconds of self time the named layers cover inside requests of ``classes``."""
    wanted = set(classes)
    return sum(span.self_time for span in spans if klass_of(span) in wanted)


def coverage_metrics(covered: float, end_to_end: float, overhead_pct: float) -> dict[str, float]:
    share = covered / end_to_end if end_to_end > 0 else 0.0
    return {
        "trace.overhead_pct": overhead_pct,
        "trace.coverage": share,
        "trace.unattributed": 1.0 - share,
    }
