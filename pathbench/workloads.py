"""The three user paths the benchmark drives, each as one workload.

``oneshot-skewed``  cold ``create_sampler`` + ``preprocess`` + ``sample(t)`` on
                    the NYC hotspot proxy (the paper's headline query).
``session-uniform`` ``open_session`` over uniform points, then one caller's
                    closed loop of interleaved t = 64 and t = 65,536 draws.
``service-mixed``   the HTTP service in its own process, warm-started from a
                    prepared-state artifact, under an open loop of draws and
                    updates, then a read-only closed loop.

Every workload prints the same end-to-end metrics, each defined for its own
path (see ``pathbench/README.md``).  The program is driven only through its
public entry points; inputs come from ``repro.datasets`` and the seed.
"""

from __future__ import annotations

import asyncio
import json
import math
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from pathbench import layers
from pathbench.checks import PairCheck, pairs_of
from pathbench.tracing import Span, Tracer

#: Window half-extent l of every workload.
HALF_EXTENT = 100.0
ALGORITHM = "bbst"
SERVER = Path(__file__).resolve().parent / "server.py"


@dataclass(frozen=True)
class Size:
    """Input and request sizes of one workload at one scale."""

    n: int
    t: int
    t_bulk: int = 0
    #: Set-ups repeated per run (``setup_s`` is their median).
    setups: int = 3
    #: session: t-sized draws per bulk draw.
    small_per_bulk: int = 0
    #: service: open-loop draws per second.
    rate: float = 0.0
    #: service: seconds between updates, and deletes (= inserts) per update.
    update_every: float = 0.0
    update_size: int = 0


SIZES: dict[str, dict[str, Size]] = {
    "oneshot-skewed": {
        "full": Size(n=1_000_000, t=100_000, setups=5),
        "smoke": Size(n=20_000, t=2_000, setups=2),
    },
    "session-uniform": {
        "full": Size(n=1_000_000, t=64, t_bulk=65_536, setups=2, small_per_bulk=64),
        "smoke": Size(n=20_000, t=64, t_bulk=4_096, setups=2, small_per_bulk=8),
    },
    "service-mixed": {
        "full": Size(n=100_000, t=256, setups=3, rate=40.0, update_every=5.0, update_size=20),
        "smoke": Size(n=5_000, t=64, setups=2, rate=40.0, update_every=0.5, update_size=5),
    },
}


@dataclass
class Run:
    """One invocation: its arguments, checks and bookkeeping."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: Size
    scale: str
    workdir: Path
    corrupt: int = 0
    tracer: Tracer = field(default_factory=Tracer)
    checker: PairCheck | None = None
    attempted: int = 0
    #: Operations that raised or were refused (check failures come on top).
    failed: int = 0
    record: dict[str, Any] = field(default_factory=dict)

    def check_inputs(self, r_points, s_points) -> PairCheck:
        self.checker = PairCheck(r_points, s_points, HALF_EXTENT)
        self.checker.corrupt = self.corrupt
        return self.checker

    @property
    def failures(self) -> int:
        return self.failed + (len(self.checker.failures) if self.checker else 0)

    def success_rate(self) -> float:
        return 1.0 - self.failures / max(1, self.attempted)


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced if untraced > 0 else 0.0


def end_to_end(
    setup: list[float], draws: list[float], pairs: int, busy: float, rss: float, ok: float
) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "draw_p50_ms": statistics.median(draws) * 1e3,
        "draw_p95_ms": percentile(draws, 0.95) * 1e3,
        "pairs_per_s": pairs / busy,
        "peak_rss_mb": rss,
        "success_rate": ok,
    }


# ----------------------------------------------------------------------
# oneshot-skewed
# ----------------------------------------------------------------------
def oneshot_skewed(run: Run) -> dict[str, float]:
    from repro import JoinSpec, create_sampler, split_r_s
    from repro.datasets import nyc_proxy

    size = run.size
    points = nyc_proxy(2 * size.n)
    r_points, s_points = split_r_s(points, np.random.default_rng(run.seed))
    spec = JoinSpec(r_points=r_points, s_points=s_points, half_extent=HALF_EXTENT)
    checker = run.check_inputs(r_points, s_points)
    tracer = run.tracer
    run.record.update(n=spec.n, m=spec.m, l=HALF_EXTENT, t=size.t, dataset="nyc")

    def preprocess() -> Any:
        sampler = create_sampler(ALGORITHM, spec)
        with tracer.request("setup"):
            start = time.perf_counter()
            sampler.preprocess()
            setup.append(time.perf_counter() - start)
        return sampler

    setup: list[float] = []
    tracer.enabled = run.trace
    for _ in range(size.setups):
        preprocess()
    latencies: list[float] = []
    traced_times: list[float] = []
    pairs = 0
    began = time.perf_counter()
    rep = 0
    # Cold queries until the next one would overrun the run; a traced run
    # alternates untraced and traced queries (at least one of each).
    while True:
        sampler = preprocess()
        tracer.enabled = run.trace and rep % 2 == 1
        with tracer.request("cold"):
            start = time.perf_counter()
            result = sampler.sample(size.t, seed=run.seed * 1_000 + rep)
            elapsed = time.perf_counter() - start
        tracer.enabled = run.trace
        run.attempted += 1
        (traced_times if rep % 2 == 1 and run.trace else latencies).append(elapsed)
        pairs += len(result)
        checker.check(pairs_of(result), size.t)
        del result, sampler
        rep += 1
        spent = time.perf_counter() - began
        if spent + elapsed > run.seconds and (not run.trace or rep >= 2):
            break
    tracer.enabled = False
    run.record["queries"] = rep
    if run.trace:
        metrics = layers.span_metrics(run.workload, tracer.spans, tracer.requests)
        cold = sum(traced_times)
        covered = layers.attributed(tracer.spans, ["cold"])
        metrics.update(
            layers.coverage_metrics(
                covered, cold, overhead_pct(statistics.mean(traced_times), statistics.mean(latencies))
            )
        )
        return metrics
    return end_to_end(setup, latencies, pairs, sum(latencies), peak_rss_mb(), run.success_rate())


# ----------------------------------------------------------------------
# session-uniform
# ----------------------------------------------------------------------
def session_uniform(run: Run) -> dict[str, float]:
    from repro import open_session, split_r_s, uniform_points

    size = run.size
    rng = np.random.default_rng(run.seed)
    r_points, s_points = split_r_s(uniform_points(2 * size.n, rng), rng)
    checker = run.check_inputs(r_points, s_points)
    tracer = run.tracer
    tracer.enabled = run.trace
    run.record.update(
        n=len(r_points), m=len(s_points), l=HALF_EXTENT, t=size.t, t_bulk=size.t_bulk,
        small_per_bulk=size.small_per_bulk, dataset="uniform",
    )
    seeds = iter(range(run.seed * 10_000_000, (run.seed + 1) * 10_000_000))

    setup: list[float] = []
    setup_spent = 0.0
    handle = None
    for _ in range(size.setups):
        if handle is not None:
            handle.close()
        with tracer.request("setup"):
            start = time.perf_counter()
            handle = open_session(r_points, s_points, HALF_EXTENT, algorithm=ALGORITHM)
            result = handle.draw(size.t, seed=next(seeds))
            setup.append(time.perf_counter() - start)
        setup_spent += setup[-1]
        run.attempted += 1
        checker.check(pairs_of(result), size.t)
        del result
    assert handle is not None

    small: list[float] = []
    bulk_seconds = 0.0
    bulk_pairs = 0
    # Request seconds and cycles of untraced (0) and traced (1) cycles.
    mode_seconds = [0.0, 0.0]
    mode_cycles = [0, 0]
    deadline = time.perf_counter() + run.seconds
    cycle = 0
    try:
        # Interactive and bulk draws interleave, so both see the same state.
        while time.perf_counter() < deadline:
            traced = run.trace and cycle % 2 == 0
            tracer.enabled = traced
            for _ in range(size.small_per_bulk):
                seed = next(seeds)
                with tracer.request("small"):
                    start = time.perf_counter()
                    result = handle.draw(size.t, seed=seed)
                    elapsed = time.perf_counter() - start
                small.append(elapsed)
                mode_seconds[traced] += elapsed
                run.attempted += 1
                checker.check(pairs_of(result), size.t)
                del result
            seed = next(seeds)
            with tracer.request("bulk"):
                start = time.perf_counter()
                result = handle.draw(size.t_bulk, seed=seed)
                elapsed = time.perf_counter() - start
            bulk_seconds += elapsed
            mode_seconds[traced] += elapsed
            bulk_pairs += len(result)
            run.attempted += 1
            checker.check(pairs_of(result), size.t_bulk)
            del result
            mode_cycles[traced] += 1
            cycle += 1
    finally:
        tracer.enabled = False
        handle.close()
    run.record.update(small_draws=len(small), bulk_draws=cycle)
    if run.trace:
        metrics = layers.span_metrics(run.workload, tracer.spans, tracer.requests)
        traced_cycles = mode_seconds[1]
        covered = layers.attributed(tracer.spans, ["setup", "small", "bulk"])
        per_cycle = [mode_seconds[0] / max(1, mode_cycles[0]), traced_cycles / max(1, mode_cycles[1])]
        metrics.update(
            layers.coverage_metrics(
                covered, setup_spent + traced_cycles, overhead_pct(per_cycle[1], per_cycle[0])
            )
        )
        return metrics
    return end_to_end(setup, small, bulk_pairs, bulk_seconds, peak_rss_mb(), run.success_rate())


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
TENANT = "foursquare"
#: A draw refused while an update runs is retried every RETRY_AFTER seconds
#: for at most RETRY_FOR seconds.
RETRY_AFTER = 0.005
RETRY_FOR = 10.0
#: Share of each cycle spent in the read-only closed loop.
CLOSED_SHARE = 0.25
#: Seconds a server process may take to start listening.
START_TIMEOUT = 60.0


class Connection:
    """One keep-alive HTTP/1.1 connection of the load generator.

    The generator speaks HTTP itself rather than through the program's
    ``http_request`` helper, so a change to that helper cannot move the
    client side of the measured latency.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> Connection:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def post(self, path: str, payload: dict) -> tuple[int, Any, float]:
        """Send one request; returns ``(status, decoded body, send time)``."""
        body = json.dumps(payload).encode()
        head = (
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        sent = time.perf_counter()
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("the server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while (line := await self.reader.readline()) not in (b"\r\n", b"\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await self.reader.readexactly(length) if length else b""
        return status, json.loads(raw) if raw else None, sent

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


class Server:
    """The service in its own process, warm-started from the run's artifact."""

    def __init__(self, run: Run, index: int) -> None:
        self.out = run.workdir / f"server-{index}.json"
        command = [
            sys.executable, str(SERVER),
            "--artifact", str(run.workdir / "artifact"),
            "--tenant", TENANT,
            "--points", str(run.workdir / "points"),
            "--half-extent", repr(HALF_EXTENT),
            "--out", str(self.out),
            "--trace", "1" if run.trace else "0",
        ]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT)
        line = self.process.stdout.readline().decode() if ready else ""
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError(f"the server did not start (said {line!r})")
        self.port = int(line.split()[1])

    def toggle_tracing(self) -> None:
        self.process.send_signal(signal.SIGUSR1)

    def stop(self) -> dict[str, Any]:
        """Drain the server (SIGTERM) and read what it recorded."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        if self.process.returncode != 0 or not self.out.exists():
            return {}
        return json.loads(self.out.read_text())


@dataclass
class Traffic:
    """What the load generator saw, for the metrics and the trace join."""

    setup: list[float] = field(default_factory=list)
    setup_seeds: set[int] = field(default_factory=set)
    draws: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    updates: list[float] = field(default_factory=list)
    #: Client latency from send, per pinned seed (joins the server's spans).
    from_send: dict[int, float] = field(default_factory=dict)
    closed_replies: list[int] = field(default_factory=lambda: [0, 0])
    closed_seconds: list[float] = field(default_factory=lambda: [0.0, 0.0])
    rejected: int = 0


class LoadGenerator:
    """Draws and updates over two keep-alive connections."""

    def __init__(self, run: Run, s_points: Any) -> None:
        self.run = run
        self.size = run.size
        self.traffic = Traffic()
        self.rng = np.random.default_rng(run.seed + 1)
        self.seeds = iter(range(run.seed * 10_000_000, (run.seed + 1) * 10_000_000))
        # Deletes pick from the original S ids only, so the largest live id
        # is always an inserted one and inserted ids are never reused:
        # the service assigns max(live ids) + 1, ... to inserted points.
        self.deletable = list(self.rng.permutation(s_points.ids))
        self.next_id = int(s_points.ids.max()) + 1

    async def draw(
        self, connection: Connection, due: float | None = None
    ) -> tuple[float | None, int]:
        """One ``/v1/draw`` request; returns its latency and pinned seed.

        The latency runs from ``due`` (or the first send) to the reply that
        carried the pairs.  A draw refused with 409 while an update runs is
        retried, like a client that needs its sample would, and the request
        counts as failed (refused) whether or not a retry succeeds; the
        latency is ``None`` when no attempt succeeded.
        """
        size = self.size
        seed = next(self.seeds)
        self.run.attempted += 1
        first = None
        refused = False
        while True:
            status, body, sent = await connection.post("/v1/draw", {"t": size.t, "seed": seed})
            first = sent if first is None else first
            if status != 409 or sent - first > RETRY_FOR:
                break
            refused = True
            self.traffic.rejected += 1
            await asyncio.sleep(RETRY_AFTER)
        done = time.perf_counter()
        if refused or status != 200:
            self.run.failed += 1
        if status != 200:
            self.traffic.rejected += 1
            return None, seed
        self.run.checker.check(body["pairs"], size.t, sent_at=sent)
        self.traffic.from_send[seed] = done - sent
        return done - (first if due is None else due), seed

    async def update(self, connection: Connection, due: float) -> None:
        """Delete ``update_size`` original S points and insert as many new ones."""
        count = self.size.update_size
        delete = [int(self.deletable.pop()) for _ in range(count)]
        xs = self.rng.uniform(0.0, 10_000.0, count)
        ys = self.rng.uniform(0.0, 10_000.0, count)
        ids = np.arange(self.next_id, self.next_id + count)
        self.next_id += count
        # Inserted points may appear in replies once the update is sent.
        self.run.checker.insert_s(ids, xs, ys)
        payload = {"side": "s", "delete": delete, "insert": np.column_stack((xs, ys)).tolist()}
        self.run.attempted += 1
        status, _body, _sent = await connection.post("/v1/update", payload)
        done = time.perf_counter()
        if status != 200:
            self.run.failed += 1
            self.traffic.rejected += 1
            return
        self.run.checker.delete_s(np.array(delete), acknowledged_at=done)
        self.traffic.updates.append(done - due)

    async def setup_probe(self, server: Server) -> None:
        """The first draw after a start: ``setup_s`` runs from start to its reply."""
        connection = await Connection.open(server.port)
        try:
            _latency, seed = await self.draw(connection)
            self.traffic.setup.append(time.perf_counter() - server.started)
            self.traffic.setup_seeds.add(seed)
        finally:
            await connection.close()

    async def warm_up(self, connection: Connection) -> None:
        await self.update(connection, time.perf_counter())
        self.run.record["first_update_s"] = self.traffic.updates.pop()

    async def open_loop(self, connections: list[Connection], duration: float) -> None:
        """Draws due ``rate`` times a second and one update due mid-way.

        Requests wait for a free connection in due-time order and are timed
        from their due time.
        """
        size = self.size
        queue: asyncio.Queue = asyncio.Queue()
        begin = time.perf_counter() + 0.01

        async def serve(connection: Connection) -> None:
            while (item := await queue.get()) is not None:
                kind, due = item
                if kind == "draw":
                    latency, _seed = await self.draw(connection, due)
                    if latency is not None:
                        self.traffic.draws.append(latency)
                else:
                    await self.update(connection, due)

        async def schedule(kind: str, due: float) -> None:
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            self.traffic.late.append(time.perf_counter() - due)
            queue.put_nowait((kind, due))

        async def schedule_all() -> None:
            dues = [("draw", begin + index / size.rate) for index in range(int(duration * size.rate))]
            dues.append(("update", begin + duration / 2))
            for kind, due in sorted(dues, key=lambda item: item[1]):
                await schedule(kind, due)

        workers = [asyncio.create_task(serve(connection)) for connection in connections]
        await schedule_all()
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)

    async def closed_loop(self, connections: list[Connection], duration: float, mode: int) -> None:
        """Back-to-back draws on every connection; replies count under ``mode``."""
        until = time.perf_counter() + duration

        async def loop(connection: Connection) -> None:
            while time.perf_counter() < until:
                latency, _seed = await self.draw(connection)
                if latency is not None:
                    self.traffic.closed_replies[mode] += 1

        start = time.perf_counter()
        await asyncio.gather(*(loop(connection) for connection in connections))
        self.traffic.closed_seconds[mode] += time.perf_counter() - start

    async def measure(self, server: Server, duration: float, cycles: int) -> None:
        """The timed part: ``cycles`` x (open loop with one update, closed loop).

        Alternating the two phases spreads both over the whole run, so they
        see the same machine state.  A traced run traces every open loop and
        every other closed loop (the server toggles on SIGUSR1), which gives
        the tracing overhead; closed-loop replies count under mode 1 when
        traced and 0 when not.
        """
        connections = [await Connection.open(server.port) for _ in range(2)]
        traced = self.run.trace
        try:
            await self.warm_up(connections[0])
            cycle = duration / cycles
            for index in range(cycles):
                await self.open_loop(connections, cycle * (1 - CLOSED_SHARE))
                untraced = traced and index % 2 == 1
                if untraced:
                    server.toggle_tracing()
                await self.closed_loop(connections, cycle * CLOSED_SHARE, int(traced and not untraced))
                if untraced:
                    server.toggle_tracing()
        finally:
            for connection in connections:
                await connection.close()


def service_mixed(run: Run) -> dict[str, float]:
    from repro import SamplingSession, split_r_s
    from repro.datasets import foursquare_proxy, save_points_npy

    size = run.size
    points = foursquare_proxy(2 * size.n)
    r_points, s_points = split_r_s(points, np.random.default_rng(run.seed))
    run.check_inputs(r_points, s_points)
    cycles = max(1, round(run.seconds / size.update_every))
    run.record.update(
        n=len(r_points), m=len(s_points), l=HALF_EXTENT, t=size.t, dataset="foursquare",
        draw_rate_per_s=size.rate, update_every_s=run.seconds / cycles,
        update_deletes=size.update_size, update_inserts=size.update_size,
        connections=2, cycles=cycles, open_loop_s=run.seconds * (1 - CLOSED_SHARE),
        closed_loop_s=run.seconds * CLOSED_SHARE,
    )

    # Untimed: the code under test builds the artifact the server attaches.
    session = SamplingSession(r_points, s_points, HALF_EXTENT, algorithm=ALGORITHM, eager=False)
    try:
        session.prepare()
        session.save(run.workdir / "artifact" / TENANT)
    finally:
        session.close()
    save_points_npy(r_points, run.workdir / "points" / "r.npy")
    save_points_npy(s_points, run.workdir / "points" / "s.npy")
    blobs = (run.workdir / "artifact" / TENANT).rglob("*.bin")
    mapped_mb = sum(blob.stat().st_size for blob in blobs) / 2**20

    generator = LoadGenerator(run, s_points)
    records: list[dict[str, Any]] = []
    for index in range(size.setups):
        server = Server(run, index)
        try:
            asyncio.run(generator.setup_probe(server))
            if index == size.setups - 1:
                asyncio.run(generator.measure(server, run.seconds, cycles))
        finally:
            records.append(server.stop())
    if not all(records):
        raise RuntimeError("a server exited without its record")
    traffic = generator.traffic
    if run.trace:
        return service_layers(run, traffic, records, mapped_mb)
    return end_to_end(
        traffic.setup,
        traffic.draws,
        traffic.closed_replies[0] * size.t,
        traffic.closed_seconds[0],
        records[-1]["peak_rss_mb"],
        run.success_rate(),
    )


def service_layers(
    run: Run, traffic: Traffic, records: list[dict[str, Any]], mapped_mb: float
) -> dict[str, float]:
    """Per-layer metrics of a traced service run, joined on pinned seeds."""
    setup_seeds = traffic.setup_seeds
    spans: list[Span] = []
    for record in records:
        for row in record.get("spans", []):
            span = Span.from_row(row)
            if span.request is not None:
                klass, rid = span.request
                if klass == "batch":
                    rid = tuple(rid)
                    klass = "setup" if setup_seeds.intersection(rid) else "draw"
                    span.request = (klass, ("batch", rid))
                elif klass == "draw" and rid in setup_seeds:
                    span.request = ("setup", rid)
            spans.append(span)
    requests = {
        "setup": sum(1 for s in spans if s.name == "service.draw" and s.request[0] == "setup"),
        "draw": sum(1 for s in spans if s.name == "service.draw" and s.request[0] == "draw"),
        "update": sum(1 for s in spans if s.name == "service.update"),
    }
    metrics = layers.span_metrics(run.workload, spans, requests)

    # Join each traced draw with its batch (the batch span's request names
    # every seed it served) and the reply encoding of its connection task.
    batches: dict[tuple, Span] = {}
    batch_self: dict[tuple, float] = {}
    entry: dict[int, Span] = {}
    encode: dict[int, float] = {}
    for span in spans:
        if span.request is None or span.request[0] != "draw":
            continue
        rid = span.request[1]
        if isinstance(rid, tuple):
            batch_self[rid] = batch_self.get(rid, 0.0) + span.self_time
            if span.name == "manager.call":
                batches[rid] = span
        elif span.name == "service.draw":
            entry[rid] = span
        elif span.name == "service.encode":
            encode[rid] = encode.get(rid, 0.0) + span.duration
    batch_of = {seed: key for key in batches for seed in key[1]}
    waits, transports, covered, end_to_end_seconds = [], [], 0.0, 0.0
    for seed, span in entry.items():
        key = batch_of.get(seed)
        if key is None or seed not in traffic.from_send:
            continue
        batch = batches[key]
        latency = traffic.from_send[seed]
        waits.append(batch.start - span.start)
        transports.append(latency - span.duration - encode.get(seed, 0.0))
        covered += span.duration - batch.duration + batch_self[key] + encode.get(seed, 0.0)
        end_to_end_seconds += latency
    draws = max(1, len(waits))
    closed = traffic.closed_replies
    per_reply = [
        traffic.closed_seconds[mode] / closed[mode] if closed[mode] else 0.0 for mode in (0, 1)
    ]
    metrics.update(
        {
            "service.wait_ms": 1e3 * sum(waits) / draws,
            "service.batch_size": (
                sum(len(key[1]) for key in batches) / len(batches) if batches else 0.0
            ),
            "service.encode_ms": 1e3 * sum(encode.get(seed, 0.0) for seed in entry) / draws,
            "service.transport_ms": 1e3 * sum(transports) / draws,
            "service.rejected": float(traffic.rejected),
            "artifacts.mapped_mb": mapped_mb,
            "loadgen.late_p99_ms": 1e3 * percentile(traffic.late, 0.99),
            "loadgen.update_p50_ms": 1e3 * statistics.median(traffic.updates),
        }
    )
    metrics.update(
        layers.coverage_metrics(
            covered, end_to_end_seconds, overhead_pct(per_reply[1], per_reply[0])
        )
    )
    return metrics


WORKLOADS = {
    "oneshot-skewed": oneshot_skewed,
    "session-uniform": session_uniform,
    "service-mixed": service_mixed,
}
