"""HTTP transport: endpoints, error mapping, keep-alive, metrics, drain."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api.session import SamplingSession
from repro.service import ServiceConfig, ServiceServer, http_request

from service_helpers import ALGORITHM, make_core, make_spec

# Loopback networking stress: allow far more than the global per-test
# timeout (pytest-timeout; a no-op when the plugin is absent).
pytestmark = pytest.mark.timeout(600)


def run_with_server(scenario):
    """Run ``scenario(server)`` against a fresh core on a loopback listener."""
    core = make_core()

    async def wrapper():
        async with ServiceServer(core) as server:
            return await scenario(server)

    try:
        return asyncio.run(wrapper())
    finally:
        core.close()


class TestEndpoints:
    def test_draw_returns_pairs_seed_and_timings(self):
        async def scenario(server):
            return await http_request(
                server.host, server.port, "POST", "/v1/draw", {"t": 9, "seed": 4}
            )

        status, body = run_with_server(scenario)
        assert status == 200
        assert len(body["pairs"]) == 9
        assert body["metadata"]["request_seed"] == 4
        assert body["timings"]["total_seconds"] >= 0.0
        assert body["sampler"]

    def test_wire_reply_is_bit_identical_to_unmanaged_twin(self):
        async def scenario(server):
            return await http_request(
                server.host, server.port, "POST", "/v1/draw", {"t": 15, "seed": 77}
            )

        _status, body = run_with_server(scenario)
        twin = SamplingSession.from_spec(
            make_spec(seed=7, name="tenant-0"), algorithm=ALGORITHM, eager=False
        )
        try:
            reference = twin.draw(15, seed=77)
            assert body["pairs"] == [list(pair) for pair in reference.id_pairs()]
        finally:
            twin.close()

    def test_draw_distinct_endpoint(self):
        async def scenario(server):
            return await http_request(
                server.host,
                server.port,
                "POST",
                "/v1/draw_distinct",
                {"t": 8, "seed": 2},
            )

        status, body = run_with_server(scenario)
        assert status == 200
        pairs = [tuple(pair) for pair in body["pairs"]]
        assert len(pairs) == len(set(pairs)) == 8

    def test_update_and_plan_endpoints(self):
        async def scenario(server):
            update = await http_request(
                server.host,
                server.port,
                "POST",
                "/v1/update",
                {"side": "r", "insert": [[10.0, 10.0], [20.0, 20.0]], "delete": []},
            )
            plan = await http_request(
                server.host, server.port, "POST", "/v1/plan", {}
            )
            return update, plan

        (update_status, update_body), (plan_status, plan_body) = run_with_server(
            scenario
        )
        assert update_status == 200
        assert update_body["inserted"] == 2
        assert plan_status == 200
        assert plan_body["algorithm"]
        assert "stats" in plan_body and "explain" in plan_body

    def test_healthz_and_stats(self):
        async def scenario(server):
            health = await http_request(server.host, server.port, "GET", "/healthz")
            await http_request(
                server.host, server.port, "POST", "/v1/draw", {"t": 3, "seed": 0}
            )
            stats = await http_request(server.host, server.port, "GET", "/v1/stats")
            return health, stats

        (health_status, health_body), (stats_status, stats_body) = run_with_server(
            scenario
        )
        assert health_status == 200
        assert health_body["tenants"] == ["tenant-0"]
        assert stats_status == 200
        assert stats_body["service"]["requests_total"] == 1
        assert stats_body["manager"]["counters"]["draws_total"] == 1

    def test_prometheus_rendering(self):
        async def scenario(server):
            await http_request(
                server.host, server.port, "POST", "/v1/draw", {"t": 3, "seed": 0}
            )
            return await http_request(
                server.host, server.port, "GET", "/v1/stats?format=prometheus"
            )

        status, text = run_with_server(scenario)
        assert status == 200
        assert "# TYPE repro_draws_total counter" in text
        assert "repro_draws_total 1" in text
        assert 'repro_tenant_draws_total{tenant="tenant-0"} 1' in text
        assert "repro_service_coalescing_ratio" in text

    def test_keep_alive_serves_many_requests_on_one_connection(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                statuses = []
                for seed in range(4):
                    status, body = await http_request(
                        server.host,
                        server.port,
                        "POST",
                        "/v1/draw",
                        {"t": 2, "seed": seed},
                        connection=(reader, writer),
                    )
                    statuses.append(status)
                    assert len(body["pairs"]) == 2
                return statuses
            finally:
                writer.close()
                await writer.wait_closed()

        assert run_with_server(scenario) == [200, 200, 200, 200]


class TestErrorMapping:
    def test_missing_field_is_400(self):
        async def scenario(server):
            return await http_request(
                server.host, server.port, "POST", "/v1/draw", {}
            )

        status, body = run_with_server(scenario)
        assert status == 400
        assert "t" in body["error"]

    def test_invalid_spec_is_400(self):
        async def scenario(server):
            return await http_request(
                server.host, server.port, "POST", "/v1/draw", {"t": -4}
            )

        status, _body = run_with_server(scenario)
        assert status == 400

    def test_unknown_tenant_is_410(self):
        async def scenario(server):
            return await http_request(
                server.host,
                server.port,
                "POST",
                "/v1/draw",
                {"t": 2, "tenant": "nobody"},
            )

        status, _body = run_with_server(scenario)
        assert status == 410

    def test_unknown_path_is_404_and_wrong_method_is_405(self):
        async def scenario(server):
            missing = await http_request(
                server.host, server.port, "POST", "/v1/nope", {}
            )
            wrong = await http_request(
                server.host, server.port, "GET", "/v1/draw"
            )
            return missing, wrong

        (missing_status, _), (wrong_status, _) = run_with_server(scenario)
        assert missing_status == 404
        assert wrong_status == 405

    def test_malformed_json_is_400(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                body = b"{not json"
                writer.write(
                    b"POST /v1/draw HTTP/1.1\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"Connection: close\r\n\r\n" + body
                )
                await writer.drain()
                status_line = await reader.readline()
                return int(status_line.split(b" ")[1])
            finally:
                writer.close()
                await writer.wait_closed()

        assert run_with_server(scenario) == 400

    @pytest.mark.parametrize(
        ("headers", "status"),
        [
            pytest.param(b"Content-Length: abc\r\n", 400, id="non-numeric-length"),
            pytest.param(b"Content-Length: -5\r\n", 400, id="negative-length"),
            pytest.param(b"X: " + b"a" * 70_000 + b"\r\n", 400, id="line-over-stream-limit"),
            pytest.param(b"Content-Length: 9000000\r\n", 413, id="body-too-large"),
            pytest.param((b"X: " + b"a" * 2_000 + b"\r\n") * 40, 400, id="header-section-too-large"),
        ],
    )
    def test_malformed_framing_gets_a_reply(self, headers, status):
        loop_errors = []

        async def scenario(server):
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: loop_errors.append(context)
            )
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                # A well-framed GET /healthz is a 200, so any 400/413 is the framing's.
                writer.write(b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
                await writer.drain()
                return await reader.readline()
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass  # the server closed first, with request bytes unread

        status_line = run_with_server(scenario)
        assert status_line.split(b" ")[1:2] == [str(status).encode()]
        assert loop_errors == []

    def test_overload_is_503_with_retry_after(self):
        core = make_core(
            ServiceConfig(
                coalesce_window=0.05,
                max_in_flight=1,
                max_queued=0,
                executor_threads=1,
            )
        )

        async def wrapper():
            async with ServiceServer(core) as server:
                blocker = asyncio.create_task(
                    http_request(
                        server.host,
                        server.port,
                        "POST",
                        "/v1/draw",
                        {"t": 2, "seed": 0},
                    )
                )
                await asyncio.sleep(0.01)
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    payload = json.dumps({"t": 2, "seed": 1}).encode()
                    writer.write(
                        b"POST /v1/draw HTTP/1.1\r\n"
                        b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
                        b"Connection: close\r\n\r\n" + payload
                    )
                    await writer.drain()
                    status_line = await reader.readline()
                    status = int(status_line.split(b" ")[1])
                    headers = {}
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n", b""):
                            break
                        name, _, value = line.decode().partition(":")
                        headers[name.strip().lower()] = value.strip()
                    return status, headers, await blocker
                finally:
                    writer.close()
                    await writer.wait_closed()

        try:
            status, headers, (blocker_status, _) = asyncio.run(wrapper())
            assert status == 503
            assert float(headers["retry-after"]) >= 0.0
            assert blocker_status == 200
        finally:
            core.close()


class TestShutdown:
    def test_shutdown_drains_and_healthz_reports_draining(self):
        core = make_core()

        async def wrapper():
            server = ServiceServer(core)
            await server.start()
            status, _ = await http_request(
                server.host, server.port, "POST", "/v1/draw", {"t": 2, "seed": 0}
            )
            assert status == 200
            drained = await server.shutdown()
            return drained

        try:
            assert asyncio.run(wrapper()) is True
            assert core.draining is True
        finally:
            core.close()
