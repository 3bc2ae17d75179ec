"""End-to-end server tests over a real socket (in-process event loop).

The load-bearing assertions of the tentpole live here: N identical
concurrent requests cost exactly one execution and return byte-identical
bodies equal to a solo ``--oneshot`` run; a poisoned query degrades its
own response while the server stays healthy; overload answers 429.
"""

import asyncio
import json
import time

import pytest

from repro.errors import ConfigurationError
from repro.serve import ServeApp, ServeConfig, ServeClient, fetch
from repro.serve.query import run_oneshot

SLOW_QUERY = {
    "device": "cxl-a",
    "points": [{"offered_gbps": g} for g in (2.0, 4.0, 6.0)],
    "n_requests": 250_000,
    "seed": 11,
}
FAST_QUERY = {
    "device": "cxl-b",
    "points": [{"offered_gbps": 3.0}],
    "n_requests": 2_000,
    "seed": 5,
}


def body_of(query: dict) -> bytes:
    return json.dumps(query).encode()


async def admitted(app, active, queued, timeout_s=10.0):
    """Wait until ``app`` holds ``active`` running and ``queued`` waiting
    leaders (bounded: a server that never gets there fails the test)."""
    deadline = time.monotonic() + timeout_s
    while (app.admission.active, app.admission.queued) != (active, queued):
        assert time.monotonic() < deadline, (
            f"admission stuck at {app.admission.active} active, "
            f"{app.admission.queued} queued"
        )
        await asyncio.sleep(0.002)


def with_app(config: ServeConfig, scenario):
    """Start a server on an ephemeral port, run ``scenario(app)``, stop."""

    async def go():
        app = ServeApp(config)
        await app.start()
        try:
            return await scenario(app)
        finally:
            app.request_shutdown()
            await app.stop()

    return asyncio.run(go())


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        {"port": -5}, {"port": 70_000}, {"workers": 0},
        {"max_inflight": -1}, {"max_queue": 0}, {"per_tenant": 0},
        {"cell_retries": 0}, {"drain_s": -1.0},
    ])
    def test_bad_limits_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ServeConfig(**bad)


class TestCoalescedExecution:
    def test_n_duplicates_one_execution_byte_identical(self):
        async def scenario(app):
            payload = body_of(SLOW_QUERY)
            responses = await asyncio.gather(*(
                fetch("127.0.0.1", app.port, "POST", "/v1/characterize",
                      payload)
                for _ in range(6)
            ))
            return responses, app.coalescer.leads, app.coalescer.coalesced

        responses, leads, coalesced = with_app(
            ServeConfig(port=0, workers=2), scenario
        )
        assert [r.status for r in responses] == [200] * 6
        bodies = {r.body for r in responses}
        assert len(bodies) == 1
        assert leads == 1 and coalesced == 5
        # The coalesced bytes equal a solo one-shot run of the query.
        assert bodies.pop() == run_oneshot(json.dumps(SLOW_QUERY))

    def test_distinct_queries_do_not_coalesce(self):
        async def scenario(app):
            slow, fast = await asyncio.gather(
                fetch("127.0.0.1", app.port, "POST", "/v1/characterize",
                      body_of(SLOW_QUERY)),
                fetch("127.0.0.1", app.port, "POST", "/v1/characterize",
                      body_of(FAST_QUERY)),
            )
            return slow, fast, app.coalescer.leads

        slow, fast, leads = with_app(
            ServeConfig(port=0, workers=2), scenario
        )
        assert slow.status == fast.status == 200
        assert slow.body != fast.body
        assert leads == 2

    def test_concurrent_distinct_cold_queries_match_oneshot(self):
        """Worker threads computing at once return solo-identical bytes."""
        queries = [
            {
                "device": device,
                "points": [{"offered_gbps": g, "read_fraction": rf}
                           for g, rf in ((3.0, 1.0), (9.0, 0.7))],
                "n_requests": 20_000,
                "seed": seed,
            }
            for device in ("cxl-a", "cxl-b", "cxl-c", "cxl-d")
            for seed in (21, 22)
        ]

        async def scenario(app):
            responses = await asyncio.gather(*(
                fetch("127.0.0.1", app.port, "POST", "/v1/characterize",
                      body_of(query))
                for query in queries
            ))
            return responses, app.coalescer.leads

        responses, leads = with_app(
            ServeConfig(port=0, workers=4), scenario
        )
        assert [r.status for r in responses] == [200] * len(queries)
        assert leads == len(queries)
        for query, response in zip(queries, responses):
            assert response.body == run_oneshot(json.dumps(query))

    def test_sequential_duplicate_served_from_cache(self):
        async def scenario(app):
            payload = body_of(FAST_QUERY)
            first = await fetch("127.0.0.1", app.port, "POST",
                                "/v1/characterize", payload)
            second = await fetch("127.0.0.1", app.port, "POST",
                                 "/v1/characterize", payload)
            return first, second, app.cache.memory_hits

        first, second, memory_hits = with_app(
            ServeConfig(port=0, workers=1), scenario
        )
        assert first.body == second.body
        assert memory_hits >= 1  # second job hit the shared cache


class TestStreaming:
    def test_stream_ends_with_the_identical_result(self):
        async def scenario(app):
            async with ServeClient("127.0.0.1", app.port) as client:
                lines = [
                    line async for line in client.stream_lines(
                        "POST", "/v1/characterize?stream=1",
                        body_of(FAST_QUERY),
                    )
                ]
            plain = await fetch("127.0.0.1", app.port, "POST",
                                "/v1/characterize", body_of(FAST_QUERY))
            return lines, plain

        lines, plain = with_app(ServeConfig(port=0, workers=1), scenario)
        assert lines[0]["event"] == "accepted"
        points = [l for l in lines if l.get("event") == "point"]
        assert [p["index"] for p in points] == [0]
        assert all(p["ok"] for p in points)
        result = lines[-1]
        assert "query_key" in result
        assert json.dumps(
            result, sort_keys=True, separators=(",", ":")
        ).encode() + b"\n" == plain.body


class TestDegradation:
    def test_poisoned_query_degrades_response_not_server(self):
        poisoned = dict(FAST_QUERY)
        poisoned["chaos"] = {"error_prob": 1.0,
                             "max_sabotaged_attempt": 100}

        async def scenario(app):
            bad = await fetch("127.0.0.1", app.port, "POST",
                              "/v1/characterize", body_of(poisoned))
            good = await fetch("127.0.0.1", app.port, "POST",
                               "/v1/characterize", body_of(FAST_QUERY))
            health = await fetch("127.0.0.1", app.port, "GET", "/healthz")
            return bad, good, health

        bad, good, health = with_app(
            ServeConfig(port=0, workers=1, allow_chaos=True), scenario
        )
        assert bad.status == 200  # degraded payload, healthy protocol
        doc = bad.json()
        assert doc["errors"] == 1
        assert doc["points"][0]["error"]["reason"] == "error"
        assert good.status == 200 and good.json()["errors"] == 0
        assert health.status == 200
        # And the degraded document is still deterministic.
        assert bad.body == run_oneshot(
            json.dumps(poisoned), allow_chaos=True
        )

    def test_chaos_refused_without_opt_in(self):
        poisoned = dict(FAST_QUERY)
        poisoned["chaos"] = {"error_prob": 1.0}

        async def scenario(app):
            return await fetch("127.0.0.1", app.port, "POST",
                               "/v1/characterize", body_of(poisoned))

        response = with_app(ServeConfig(port=0, workers=1), scenario)
        assert response.status == 400
        assert "allow-chaos" in response.json()["error"]["message"]


class TestHttpSurface:
    def test_routes_and_errors(self):
        async def scenario(app):
            async with ServeClient("127.0.0.1", app.port) as client:
                health = await client.request("GET", "/healthz")
                stats = await client.request("GET", "/stats")
                prom = await client.request("GET", "/metrics")
                missing = await client.request("GET", "/nope")
                wrong = await client.request("GET", "/v1/characterize")
                bad = await client.request(
                    "POST", "/v1/characterize", b"{not json"
                )
            return health, stats, prom, missing, wrong, bad

        health, stats, prom, missing, wrong, bad = with_app(
            ServeConfig(port=0, workers=1), scenario
        )
        assert health.status == 200 and health.json() == {"status": "ok"}
        assert stats.status == 200
        for section in ("jobs", "admission", "cache", "uptime_s"):
            assert section in stats.json()
        assert prom.status == 200
        assert prom.headers["content-type"].startswith("text/plain")
        assert missing.status == 404
        assert wrong.status == 405
        assert bad.status == 400

    def test_per_tenant_limit_answers_429(self):
        async def scenario(app):
            payload = body_of(SLOW_QUERY)
            headers = {"X-Repro-Tenant": "greedy"}
            async with ServeClient("127.0.0.1", app.port) as first:
                task = asyncio.ensure_future(first.request(
                    "POST", "/v1/characterize", payload, headers
                ))
                await asyncio.sleep(0.2)  # first request is in flight
                second = await fetch(
                    "127.0.0.1", app.port, "POST", "/v1/characterize",
                    payload, headers,
                )
                other = await fetch(
                    "127.0.0.1", app.port, "GET", "/healthz"
                )
                original = await task
            return original, second, other

        original, second, other = with_app(
            ServeConfig(port=0, workers=1, per_tenant=1), scenario
        )
        assert original.status == 200
        assert second.status == 429
        assert "retry-after" in second.headers
        assert other.status == 200  # the server itself is not saturated

    def test_full_queue_answers_429(self):
        queries = []
        for seed in (1, 2, 3):
            query = dict(SLOW_QUERY)
            query["seed"] = seed
            queries.append(body_of(query))

        async def scenario(app):
            clients = [ServeClient("127.0.0.1", app.port)
                       for _ in queries]
            tasks = []
            try:
                for queued, (client, payload) in enumerate(
                    zip(clients[:2], queries[:2])
                ):
                    await client.connect()
                    tasks.append(asyncio.ensure_future(client.request(
                        "POST", "/v1/characterize", payload
                    )))
                    await admitted(app, active=1, queued=queued)
                # Slot and queue are now both occupied by slow leaders.
                rejected = await fetch(
                    "127.0.0.1", app.port, "POST", "/v1/characterize",
                    queries[2],
                )
                served = await asyncio.gather(*tasks)
            finally:
                for client in clients:
                    await client.close()
            return rejected, served, app.admission.rejected

        rejected, served, count = with_app(
            ServeConfig(port=0, workers=1, max_inflight=1, max_queue=1),
            scenario,
        )
        assert rejected.status == 429
        assert count == 1
        assert [r.status for r in served] == [200, 200]


class TestDrain:
    def test_request_during_drain_gets_503_retry_after(self):
        # A request that lands after shutdown begins used to see its
        # connection reset; now it gets an honest 503 with the drain
        # budget as Retry-After.
        async def scenario(app):
            app.request_shutdown()
            response = await fetch(
                "127.0.0.1", app.port, "GET", "/healthz", b""
            )
            return response, app.requests

        response, requests = with_app(
            ServeConfig(port=0, workers=1, drain_s=2.5), scenario
        )
        assert response.status == 503
        assert response.headers.get("retry-after") == "3"
        assert response.headers.get("connection") == "close"
        assert b"draining" in response.body
        assert requests == 1  # counted and observed like any request

    def test_keep_alive_connection_survives_into_drain(self):
        # The sharper regression: a parked keep-alive client issuing its
        # next request mid-drain must hear 503, not ConnectionResetError.
        async def scenario(app):
            async with ServeClient("127.0.0.1", app.port) as client:
                first = await client.request("GET", "/healthz")
                app.request_shutdown()
                second = await client.request("GET", "/stats")
            return first, second

        first, second = with_app(ServeConfig(port=0, workers=1), scenario)
        assert first.status == 200
        assert second.status == 503
        assert "retry-after" in second.headers

    def test_stop_answers_parked_keep_alive_before_closing(self):
        # The live SIGTERM path: request_shutdown() is immediately
        # followed by stop().  A keep-alive client whose next request
        # lands in that window must still hear 503 -- stop() holds the
        # plug for the drain budget while handlers answer -- and the
        # handler's exit releases stop() early, well under the budget.
        async def go():
            app = ServeApp(ServeConfig(port=0, workers=1, drain_s=5.0))
            await app.start()
            client = ServeClient("127.0.0.1", app.port)
            await client.connect()
            first = await client.request("GET", "/healthz")
            app.request_shutdown()

            async def late():
                await asyncio.sleep(0.2)
                return await client.request("GET", "/stats")

            task = asyncio.ensure_future(late())
            loop = asyncio.get_running_loop()
            start = loop.time()
            await app.stop()
            elapsed = loop.time() - start
            second = await task
            await client.close()
            return first, second, elapsed

        first, second, elapsed = asyncio.run(go())
        assert first.status == 200
        assert second.status == 503
        assert "retry-after" in second.headers
        assert elapsed < 4.0  # released by the handler, not the budget
