"""The ServiceStats view, gateway respawn accounting and the cluster
JSON/HTTP protocol."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api.config import SolveConfig
from repro.cluster import ClusterGateway, protocol
from repro.exceptions import (
    ClusterError,
    ModelError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.instances import pigou
from repro.serve.service import ServiceStats, SolveService

QUICK = SolveConfig(compute_nash=False)


class TestServiceStatsView:
    def test_view_of_the_registry_snapshot_equals_stats(self):
        with SolveService(max_wait_ms=1.0) as service:
            service.solve(pigou(), "optop", config=QUICK, timeout=30)
            service.solve(pigou(), "optop", config=QUICK, timeout=30)
            stats = service.stats()
            view = ServiceStats.from_snapshot(service.metrics.snapshot())
        assert view == stats
        assert stats.requests == 2 and stats.tier1_hits == 1
        assert view.consistent

    def test_to_dict_is_json_and_carries_derived_fields(self):
        stats = ServiceStats(requests=7, tier1_hits=7, queue_peak=3)
        data = json.loads(json.dumps(stats.to_dict(), sort_keys=True))
        assert data["hits"] == 7 and data["consistent"] is True
        assert "extra" not in data

    def test_inconsistency_stays_visible(self):
        assert not ServiceStats(requests=5, tier1_hits=1).consistent


class TestGatewayRespawnAccounting:
    def test_respawn_before_first_refresh_is_counted_for_the_node(self):
        """A worker that dies before its first snapshot fetch still
        counts as respawned, on the node as well as on the gateway."""
        gateway = ClusterGateway([("127.0.0.1", 1)])
        node = "127.0.0.1:1"
        gateway.note_worker_respawn(node)
        stats = asyncio.run(gateway.stats(refresh=False))
        assert stats["gateway"]["worker_respawns"] == 1
        assert stats["workers"][node]["respawns"] == 1
        snapshot = asyncio.run(gateway.metrics_snapshot(refresh=False))
        samples = snapshot["repro_worker_respawns_total"]["samples"]
        assert samples == [{"labels": {"node": node}, "value": 1}]


class TestGatewayNodeState:
    def test_stats_and_metrics_show_one_breaker_state(self):
        """``/stats`` and ``/metrics`` read the same liveness and breaker
        state through an open / respawn-close cycle."""
        gateway = ClusterGateway([("127.0.0.1", 1)])
        node = "127.0.0.1:1"

        def surfaces():
            entry = asyncio.run(gateway.stats(refresh=False))["workers"][node]
            snapshot = asyncio.run(gateway.metrics_snapshot(refresh=False))
            gauges = tuple(
                snapshot[f"repro_worker_{key}"]["samples"][0]["value"]
                for key in ("alive", "breaker_open"))
            return (entry["alive"], entry["breaker_open"]), gauges

        assert surfaces() == ((True, False), (1, 0))
        gateway._open_breaker(gateway.workers[node], "connection refused")
        assert surfaces() == ((False, True), (0, 1))
        gateway.note_worker_respawn(node)
        assert surfaces() == ((True, False), (1, 0))


class TestOverloadedError:
    def test_carries_queue_depth(self):
        exc = ServiceOverloadedError("full", queue_depth=17)
        assert exc.queue_depth == 17

    def test_queue_depth_defaults_to_none(self):
        assert ServiceOverloadedError("full").queue_depth is None


class TestSolveRequestWire:
    def test_encode_decode_round_trip(self):
        instance = pigou()
        config = SolveConfig(compute_nash=False)
        body, digest = protocol.encode_solve_request(instance, "optop",
                                                     config)
        decoded_instance, strategy, decoded_config, decoded_digest = \
            protocol.decode_solve_request(body)
        assert strategy == "optop"
        assert decoded_digest == digest
        assert decoded_config.compute_nash is False
        assert decoded_instance.num_links == instance.num_links

    def test_digest_is_stable_across_encodes(self):
        _, first = protocol.encode_solve_request(pigou(), "optop", None)
        _, second = protocol.encode_solve_request(pigou(), "optop", None)
        assert first == second

    def test_malformed_body_raises_model_error(self):
        # ModelError -> HTTP 400: the caller sent garbage, not the cluster.
        with pytest.raises(ModelError):
            protocol.decode_solve_request(b"not json")


class TestErrorWire:
    def test_overload_maps_to_503_with_queue_depth(self):
        status, body = protocol.error_response(
            ServiceOverloadedError("queue full", queue_depth=42))
        assert status == 503
        with pytest.raises(ServiceOverloadedError) as excinfo:
            protocol.raise_for_response(status, body)
        assert excinfo.value.queue_depth == 42

    def test_closed_maps_to_503_and_reconstructs(self):
        status, body = protocol.error_response(ServiceClosedError("bye"))
        assert status == 503
        with pytest.raises(ServiceClosedError):
            protocol.raise_for_response(status, body)

    def test_model_error_maps_to_400(self):
        status, body = protocol.error_response(ModelError("bad instance"))
        assert status == 400
        with pytest.raises(ClusterError):
            protocol.raise_for_response(status, body)

    def test_unknown_error_maps_to_500(self):
        status, _ = protocol.error_response(RuntimeError("boom"))
        assert status == 500

    def test_success_does_not_raise(self):
        protocol.raise_for_response(200, b"{}")


class TestHttpFraming:
    def _round_trip(self, writer_coro, reader_coro):
        async def run():
            read_stream = asyncio.StreamReader()

            class _Collector:
                def __init__(self):
                    self.chunks = []

                def write(self, data):
                    self.chunks.append(bytes(data))
                    read_stream.feed_data(data)

                async def drain(self):
                    return None

            collector = _Collector()
            await writer_coro(collector)
            read_stream.feed_eof()
            return await reader_coro(read_stream)

        return asyncio.run(run())

    def test_request_round_trip(self):
        async def write(writer):
            await protocol.write_request(
                writer, "POST", "/solve", b'{"x": 1}',
                headers={protocol.DIGEST_HEADER: "abc123"})

        result = self._round_trip(write, protocol.read_request)
        method, path, headers, body = result
        assert (method, path) == ("POST", "/solve")
        assert headers[protocol.DIGEST_HEADER] == "abc123"
        assert body == b'{"x": 1}'

    def test_response_round_trip(self):
        async def write(writer):
            await protocol.write_response(writer, 503, b'{"q": 9}')

        status, headers, body = self._round_trip(write,
                                                 protocol.read_response)
        assert status == 503
        assert body == b'{"q": 9}'

    def test_clean_eof_reads_as_none(self):
        async def write(writer):
            return None

        assert self._round_trip(write, protocol.read_request) is None

    def test_oversized_request_line_is_rejected(self):
        async def run():
            stream = asyncio.StreamReader()
            stream.feed_data(b"GET /" + b"a" * (64 * 1024) + b" HTTP/1.1\r\n")
            stream.feed_eof()
            await protocol.read_request(stream)

        with pytest.raises((ClusterError, asyncio.LimitOverrunError)):
            asyncio.run(run())
