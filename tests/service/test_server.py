"""The asyncio service: in-process API and JSON-lines TCP transport."""

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.service import (CoalescePolicy, PufAuthService, VerifyRequest,
                           parse_request_line)

POLICY = CoalescePolicy(max_lanes=4, max_wait_s=0.002)

#: Malformed lines whose decoding raises ValueError, TypeError,
#: OverflowError or UnicodeDecodeError inside the parser; each must still
#: surface as ConfigurationError so the transport answers it.
UNANSWERED_LINES = [
    b'{"id": "e1", "module": "B-00000", "epoch": "x"}',
    b'{"id": "e2", "module": "B-00000", "epoch": null}',
    b'{"id": "e3", "module": "B-00000", "epoch": 1e999}',
    b'{"id": "e4", "group": "B", "serial": 1e999}',
    '{"id": "e5", "module": "B-\u00b2"}'.encode(),
    b'{"id": "e6", "module": "B-00000"}\xff',
    b"\xfe\xff",
]


class TestParseRequestLine:
    def test_module_form(self):
        request = parse_request_line(
            '{"id": "q1", "module": "B-00002", "epoch": 3, '
            '"claim": "B-00002"}')
        assert request == VerifyRequest("q1", "B", 2, epoch=3,
                                        claimed_id="B-00002")

    def test_group_serial_form(self):
        request = parse_request_line('{"group": "C", "serial": 5}')
        assert request.presented_id == "C-00005"
        assert request.epoch == 1
        assert request.claimed_id is None

    @pytest.mark.parametrize("line", [
        "not json", "[1, 2]", "{}", '{"module": "nope"}',
        '{"group": "B"}', *UNANSWERED_LINES])
    def test_malformed_rejected(self, line):
        with pytest.raises(ConfigurationError):
            parse_request_line(line)

    def test_utf8_bytes_accepted(self):
        request = parse_request_line(
            '{"id": "\u00e9", "group": "B", "serial": 1}'.encode())
        assert request.request_id == "\u00e9"
        assert request.presented_id == "B-00001"


class TestInProcessApi:
    def test_verify_round_trip(self, enrolled_db):
        async def run():
            service = PufAuthService(enrolled_db, policy=POLICY)
            await service.start()
            try:
                return await asyncio.gather(
                    service.verify(VerifyRequest("a", "B", 0, epoch=1,
                                                 claimed_id="B-00000")),
                    service.verify(VerifyRequest("b", "A", 500, epoch=1)))
            finally:
                await service.stop()

        genuine, impostor = asyncio.run(run())
        assert genuine.accepted and genuine.claim_ok
        assert genuine.device_id == "B-00000"
        assert not impostor.accepted

    def test_incapable_group_refused_before_batching(self, enrolled_db):
        async def run():
            service = PufAuthService(enrolled_db, policy=POLICY)
            await service.start()
            try:
                await service.verify(VerifyRequest("a", "J", 0))
            finally:
                await service.stop()

        with pytest.raises(ConfigurationError):
            asyncio.run(run())

    def test_unknown_group_refused(self, enrolled_db):
        service = PufAuthService(enrolled_db, policy=POLICY)
        with pytest.raises(ConfigurationError):
            service.validate(VerifyRequest("a", "Z", 0))


class TestTcpTransport:
    def test_pipelined_requests_and_errors(self, enrolled_db):
        async def run():
            service = PufAuthService(enrolled_db, policy=POLICY)
            await service.start()
            host, port = await service.serve_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            lines = [
                json.dumps({"id": "g0", "module": "B-00000", "epoch": 1,
                            "claim": "B-00000"}),
                json.dumps({"id": "g1", "module": "C-00001", "epoch": 2}),
                json.dumps({"id": "bad-group", "group": "J", "serial": 0}),
                "not json",
            ]
            writer.write(("\n".join(lines) + "\n").encode())
            await writer.drain()
            writer.write_eof()
            replies = []
            for _ in range(len(lines)):
                raw = await asyncio.wait_for(reader.readline(), timeout=30)
                replies.append(json.loads(raw.decode()))
            writer.close()
            await writer.wait_closed()
            await service.stop()
            return replies

        replies = asyncio.run(run())
        by_id = {reply.get("id"): reply for reply in replies
                 if "id" in reply}
        assert by_id["g0"]["accepted"] is True
        assert by_id["g0"]["claim_ok"] is True
        assert by_id["g1"]["accepted"] is True
        assert by_id["g1"]["device_id"] == "C-00001"
        errors = [reply for reply in replies if "error" in reply]
        assert len(errors) == 2

    def test_every_malformed_line_gets_an_error_reply(self, enrolled_db):
        async def run():
            service = PufAuthService(enrolled_db, policy=POLICY)
            await service.start()
            host, port = await service.serve_tcp()
            reader, writer = await asyncio.open_connection(host, port)

            async def exchange(line: bytes) -> dict:
                writer.write(line + b"\n")
                await writer.drain()
                raw = await asyncio.wait_for(reader.readline(), timeout=30)
                return json.loads(raw.decode())

            try:
                errors = [await exchange(line) for line in UNANSWERED_LINES]
                valid = await exchange(json.dumps(
                    {"id": "ok", "module": "B-00000"}).encode())
            finally:
                writer.close()
                await writer.wait_closed()
                await service.stop()
            return errors, valid

        errors, valid = asyncio.run(run())
        assert all(set(reply) == {"error"} for reply in errors), errors
        assert valid["id"] == "ok"
        assert valid["accepted"] is True
        assert valid["device_id"] == "B-00000"

    def test_engine_fault_replies_error_then_recovers(self, enrolled_db,
                                                      faulty_engine):
        async def run():
            service = PufAuthService(enrolled_db, policy=POLICY)
            service.batcher.engine = faulty_engine
            await service.start()
            host, port = await service.serve_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            replies = []
            try:
                for request_id in ("first", "second"):
                    writer.write((json.dumps(
                        {"id": request_id, "module": "B-00000"}) + "\n")
                        .encode())
                    await writer.drain()
                    replies.append(json.loads(await asyncio.wait_for(
                        reader.readline(), timeout=30)))
            finally:
                writer.close()
                await writer.wait_closed()
                await service.stop()
            return replies

        failed, served = asyncio.run(run())
        assert failed["id"] == "first"
        assert "injected engine fault" in failed["error"]
        assert served["id"] == "second"
        assert served["accepted"] is True

    def test_second_transport_rejected(self, enrolled_db):
        async def run():
            service = PufAuthService(enrolled_db, policy=POLICY)
            await service.start()
            try:
                await service.serve_tcp()
                with pytest.raises(ConfigurationError):
                    await service.serve_tcp()
            finally:
                await service.stop()

        asyncio.run(run())

    def test_stop_closes_transport(self, enrolled_db):
        async def run():
            service = PufAuthService(enrolled_db, policy=POLICY)
            await service.start()
            host, port = await service.serve_tcp()
            await service.stop()
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)

        asyncio.run(run())
