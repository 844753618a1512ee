"""Unit tests for the service wire envelope and typed responses."""

import pytest

from repro.errors import CodecError
from repro.service.types import (
    ENVELOPE_LEN,
    OP_DEL,
    OP_PUB,
    OP_SET,
    Admitted,
    Overload,
    Request,
    Shed,
    ShedReason,
    decode_op,
    encode_delete,
    encode_envelope,
    encode_publish,
    encode_set,
)


def decoded_body(body: bytes):
    """``(op, key, value)`` of ``body`` through the one envelope parser."""
    client, uid, op, key, value = decode_op(encode_envelope(7, 9, body))
    assert (client, uid) == (7, 9)
    return op, key, value


class TestEnvelope:
    def test_round_trip(self):
        payload = encode_envelope(7, 123456789, encode_set(b"key", b"value"))
        assert decode_op(payload) == (7, 123456789, OP_SET, b"key", b"value")

    def test_foreign_payload_returns_none(self):
        # Non-service traffic on the same ring must be ignored, not raise.
        assert decode_op(b"CP01whatever") is None
        assert decode_op(b"") is None

    def test_truncated_envelope_raises(self):
        payload = encode_envelope(1, 1, b"x")[:ENVELOPE_LEN - 2]
        with pytest.raises(CodecError, match="service envelope truncated"):
            decode_op(payload)

    @pytest.mark.parametrize("client,uid", [(-1, 0), (2**32, 0), (0, -1),
                                            (0, 2**64)])
    def test_out_of_range_ids_raise(self, client, uid):
        with pytest.raises(CodecError):
            encode_envelope(client, uid, b"")

    def test_limits_are_encodable(self):
        payload = encode_envelope(2**32 - 1, 2**64 - 1, encode_delete(b""))
        assert decode_op(payload) == (2**32 - 1, 2**64 - 1, OP_DEL, b"", b"")


class TestBody:
    def test_set_round_trip(self):
        assert decoded_body(encode_set(b"k", b"v")) == (OP_SET, b"k", b"v")

    def test_delete_round_trip(self):
        assert decoded_body(encode_delete(b"key")) == (OP_DEL, b"key", b"")

    def test_publish_round_trip(self):
        assert decoded_body(encode_publish(b"topic", b"data")) == (
            OP_PUB, b"topic", b"data")

    def test_empty_key_and_value(self):
        assert decoded_body(encode_set(b"", b"")) == (OP_SET, b"", b"")

    @pytest.mark.parametrize("encode", [encode_set, encode_publish])
    def test_longest_key_round_trips(self, encode):
        key = b"x" * 0xFFFF
        assert decoded_body(encode(key, b"v"))[1:] == (key, b"v")

    def test_key_too_long_raises(self):
        with pytest.raises(CodecError, match="key too long"):
            encode_set(b"x" * 0x10000, b"v")
        with pytest.raises(CodecError, match="key too long"):
            encode_delete(b"x" * 0x10000)

    def test_unknown_op_raises(self):
        with pytest.raises(CodecError, match="unknown service op b'Z'"):
            decoded_body(b"Z\x00\x01k")

    @pytest.mark.parametrize("body", [b"", b"S", b"S\x00"])
    def test_truncated_header_raises(self, body):
        with pytest.raises(CodecError, match="service op truncated"):
            decoded_body(body)

    def test_truncated_key_raises(self):
        with pytest.raises(CodecError, match="service op truncated"):
            decoded_body(b"S\x00\x09shortkey")


class TestResponses:
    def test_overload_is_a_shed(self):
        response = Overload(1, 2, reason=ShedReason.BACKPRESSURE,
                            retry_after=0.01)
        assert isinstance(response, Shed)
        assert response.reason is ShedReason.BACKPRESSURE

    def test_plain_shed_is_not_overload(self):
        response = Shed(1, 2, reason=ShedReason.DEADLINE_EXPIRED)
        assert not isinstance(response, Overload)

    def test_admitted_is_not_a_shed(self):
        assert not isinstance(Admitted(1, 2), Shed)

    def test_shed_reasons_have_stable_wire_values(self):
        # The decision log and metric labels embed these strings.
        assert ShedReason.RATE_LIMITED.value == "rate-limited"
        assert ShedReason.QUEUE_FULL.value == "queue-full"
        assert ShedReason.DEADLINE_EXPIRED.value == "deadline-expired"
        assert ShedReason.BACKPRESSURE.value == "backpressure"
        assert ShedReason.UNAVAILABLE.value == "unavailable"

    def test_request_arrival_not_part_of_identity(self):
        a = Request(client=1, uid=1, key=b"k", body=b"b", arrival=0.5)
        b = Request(client=1, uid=1, key=b"k", body=b"b", arrival=0.9)
        assert a == b
