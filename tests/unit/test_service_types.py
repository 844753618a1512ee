"""Unit tests for the service wire envelope and typed responses."""

import copy
import pickle

import pytest

from repro.app.sharded_kv import decode_op as decode_kv_op
from repro.errors import CodecError
from repro.service.types import (
    ENVELOPE_LEN,
    OP_SET,
    Admitted,
    Overload,
    Request,
    Shed,
    ShedReason,
    decode_op,
    encode_envelope,
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
        payload = encode_envelope(2**32 - 1, 2**64 - 1, encode_set(b"", b""))
        assert decode_op(payload) == (2**32 - 1, 2**64 - 1, OP_SET, b"", b"")


class TestBody:
    def test_set_round_trip(self):
        assert decoded_body(encode_set(b"k", b"v")) == (OP_SET, b"k", b"v")

    def test_empty_key_and_value(self):
        assert decoded_body(encode_set(b"", b"")) == (OP_SET, b"", b"")

    @pytest.mark.parametrize("encode", [encode_set])
    def test_longest_key_round_trips(self, encode):
        key = b"x" * 0xFFFF
        assert decoded_body(encode(key, b"v"))[1:] == (key, b"v")

    def test_key_too_long_raises(self):
        with pytest.raises(CodecError, match="key too long"):
            encode_set(b"x" * 0x10000, b"v")

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


@pytest.mark.parametrize("op", [b"D", b"P"], ids=["D", "P"])
def test_retired_ops_are_refused(op):
    # Delete and publish are gone; an envelope from the ring that still
    # carries their op byte is refused, not applied.
    with pytest.raises(CodecError, match=f"unknown service op {op!r}"):
        decoded_body(op + b"\x00\x01k")


def test_sharded_kv_refuses_the_retired_delete():
    with pytest.raises(CodecError, match="unknown kv op b'D'"):
        decode_kv_op(b"D\x00\x01k")


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


RECORDS = [
    Request(client=1, uid=2, key=b"k", body=b"b", deadline=0.5, weight=2,
            arrival=0.25),
    Admitted(1, 2, queued_for=0.003),
    Shed(1, 2, reason=ShedReason.DEADLINE_EXPIRED),
    Overload(1, 2, reason=ShedReason.QUEUE_FULL, retry_after=0.0005),
]


@pytest.fixture(params=RECORDS, ids=lambda record: type(record).__name__)
def record(request):
    return request.param


class TestRecords:
    """The request and decision records keep what the frozen dataclasses
    they replaced promised."""

    def test_setting_an_attribute_raises(self, record):
        with pytest.raises(AttributeError):
            record.uid = 3
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_no_per_instance_dict(self, record):
        assert not hasattr(record, "__dict__")

    def test_deepcopy_and_pickle_round_trip(self, record):
        for clone in (copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record)
            assert clone == record
            assert tuple(clone) == tuple(record)

    def test_equality_is_class_strict(self):
        shed = Shed(1, 2, reason=ShedReason.QUEUE_FULL, retry_after=0.1)
        overload = Overload(1, 2, reason=ShedReason.QUEUE_FULL,
                            retry_after=0.1)
        assert shed != overload and overload != shed
        assert not shed == overload
        assert shed == Shed(1, 2, ShedReason.QUEUE_FULL, 0.1)
        # Nor does a record equal the plain tuple of its fields.
        assert Admitted(1, 2) != (1, 2, 0.0)
        assert (1, 2, 0.0) != Admitted(1, 2)

    def test_equal_requests_hash_equally_whatever_their_arrival(self):
        a = Request(client=1, uid=1, key=b"k", body=b"b", arrival=0.5)
        b = Request(client=1, uid=1, key=b"k", body=b"b", arrival=0.9)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != a._replace(weight=2)

    def test_defaults_and_keyword_construction(self):
        request = Request(client=3, uid=4, key=b"k", body=b"b")
        assert (request.deadline, request.weight, request.arrival) == (
            None, 1, 0.0)
        assert request == Request(3, 4, b"k", b"b", None, 1, 0.0)
        assert Admitted(client=1, uid=2).queued_for == 0.0
        assert Shed(client=1, uid=2,
                    reason=ShedReason.BACKPRESSURE).retry_after == 0.0
        assert Overload(1, 2, ShedReason.RATE_LIMITED).retry_after == 0.0
        with pytest.raises(TypeError):
            Shed(1, 2)

    def test_replace_keeps_the_class(self):
        request = RECORDS[0]
        moved = request._replace(arrival=1.5)
        assert type(moved) is Request
        assert moved.arrival == 1.5 and moved == request
        overload = RECORDS[3]._replace(retry_after=0.25)
        assert type(overload) is Overload
        assert overload.retry_after == 0.25

    def test_repr_names_the_class_and_fields(self):
        assert repr(Admitted(1, 2)) == (
            "Admitted(client=1, uid=2, queued_for=0.0)")
        assert repr(RECORDS[3]).startswith(
            "Overload(client=1, uid=2, reason=<ShedReason.QUEUE_FULL")
