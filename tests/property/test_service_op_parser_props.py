"""Property: the one envelope parser is the two it replaced, run in a row.

``decode_op`` checks the magic, takes one length and reads ``client, uid,
op, key_len`` with one ``struct`` call.  The apply path used to run
``decode_envelope`` and then ``decode_body`` — two functions, five lengths,
two ``struct`` reads over the same 15 header bytes.  Both are kept here as the
reference: on arbitrary bytes, on every encoder's output and on every
truncation and mutation of it, ``decode_op`` must return what the pair
returned, raise :class:`CodecError` with the same message, or return None for
a payload that is not service traffic.

The reference's op set is ``(OP_SET,)``: the delete and publish ops were
retired, so their op bytes are now as unknown to it as to ``decode_op``.
"""

from __future__ import annotations

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.service.types import (
    ENVELOPE_LEN,
    ENVELOPE_MAGIC,
    OP_SET,
    decode_op,
    encode_envelope,
    encode_set,
)

_ENVELOPE = struct.Struct(">IQ")
_KEY_LEN = struct.Struct(">H")


def reference_decode_envelope(payload: bytes):
    if payload[:len(ENVELOPE_MAGIC)] != ENVELOPE_MAGIC:
        return None
    if len(payload) < ENVELOPE_LEN:
        raise CodecError("service envelope truncated")
    client, uid = _ENVELOPE.unpack_from(payload, len(ENVELOPE_MAGIC))
    return client, uid, payload[ENVELOPE_LEN:]


def reference_decode_body(body: bytes):
    if len(body) < 1 + _KEY_LEN.size:
        raise CodecError("service op truncated")
    op = body[:1]
    if op not in (OP_SET,):
        raise CodecError(f"unknown service op {op!r}")
    (key_len,) = _KEY_LEN.unpack_from(body, 1)
    key_end = 1 + _KEY_LEN.size + key_len
    if len(body) < key_end:
        raise CodecError("service op truncated")
    return op, body[1 + _KEY_LEN.size:key_end], body[key_end:]


def reference(payload: bytes):
    parsed = reference_decode_envelope(payload)
    if parsed is None:
        return None
    client, uid, body = parsed
    return (client, uid) + reference_decode_body(body)


def outcome(parse, payload: bytes):
    try:
        return "ok", parse(payload)
    except CodecError as error:
        return "error", str(error)


keys = st.binary(max_size=40)
values = st.binary(max_size=40)
envelopes = st.builds(
    encode_envelope,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.builds(encode_set, keys, values))


@settings(max_examples=400, deadline=None)
@given(payload=st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=48).map(lambda tail: ENVELOPE_MAGIC + tail)))
@example(payload=b"")
@example(payload=ENVELOPE_MAGIC)
@example(payload=ENVELOPE_MAGIC + b"\x00" * 11)
@example(payload=ENVELOPE_MAGIC + b"\x00" * 12)
@example(payload=ENVELOPE_MAGIC + b"\x00" * 12 + b"S\x00")
@example(payload=ENVELOPE_MAGIC + b"\x00" * 12 + b"Z\x00\x00")
@example(payload=ENVELOPE_MAGIC + b"\x00" * 12 + b"S\x00\x01")
def test_arbitrary_bytes_parse_as_the_two_parsers_did(payload):
    assert outcome(decode_op, payload) == outcome(reference, payload)


@settings(max_examples=300, deadline=None)
@given(payload=envelopes)
def test_every_encoded_operation_round_trips_as_before(payload):
    kind, parsed = outcome(decode_op, payload)
    assert kind == "ok" and parsed is not None
    assert parsed == reference(payload)


@settings(max_examples=300, deadline=None)
@given(payload=envelopes, data=st.data())
def test_truncations_and_mutations_fail_the_same_way(payload, data):
    cut = data.draw(st.integers(min_value=0, max_value=len(payload)))
    assert outcome(decode_op, payload[:cut]) == outcome(reference,
                                                        payload[:cut])
    index = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    mutated = bytearray(payload)
    mutated[index] = data.draw(st.integers(min_value=0, max_value=255))
    assert outcome(decode_op, bytes(mutated)) == outcome(reference,
                                                         bytes(mutated))
