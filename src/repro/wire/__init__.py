"""Wire formats for the Totem protocol family.

Five packet types travel on the networks (paper §2, §5-§7 and the Totem SRP
membership protocol):

* :class:`DataPacket` — a sequenced broadcast carrying one or more packed
  application-message chunks (or encapsulated old-ring messages during
  recovery),
* :class:`BatchPacket` — a train of consecutively sequenced data packets
  from one sender, broadcast once per token visit,
* :class:`Token` — the regular circulating token,
* :class:`JoinMessage` — membership gather-state broadcast,
* :class:`CommitToken` — membership commit-state unicast token,
* chunk framing shared by packing/fragmentation.

The discrete-event simulator carries these objects directly (sizes come from
``wire_size()``); :mod:`repro.wire.codec` serialises them where bytes are
needed: old-ring packets encapsulated during recovery, and state digests.
"""

from .packets import (
    CHUNK_HEADER_BYTES,
    BatchPacket,
    Chunk,
    ChunkKind,
    CommitToken,
    DataPacket,
    JoinMessage,
    MemberInfo,
    PacketType,
    Token,
    packet_type_of,
)
from .codec import decode_packet, encode_packet

__all__ = [
    "BatchPacket",
    "Chunk",
    "ChunkKind",
    "CHUNK_HEADER_BYTES",
    "CommitToken",
    "DataPacket",
    "JoinMessage",
    "MemberInfo",
    "PacketType",
    "Token",
    "packet_type_of",
    "encode_packet",
    "decode_packet",
]
