"""Message packing and fragmentation (paper §8).

The paper: "If several messages can fit into that space [the 1424-byte
Ethernet payload], they are placed into a single packet by the message
packing algorithm.  If a message is longer than 1424 bytes, Totem splits it
up into multiple packets."  This is what produces the throughput peaks at
700 and 1400 bytes in Figures 6-9.

:class:`Packer` drains a :class:`~repro.srp.send_queue.SendQueue` into
packets worth of chunks; :class:`Reassembler` is its inverse on the receive
side.  Fragments of one message always travel in consecutive packets from
the same sender, so the reassembler only needs (sender, msg_id) keys.

A fragmented message is delivered as the one ``bytes`` object its sender
submitted, as a whole message is: the packer marks the LAST chunk with
``(fragment list, payload)`` (``Chunk._source``), and a reassembler whose
collected fragments compare equal to that list returns the payload itself
instead of joining a copy.  The comparison costs a pointer check per fragment
when the chunks are the sender's own objects (every simulated node shares
them); chunks decoded by the codec, encapsulated recovery packets and
fragments that do not match fall back to the join.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..types import NodeId
from ..wire.packets import (
    CHUNK_HEADER_BYTES,
    FLAG_FIRST,
    FLAG_LAST,
    FLAG_WHOLE,
    Chunk,
    ChunkKind,
)
from .send_queue import SendQueue

_APP = ChunkKind.APP  # bound once, as in repro.srp.engine


class Packer:
    """Builds packet payloads (chunk lists) from the send queue.

    Packing policy: fill a packet greedily with whole messages; a message
    larger than the packet budget is fragmented across consecutive packets.
    A message that does not fit the *remaining* space of a non-empty packet
    starts the next packet instead of being split (splitting small messages
    would buy nothing and cost a reassembly).
    """

    def __init__(self, queue: SendQueue, max_payload: int,
                 enable_packing: bool = True) -> None:
        self._queue = queue
        self._max_payload = max_payload
        self._enable_packing = enable_packing
        self._next_msg_id = 1
        #: In-flight fragmentation: (msg_id, submitted payload, bytes sent,
        #: fragments sent).
        self._partial: Optional[Tuple[int, bytes, int, List[bytes]]] = None

    def backlog(self) -> int:
        """Messages still waiting (including a partially sent one)."""
        return len(self._queue) + (1 if self._partial is not None else 0)

    def next_packet_chunks(self) -> List[Chunk]:
        """Chunks for one packet, or an empty list when nothing is pending."""
        budget = self._max_payload
        chunks: List[Chunk] = []

        # Resume an in-flight fragmented message first: its fragments must be
        # consecutive.  Each is sliced out of the submitted payload by offset.
        if self._partial is not None:
            msg_id, payload, offset, fragments = self._partial
            end = offset + budget - CHUNK_HEADER_BYTES
            piece = payload[offset:end]
            fragments.append(piece)
            if end < len(payload):
                self._partial = (msg_id, payload, end, fragments)
                return [Chunk(_APP, msg_id, 0, piece)]  # packet is full
            tail = Chunk(_APP, msg_id, FLAG_LAST, piece)
            tail._source = (fragments, payload)
            chunks.append(tail)
            self._partial = None
            if not self._enable_packing:
                return chunks  # one message per packet, a tail included
            budget -= CHUNK_HEADER_BYTES + len(piece)

        # The leading whole messages that fit, ids consecutive in 1..2^32-1.
        queue = self._queue
        msg_id = self._next_msg_id
        for payload in queue.dequeue_fitting(
                budget, CHUNK_HEADER_BYTES,
                None if self._enable_packing else 1):
            chunks.append(Chunk(_APP, msg_id, FLAG_WHOLE, payload))
            msg_id = msg_id % 0xFFFFFFFF + 1
        if not chunks and len(queue):
            # The head alone exceeds a whole packet: begin fragmenting it.
            payload = queue.dequeue()
            room = self._max_payload - CHUNK_HEADER_BYTES
            piece = payload[:room]
            chunks.append(Chunk(_APP, msg_id, FLAG_FIRST, piece))
            self._partial = (msg_id, payload, room, [piece])
            msg_id = msg_id % 0xFFFFFFFF + 1
        self._next_msg_id = msg_id
        return chunks

    def next_batch(self, max_packets: int) -> List[List[Chunk]]:
        """Chunk lists for up to ``max_packets`` packets in one call.

        The token-visit coalescing path: everything pending (within the
        caller's flow-control allowance) is drained into consecutive packet
        payloads, which the SRP then broadcasts as one batch frame train.
        Returns an empty list when nothing is pending.
        """
        batch: List[List[Chunk]] = []
        while len(batch) < max_packets:
            chunks = self.next_packet_chunks()
            if not chunks:
                break
            batch.append(chunks)
        return batch

    def digest_state(self) -> Tuple:
        """Canonical state tuple for explorer digests: an in-flight message
        shows as (msg_id, bytes not yet sent, True)."""
        partial = self._partial
        if partial is not None:
            msg_id, payload, offset, _ = partial
            partial = (msg_id, payload[offset:], True)
        return ("packer", self._next_msg_id, partial)


class Reassembler:
    """Rebuilds application messages from chunks, per sending node.

    ``feed`` is called with chunks in delivery (sequence) order; it returns
    the completed payload when a LAST fragment closes a message, else None.
    """

    def __init__(self) -> None:
        self._partial: Dict[Tuple[NodeId, int], List[bytes]] = {}

    def feed(self, sender: NodeId, chunk: Chunk) -> Optional[bytes]:
        flags = chunk.flags
        if flags & FLAG_WHOLE == FLAG_WHOLE:
            return chunk.data  # unfragmented: the common, hot case
        key = (sender, chunk.msg_id)
        if flags & FLAG_FIRST:
            self._partial[key] = [chunk.data]
            return None
        fragments = self._partial.get(key)
        if fragments is None:
            # FIRST fragment was lost to a membership change; drop the tail.
            return None
        fragments.append(chunk.data)
        if flags & FLAG_LAST:
            del self._partial[key]
            source = chunk._source
            if source is not None and fragments == source[0]:
                return source[1]  # the sender's own payload object
            return b"".join(fragments)
        return None

    def digest_state(self) -> Tuple:
        """Canonical state tuple for explorer digests."""
        return ("reasm", tuple(
            (key, tuple(fragments))
            for key, fragments in sorted(self._partial.items())))
