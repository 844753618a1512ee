"""The receive buffer: sequence-ordered packet store with gap tracking.

One :class:`ReceiveBuffer` exists per ring incarnation.  It triples as

* the total-order delivery buffer (deliver contiguous sequence numbers),
* the duplicate filter the RRP layer relies on (paper §5, requirement A1),
* the retransmission store (a token-holder answers rtr requests from here).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..types import SeqNum
from ..wire.packets import DataPacket


class ReceiveBuffer:
    """Packets of one ring, indexed by global sequence number.

    ``my_aru`` ("all received up to") is the highest sequence such that every
    packet ``1..my_aru`` is present; ``high_seq`` is the highest sequence
    seen at all.  A gap is any missing sequence in between.

    Always ``gc_floor <= my_aru <= high_seq``, and every sequence in
    ``(gc_floor, my_aru]`` is still stored: ``seq <= my_aru`` alone says
    "received", which :meth:`has`, :meth:`insert_run` and the engine's O(1)
    refusal of an ascending train that ends at or below ``my_aru`` rely on.
    """

    def __init__(self) -> None:
        self._packets: Dict[SeqNum, DataPacket] = {}
        self._my_aru: SeqNum = 0
        self._high_seq: SeqNum = 0
        #: Lowest sequence still retained (everything below was collected).
        self._gc_floor: SeqNum = 0

    # ----- inspection -----

    @property
    def my_aru(self) -> SeqNum:
        return self._my_aru

    @property
    def high_seq(self) -> SeqNum:
        return self._high_seq

    @property
    def gc_floor(self) -> SeqNum:
        return self._gc_floor

    def digest_state(self) -> Tuple:
        """Canonical state tuple for explorer digests (see docs/MODELCHECK.md).

        Packets are rendered via their wire encoding so the digest depends
        only on protocol-visible content, not object identity.
        """
        from ..wire.codec import encode_packet
        return ("rbuf", self._my_aru, self._high_seq, self._gc_floor,
                tuple((seq, encode_packet(self._packets[seq]))
                      for seq in sorted(self._packets)))

    def has(self, seq: SeqNum) -> bool:
        """Whether ``seq`` was ever received (even if since collected)."""
        return seq <= self._my_aru or seq in self._packets

    def get(self, seq: SeqNum) -> Optional[DataPacket]:
        return self._packets.get(seq)

    def missing_up_to(self, upto: SeqNum) -> Iterator[SeqNum]:
        """Sequence numbers in ``(my_aru, upto]`` not present (the gaps)."""
        for seq in range(self._my_aru + 1, upto + 1):
            if seq not in self._packets:
                yield seq

    def has_gaps_up_to(self, upto: SeqNum) -> bool:
        """True when some packet ``<= upto`` is missing.

        This is the ``anyMessagesMissing()`` predicate of the passive
        replication algorithm (paper Figure 4).
        """
        return self._my_aru < upto

    # ----- mutation -----

    def insert(self, packet: DataPacket) -> bool:
        """Store a packet.  Returns False if it was a duplicate.

        This return value implements the SRP sequence-number duplicate
        filter, which also suppresses copies arriving on redundant networks
        (paper §5, requirement A1).
        """
        seq = packet.seq
        if seq <= self._gc_floor or seq in self._packets:
            return False
        self._packets[seq] = packet
        if seq > self._high_seq:
            self._high_seq = seq
        if seq == self._my_aru + 1:
            aru = seq
            while aru + 1 in self._packets:
                aru += 1
            self._my_aru = aru
        return True

    def insert_run(self, run: Sequence[DataPacket]) -> Tuple[int, SeqNum]:
        """:meth:`insert` for an ascending run (a frame train) in one call:
        returns how many packets were new and the highest new sequence
        number.  A run ending at or below ``my_aru`` is refused in O(1)."""
        packets = self._packets
        aru = self._my_aru
        inserted = top = 0
        if run[-1].seq > aru:
            for packet in run:
                seq = packet.seq
                if seq > aru and seq not in packets:
                    packets[seq] = packet
                    inserted += 1
                    top = seq
        if inserted:
            if top > self._high_seq:
                self._high_seq = top
            while aru + 1 in packets:
                aru += 1
            self._my_aru = aru
        return inserted, top

    def gc_below(self, seq: SeqNum) -> int:
        """Drop packets with sequence ``<= seq`` (they are stable everywhere).

        Returns the number of packets collected.  Only contiguous, delivered
        prefixes should be collected; the engine guarantees ``seq <= my_aru``.
        """
        seq = min(seq, self._my_aru)
        if seq <= self._gc_floor:
            return 0
        for s in range(self._gc_floor + 1, seq + 1):
            del self._packets[s]  # all of (gc_floor, my_aru] is stored
        collected = seq - self._gc_floor
        self._gc_floor = seq
        return collected
