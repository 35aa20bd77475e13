"""Transmission Modules: the protocol-facing side of a channel endpoint.

A TM binds one channel endpoint (channel × rank) to a NIC and exposes the
fragment-level operations the Buffer Management layer and the Generic TM sit
on: announce exchange, typed item sends (descriptors / payload fragments),
and access to the protocol's static buffer pools — the handle the gateway
uses for the zero-copy buffer-borrowing trick of §2.3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..hw.fabric import NIC
from ..memory import Buffer, StaticBufferPool
from ..sim import Event
from .wire import ANNOUNCE_BYTES, Announce, encode_announce

if TYPE_CHECKING:  # pragma: no cover
    from .channel import RealChannel

__all__ = ["TransmissionModule"]


class TransmissionModule:
    """Fragment transport for one (channel, rank) pair."""

    def __init__(self, channel: "RealChannel", rank: int, nic: NIC) -> None:
        self.channel = channel
        self.rank = rank
        self.nic = nic
        self.protocol = nic.protocol

    # -- tags -----------------------------------------------------------------
    def announce_tag(self) -> tuple:
        # One FIFO announce stream per receiving endpoint (all senders).
        return ("ann", self.channel.id, self.rank)

    def body_tag(self, src: int, msg_id: int = 0) -> tuple:
        # In-order body stream per point-to-point connection, qualified by
        # message id so a slot posted for an abandoned attempt can never
        # steal fragments of a later (retried) message.
        return ("body", self.channel.id, src, self.rank, msg_id)

    def _peer_nic(self, rank: int) -> NIC:
        return self.channel.tm(rank).nic

    # -- pools (the gateway borrows from these, §2.3) ---------------------------
    @property
    def tx_pool(self) -> Optional[StaticBufferPool]:
        return self.nic.tx_pool

    @property
    def rx_pool(self) -> Optional[StaticBufferPool]:
        return self.nic.rx_pool

    # -- announce exchange ------------------------------------------------------
    def send_announce(self, dst: int, announce: Announce) -> Event:
        peer = self._peer_nic(dst)
        payload = Buffer.wrap(encode_announce(announce), label="announce")
        return self.nic.send(peer, peer_tm_announce_tag(self.channel, dst),
                             payload, meta={"type": "announce",
                                            "hop_src": self.rank})

    def post_announce(self, buffer: Buffer) -> Event:
        """Post a slot for the next announce arriving at this endpoint.

        The event value is ``(meta, nbytes)``; decode the buffer with
        :func:`~repro.madeleine.wire.decode_announce` afterwards.
        """
        if len(buffer) < ANNOUNCE_BYTES:
            raise ValueError("announce buffer too small")
        return self.channel.fabric.post_recv(self.nic, self.announce_tag(),
                                             buffer)

    # -- body items --------------------------------------------------------------
    def send_item(self, dst: int, payload: Optional[Buffer],
                  meta: dict[str, Any], nbytes: Optional[int] = None,
                  msg_id: int = 0) -> Event:
        peer = self._peer_nic(dst)
        tag = ("body", self.channel.id, self.rank, dst, msg_id)
        return self.nic.send(peer, tag, payload, meta=meta, nbytes=nbytes)

    def post_item(self, src: int, buffer: Optional[Buffer],
                  capacity: Optional[int] = None, msg_id: int = 0) -> Event:
        return self.channel.fabric.post_recv(self.nic,
                                             self.body_tag(src, msg_id),
                                             buffer, capacity=capacity)


def peer_tm_announce_tag(channel: "RealChannel", dst: int) -> tuple:
    return ("ann", channel.id, dst)

