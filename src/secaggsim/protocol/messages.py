"""Typed protocol messages and their bit-exact wire encoding.

Wire layout: 1-byte kind, 4-byte sender, 4-byte round, 4-byte payload
length, then the payload.  Field elements are 8-byte big-endian words;
group residues are fixed-width big-endian.  The byte meters read each
payload's `nbytes`, its encoded length from its shape, so they are part of
the contract; only transcript readers call `to_bytes`.  A message is frozen:
one object serves every recipient of an outbox entry (recipients, message).

Every row of field elements, a masked model update, a share row or a
summed share, travels as a `VectorPayload`.  A sender's shares of one
secret travel as one entry: a `ShareBundlePayload` holds the whole
(n x chunks) share matrix, and client j reads row j.  On the wire each
recipient gets only its own row, so a bundle is metered at the size of one
row's payload per recipient, and a recorded transcript holds
`ProtocolMessage.at(j)`, the message narrowed to that row's VectorPayload.
Every payload that carries field elements compares and hashes by
identity, so a round can key a memo (an opening, a masked-vector sum) on
the very objects its survivors hold.  That key is sound only while the
rows it covers never change, so every row a payload holds is made
read-only when the payload is built.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property

import numpy as np

from ..field import elems_to_bytes

# Control messages are issued by the bus, not by a client.
BUS_SENDER = 0xFFFFFFFF

HEADER_BYTES = 13


class MsgKind(IntEnum):
    PUB_KEY = 1
    KEY_SHARE = 2
    PERSONAL_SEED_SHARE = 3
    INPUT_SHARE_VECTOR = 4
    MASKED_VECTOR = 5
    AGGREGATED_SHARE_VECTOR = 6
    SECRET_SUM_SHARE = 7
    UNMASK_SHARE = 8
    CONTRIBUTOR_SET = 9


@dataclass(frozen=True)
class PubKeyPayload:
    residue: int
    width: int

    @property
    def nbytes(self) -> int:
        return self.width

    def to_bytes(self) -> bytes:
        return self.residue.to_bytes(self.width, "big")


@dataclass(frozen=True, eq=False)
class VectorPayload:
    """A row of field elements: 4-byte big-endian words (element count,
    *extra), then 8 bytes per element.  extra is (vector length, t, k) for
    an nv or lwe share row or summed share, and empty for a masked vector
    or a pw share row; a share's evaluation point is implied by the
    recipient."""

    vec: np.ndarray
    extra: tuple[int, ...] = ()

    def __post_init__(self):
        self.vec.flags.writeable = False

    @property
    def header(self) -> tuple[int, ...]:
        return (len(self.vec), *self.extra)

    @property
    def nbytes(self) -> int:
        return 4 + 4 * len(self.extra) + 8 * len(self.vec)

    def to_bytes(self) -> bytes:
        header = self.header
        return (struct.pack(f">{len(header)}I", *header)
                + elems_to_bytes(self.vec))


@dataclass(frozen=True, eq=False)
class ShareBundlePayload:
    """One sender's share rows of a secret, row j for client j, which
    receives `at(j)`: the VectorPayload of its row with the bundle's extra
    header words.  Every row has the same length, so `header` and `nbytes`
    are those of each recipient's payload."""

    rows: np.ndarray
    extra: tuple[int, ...] = ()

    def __post_init__(self):
        self.rows.flags.writeable = False

    @cached_property  # every recipient of the bundle checks it
    def header(self) -> tuple[int, ...]:
        return (self.rows.shape[1], *self.extra)

    @property
    def nbytes(self) -> int:
        return 4 * len(self.header) + 8 * self.rows.shape[1]

    def at(self, rcpt: int) -> VectorPayload:
        return VectorPayload(self.rows[rcpt], self.extra)


SECRET_DH_KEY = 0
SECRET_PERSONAL_SEED = 1


@dataclass(frozen=True, eq=False)
class UnmaskPayload:
    """The opener's stored shares of every secret being opened: names
    holds each entry's (secret type, target id, chunk count), where the
    type is SECRET_DH_KEY or SECRET_PERSONAL_SEED, and row holds every
    entry's chunks end to end, one uint64 share per chunk.  On the wire:
    4-byte entry count, then per entry 4-byte target id, 1-byte secret
    type, 4-byte chunk count and 8 bytes per chunk."""

    names: tuple[tuple[int, int, int], ...]
    row: np.ndarray

    def __post_init__(self):
        if sum(count for *_, count in self.names) != len(self.row):
            raise ValueError(f"{len(self.row)} chunks for entries "
                             f"{self.names}")
        self.row.flags.writeable = False

    @property
    def nbytes(self) -> int:
        return 4 + 9 * len(self.names) + 8 * len(self.row)

    def to_bytes(self) -> bytes:
        parts = [struct.pack(">I", len(self.names))]
        at = 0
        for secret_type, target, count in self.names:
            parts.append(struct.pack(">IBI", target, secret_type, count))
            parts.append(elems_to_bytes(self.row[at:at + count]))
            at += count
        return b"".join(parts)


@dataclass(frozen=True)
class ContributorSetPayload:
    ids: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return 4 + 4 * len(self.ids)

    def to_bytes(self) -> bytes:
        return struct.pack(">I", len(self.ids)) + b"".join(
            struct.pack(">I", i) for i in self.ids)


@dataclass(frozen=True)
class ProtocolMessage:
    kind: MsgKind
    sender: int
    round: int
    payload: object

    def to_bytes(self) -> bytes:
        body = self.payload.to_bytes()
        return struct.pack(">BIII", int(self.kind), self.sender, self.round,
                           len(body)) + body

    @property
    def wire_size(self) -> int:
        return HEADER_BYTES + self.payload.nbytes

    def at(self, rcpt: int) -> ProtocolMessage:
        """The message as rcpt receives it on the wire: a share bundle
        narrowed to rcpt's row, any other message as it is."""
        if isinstance(self.payload, ShareBundlePayload):
            return replace(self, payload=self.payload.at(rcpt))
        return self


Entry = tuple[tuple[int, ...], ProtocolMessage]
