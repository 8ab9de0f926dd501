"""Round configuration and orchestration of the three protocols.

A round driver owns the synchrony structure: it asks live clients for
their stage-opening outbox entries, pushes them through the bus (which
meters bytes and applies stage-atomic dropout), hands the round context
the stage's one delivered list, serves each client the inbox the bus
built for it, and injects the bus-issued contributor set between the
input and output halves of each protocol.

The bus is duck-typed; any object with the MessageBus surface works
(`delivered`, the last exchange's list, included), so the protocol layer
stays independent of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..errors import (
    BadPacking,
    BadThreshold,
    DivergentAggregate,
    InsufficientContributors,
    InsufficientSurvivors,
)
from ..field import DEFAULT_FIELD, FieldPrime, FixedPointConfig
from ..masking import DH_GROUP_2048, DhParams, LweParams, lwe_matrix_ops
from .clients import (AggregateResult, LweClient, NvClient, PwClient,
                      RoundContext)
from .messages import BUS_SENDER, ContributorSetPayload, MsgKind, ProtocolMessage

NV = "nv"
LWE = "lwe"
PW = "pw"

# Ordered stage labels per protocol; dropout is stage-atomic against these.
STAGES = {
    NV: ("input_shares", "aggregate_shares"),
    LWE: ("secret_shares", "masked_vector", "sum_shares"),
    PW: ("setup", "masked_vector", "unmask_shares"),
}

DEFAULT_PACK_WIDTH = 64


def default_threshold(n: int) -> int:
    return n // 2 + 1


@dataclass
class RoundConfig:
    """Everything one aggregation round needs.

    t defaults to floor(n/2)+1.  The pack width defaults to 64 but is
    clamped so that reconstruction stays possible with planned_dropouts
    clients gone: k <= n - planned_dropouts - t + 1 (floor 1).  An
    explicitly given k is honored and only validated against k >= 1 and
    n >= t+k-1.  A model of fewer than one coordinate, or a share point
    that reaches q, raises ValueError.
    """

    protocol: str
    n: int
    m: int
    t: int | None = None
    k: int | None = None
    field: FieldPrime = DEFAULT_FIELD
    fp: FixedPointConfig = dc_field(default_factory=FixedPointConfig)
    lwe: LweParams | None = None
    dh: DhParams | None = None
    personal_mask: bool = True
    planned_dropouts: int = 0

    def __post_init__(self):
        if self.protocol not in STAGES:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.n < 2:
            raise ValueError("need at least 2 clients")
        if self.m < 1:
            raise ValueError(f"need a model of at least 1 coordinate, got m={self.m}")
        if self.t is None:
            self.t = default_threshold(self.n)
        if not 0 < self.t <= self.n:
            raise BadThreshold(f"need 0 < t <= n, got t={self.t}, n={self.n}")
        if self.protocol == PW and (self.n < 3 or self.t < 2):
            raise BadThreshold("pairwise masking needs n >= 3 and t >= 2")
        if self.k is None:
            self.k = max(1, min(DEFAULT_PACK_WIDTH,
                                self.n - self.planned_dropouts - self.t + 1))
        if self.k < 1:
            raise BadPacking(f"pack width must be at least 1, got k={self.k}")
        if self.n < self.t + self.k - 1:
            raise BadPacking(
                f"pack width k={self.k} needs n >= t+k-1 (n={self.n}, t={self.t})")
        # shares sit at points k+1..k+n (pw: plain sharing, at 1..n)
        top = self.n if self.protocol == PW else self.k + self.n
        if top >= self.field.q:
            raise ValueError(
                f"share points up to {top} wrap mod q={self.field.q}")
        if self.protocol == LWE and self.lwe is None:
            self.lwe = LweParams()
        if self.protocol == PW and self.dh is None:
            self.dh = DH_GROUP_2048
        self.fp.check_capacity(self.n, self.field)

    @property
    def stages(self) -> tuple[str, ...]:
        return STAGES[self.protocol]


def contributor_set(delivery_record, stage: str) -> tuple[int, ...]:
    """The agreed round membership: clients whose stage-critical message
    reached every survivor.  Dropout is stage-atomic, so this is exactly
    the set of senders at that stage -- identical at every client."""
    return tuple(sorted(delivery_record[stage]))


def _deliver(clients, inboxes, ctx: RoundContext, delivered) -> list:
    """Serve every client with a nonempty inbox, in ascending id, once
    the round context holds the stage's one delivered list (None for the
    contributor set); returns the entries they emit."""
    ctx.stage = delivered
    out = []
    for client, inbox in zip(clients, inboxes):
        if inbox:
            out += client.on_message(inbox)
    return out


def _finalize(clients, bus) -> AggregateResult:
    live = bus.live_at_end()
    for c in clients:
        bus.record_field_ops(c.id, c.ops)
    if not live:
        raise InsufficientSurvivors("no client survived the round")
    results = [clients[i].finalize() for i in live]
    first = results[0]
    for cid, r in zip(live[1:], results[1:]):
        # every survivor must land on the bit-identical aggregate, which a
        # survivor that shares the first one's result object holds
        if r is not first and (r.contributors != first.contributors
                or not np.array_equal(r.field_sum, first.field_sum)):
            raise DivergentAggregate(
                f"survivors {live[0]} and {cid} finished with different aggregates")
    return first


def _drive(inputs, cfg: RoundConfig, bus, client_cls, openers,
           no_contributors: str, matrix_ops=None) -> AggregateResult:
    """The one stage loop behind every protocol.  Each opening stage asks
    its live clients for outbound messages (client method `openers[i]`)
    and exchanges them; the senders of the last opening stage become the
    contributor set.  Its announcement is the one event that makes clients
    emit the final stage's messages.  Every client_cls instance is built
    on the round's one RoundContext."""
    if len(inputs) != cfg.n:
        raise ValueError(f"{len(inputs)} inputs for n={cfg.n} clients")
    *opening, st_final = cfg.stages
    ctx = RoundContext(matrix_ops)
    clients = [client_cls(i, cfg, inputs[i], bus.client_rng(i), ctx, bus.round)
               for i in range(cfg.n)]
    for stage, opener in zip(opening, openers):
        outbox = []
        for c in clients:
            if bus.alive(c.id, stage):
                outbox.extend(getattr(c, opener)())
        inboxes = bus.exchange(stage, outbox)
        _deliver(clients, inboxes, ctx, bus.delivered)
    contributors = contributor_set(bus.delivery_record(), opening[-1])
    if not contributors:
        raise InsufficientContributors(no_contributors)
    announce = ProtocolMessage(MsgKind.CONTRIBUTOR_SET, BUS_SENDER, bus.round,
                               ContributorSetPayload(contributors))
    final = _deliver(clients, bus.control(st_final, announce), ctx, None)
    inboxes = bus.exchange(st_final, final)
    _deliver(clients, inboxes, ctx, bus.delivered)
    return _finalize(clients, bus)


def nv_round(inputs, cfg: RoundConfig, bus) -> AggregateResult:
    """Share-vector aggregation: packed input shares out, contributor set
    announced, aggregated shares broadcast, reconstruct and average."""
    return _drive(inputs, cfg, bus, NvClient, ("start",),
                  "every client dropped before sharing")


def lwe_round(inputs, cfg: RoundConfig, bus) -> AggregateResult:
    """LWE-masked aggregation: secret vectors are Shamir-shared, masked
    vectors broadcast, and only the summed secret is ever reconstructed."""
    return _drive(inputs, cfg, bus, LweClient, ("start", "emit_masked"),
                  "no masked vector was delivered",
                  lwe_matrix_ops(cfg.lwe, cfg.m, cfg.field))


def pw_round(inputs, cfg: RoundConfig, bus) -> AggregateResult:
    """Pairwise-masked aggregation with dropout recovery: reconstruct the
    DH key of clients that vanished after setup, the personal seed of
    everyone whose masked vector counted -- never both."""
    return _drive(inputs, cfg, bus, PwClient, ("start", "emit_masked"),
                  "no masked vector was delivered")


ROUND_FNS = {NV: nv_round, LWE: lwe_round, PW: pw_round}
