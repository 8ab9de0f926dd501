"""The receive path: one delivered list and one check per stage.

An honest round's stages are delivered by the bus as one list and checked
once for the round, and the survivors that took a stage share its maps.
Every forged inbox raises the typed error, with the text, that a
message-by-message check raises for its first offender, and a message
forged into one client's store after its stage reaches no other store.
"""

import dataclasses
from types import MappingProxyType

import numpy as np
import pytest

from secaggsim.errors import (DuplicateSender, PointMismatch,
                              UnexpectedMessage)
from secaggsim.masking import DH_GROUP_TEST, LweParams, lwe_matrix_ops
from secaggsim.protocol import (BUS_SENDER, ContributorSetPayload, MsgKind,
                                ProtocolMessage, RoundConfig, ROUND_FNS,
                                ShareBundlePayload)
from secaggsim.protocol import clients as clients_module
from secaggsim.protocol import rounds
from secaggsim.simnet import DropoutSchedule, MessageBus

PROTOCOLS = ("nv", "lwe", "pw")
CLIENT_NAMES = {"nv": "NvClient", "lwe": "LweClient", "pw": "PwClient"}
# the kind each protocol shares in its first stage
SHARE_KIND = {"nv": MsgKind.INPUT_SHARE_VECTOR, "lwe": MsgKind.KEY_SHARE,
              "pw": MsgKind.KEY_SHARE}


def config(proto, n=5):
    return RoundConfig(
        protocol=proto, n=n, m=4, planned_dropouts=2,
        lwe=LweParams(n_lwe=16, sigma=1e-6, matrix_seed=b"\x03" * 32)
        if proto == "lwe" else None,
        dh=DH_GROUP_TEST if proto == "pw" else None)


def run_round(monkeypatch, proto, schedule=None, forge_outbox=None,
              forge_inboxes=None):
    """One round of proto through its round function: (result, clients).
    forge_outbox(stage, outbox) may rewrite what the bus is handed, and
    forge_inboxes(stage, inboxes) what it hands out."""
    cfg = config(proto)
    made = []
    client_cls = getattr(rounds, CLIENT_NAMES[proto])

    class Recorded(client_cls):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(rounds, CLIENT_NAMES[proto], Recorded)
    exchange = MessageBus.exchange

    def forging(self, stage, outbox):
        if forge_outbox is not None:
            outbox = forge_outbox(stage, outbox)
        inboxes = exchange(self, stage, outbox)
        if forge_inboxes is not None:
            forge_inboxes(stage, inboxes)
        return inboxes

    monkeypatch.setattr(MessageBus, "exchange", forging)
    bus = MessageBus(cfg, master_seed=7,
                     schedule=DropoutSchedule(stages=schedule or {}))
    inputs = [np.full(cfg.m, 0.25 * i) for i in range(cfg.n)]
    return ROUND_FNS[proto](inputs, cfg, bus), made


def contributor_set_msg(ids):
    return ProtocolMessage(MsgKind.CONTRIBUTOR_SET, BUS_SENDER, 0,
                           ContributorSetPayload(ids))


def replace_msg(kind, sender, rewrite):
    """forge_outbox: the first stage's message of kind from sender becomes
    the entries rewrite(recipients, message) returns."""
    def forge(stage, outbox):
        out = []
        for rcpts, msg in outbox:
            if (msg.kind, msg.sender) == (kind, sender):
                out += rewrite(rcpts, msg)
            else:
                out.append((rcpts, msg))
        return out
    return forge


def forged_header(p: ShareBundlePayload) -> ShareBundlePayload:
    """p with one share column more or fewer."""
    rows = p.rows[:, :-1] if p.rows.shape[1] > 1 else np.hstack([p.rows] * 2)
    return ShareBundlePayload(rows, p.extra)


def stage_forgeries(proto):
    """(name, forge_outbox, error, text) for every forged first stage
    whose error text does not depend on the forged payload."""
    kind = SHARE_KIND[proto]
    foreign = (MsgKind.PUB_KEY if proto != "pw"
               else MsgKind.INPUT_SHARE_VECTOR)
    return [
        ("wrong round", replace_msg(kind, 1, lambda r, m: [
            (r, dataclasses.replace(m, round=3))]),
         UnexpectedMessage, "client 0: round 3 != 0"),
        ("unaccepted kind", replace_msg(kind, 1, lambda r, m: [
            (r, m), (r, dataclasses.replace(m, kind=foreign))]),
         UnexpectedMessage, f"client 0: {foreign.name} not expected now"),
        ("duplicate sender", replace_msg(kind, 1, lambda r, m: [
            (r, m), (r, m)]),
         DuplicateSender, f"client 0: second {kind.name} from 1"),
        ("short bundle", replace_msg(kind, 1, lambda r, m: [
            (r, dataclasses.replace(m, payload=ShareBundlePayload(
                m.payload.rows[:3], m.payload.extra)))]),
         PointMismatch, "client 3: share bundle from 1 has no row 3"),
    ]


def header_of(proto, kind):
    """The header every client of config(proto) expects for kind."""
    cfg = config(proto)
    client_cls = getattr(clients_module, CLIENT_NAMES[proto])
    return client_cls(0, cfg, np.zeros(cfg.m), np.random.default_rng(0),
                      clients_module.RoundContext()).headers[kind]


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_honest_round_shares_one_checked_map_per_stage(proto, monkeypatch):
    checks = []
    check_stage = clients_module.BaseClient._check_stage

    def counted(self, messages):
        checks.append(messages)
        return check_stage(self, messages)

    monkeypatch.setattr(clients_module.BaseClient, "_check_stage", counted)
    cfg = config(proto)
    # one client drops at the last opening stage, one at the final stage
    schedule = {2: cfg.stages[-2], 4: cfg.stages[-1]}
    result, clients = run_round(monkeypatch, proto, schedule)
    # one check per exchanged stage, each of its own delivered list
    assert len(checks) == len(cfg.stages)
    assert len({id(m) for m in checks}) == len(checks)
    survivors = [c for c in clients if c.id not in schedule]
    for kind in clients[0].got:
        if kind == MsgKind.CONTRIBUTOR_SET:
            continue
        views = [c.got.view(kind) for c in survivors]
        assert type(views[0]) is MappingProxyType, kind
        assert all(v is views[0] for v in views), kind
    assert result.contributors == (0, 1, 3, 4)


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_forged_stage_raises_the_first_offenders_error(proto, monkeypatch):
    for name, forge, error, text in stage_forgeries(proto):
        with monkeypatch.context() as patch:
            with pytest.raises(error) as raised:
                run_round(patch, proto, forge_outbox=forge)
        assert str(raised.value) == text, name


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_forged_header_raises_at_the_first_recipient(proto, monkeypatch):
    kind = SHARE_KIND[proto]
    forged = []

    def rewrite(rcpts, msg):
        forged.append(forged_header(msg.payload))
        return [(rcpts, dataclasses.replace(msg, payload=forged[0]))]

    with pytest.raises(PointMismatch) as raised:
        run_round(monkeypatch, proto,
                  forge_outbox=replace_msg(kind, 1, rewrite))
    assert str(raised.value) == (
        f"client 0: {kind.name} header {forged[0].header} from 1 != "
        f"{header_of(proto, kind)}")


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_message_under_the_recipients_own_id_is_a_duplicate(proto,
                                                            monkeypatch):
    kind = SHARE_KIND[proto]

    def forge(stage, inboxes):
        if stage == config(proto).stages[0]:
            own = next(m for m in inboxes[1] if m.sender == 0
                       and m.kind == kind)
            inboxes[0].insert(0, own)

    with pytest.raises(DuplicateSender) as raised:
        run_round(monkeypatch, proto, forge_inboxes=forge)
    assert str(raised.value) == f"client 0: second {kind.name} from 0"


@pytest.mark.parametrize("proto", ["nv", "lwe"])
def test_share_after_the_contributor_set_is_unexpected(proto, monkeypatch):
    # client 1 sends nothing until the final stage, so it is no
    # contributor, and then broadcasts its shares with that stage
    cfg = config(proto)
    kind = SHARE_KIND[proto]
    held = []

    def forge(stage, outbox):
        if stage == cfg.stages[-1]:
            return outbox + held
        held.extend(e for e in outbox if (e[1].kind, e[1].sender)
                    == (kind, 1))
        return [e for e in outbox if e[1].sender != 1]

    with pytest.raises(UnexpectedMessage) as raised:
        run_round(monkeypatch, proto, forge_outbox=forge)
    assert str(raised.value) == \
        f"client 0: {kind.name} after the contributor set"


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_late_message_reaches_only_its_recipients_store(proto, monkeypatch):
    cfg = config(proto)
    final_kind = {"nv": MsgKind.AGGREGATED_SHARE_VECTOR,
                  "lwe": MsgKind.SECRET_SUM_SHARE,
                  "pw": MsgKind.UNMASK_SHARE}[proto]
    _, clients = run_round(monkeypatch, proto, {4: cfg.stages[-1]})
    shared = clients[1].got.view(final_kind)
    before = dict(shared)
    assert 4 not in shared
    late = ProtocolMessage(final_kind, 4, 0, shared[1])
    assert clients[0].on_message([late]) == []
    assert clients[0].got.view(final_kind)[4] is shared[1]
    for c in clients[1:4]:
        assert c.got.view(final_kind) is shared
    assert dict(shared) == before


def first_stage(proto):
    """(clients, the bus, the round context, the first stage's inboxes)
    of a round of proto driven by hand, its first stage not yet served."""
    cfg = config(proto)
    bus = MessageBus(cfg, master_seed=7)
    ctx = clients_module.RoundContext(
        lwe_matrix_ops(cfg.lwe, cfg.m, cfg.field) if proto == "lwe" else None)
    client_cls = getattr(clients_module, CLIENT_NAMES[proto])
    clients = [client_cls(i, cfg, np.zeros(cfg.m), bus.client_rng(i), ctx)
               for i in range(cfg.n)]
    inboxes = bus.exchange(cfg.stages[0],
                           [e for c in clients for e in c.start()])
    return clients, bus, ctx, inboxes


@pytest.mark.parametrize("proto", ["nv", "lwe"])
def test_shared_share_stage_after_the_contributor_set_is_unexpected(proto):
    # client 0 holds only its own share when the contributor set, naming
    # it alone, arrives; the shares of the stage then come too late
    clients, bus, ctx, inboxes = first_stage(proto)
    assert clients[0].on_message([contributor_set_msg((0,))])
    with pytest.raises(UnexpectedMessage) as raised:
        rounds._deliver(clients, inboxes, ctx, bus.delivered)
    assert str(raised.value) == \
        f"client 0: {SHARE_KIND[proto].name} after the contributor set"


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_payload_held_before_its_stage_makes_it_a_duplicate(proto):
    # client 0 took one message of the stage by hand; the stage's shared
    # maps would hold it again, so client 0 checks message by message
    clients, bus, ctx, inboxes = first_stage(proto)
    first = inboxes[0][0]
    assert clients[0].on_message([first]) == []
    with pytest.raises(DuplicateSender) as raised:
        rounds._deliver(clients, inboxes, ctx, bus.delivered)
    assert str(raised.value) == \
        f"client 0: second {first.kind.name} from {first.sender}"
