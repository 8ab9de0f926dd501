import hashlib
import json
import math

import numpy as np
import pytest

from secaggsim.errors import InsufficientContributors, MissingKeyShares
from secaggsim.masking import DH_GROUP_TEST, LweParams
from secaggsim.oracle import plaintext_aggregate
from secaggsim.protocol import (
    BUS_SENDER,
    STAGES,
    ContributorSetPayload,
    MsgKind,
    ProtocolMessage,
    PubKeyPayload,
    RoundConfig,
    VectorPayload,
)
from secaggsim.simnet import (
    CONTROL_STAGE,
    DropoutSchedule,
    MessageBus,
    SimConfig,
    coalition_view,
    make_dropout_schedule,
    meter_expectations,
    metrics_match_expectations,
    run_simulation,
)

NV_STAGES = STAGES["nv"]


# --- dropout schedules -----------------------------------------------------------


def test_schedule_rate_zero_empty():
    s = make_dropout_schedule(1, 10, 0.0, "uniform", NV_STAGES)
    assert s.stages == {}


def test_schedule_thirty_percent_of_ten():
    s = make_dropout_schedule(2, 10, 0.3, "uniform", NV_STAGES)
    assert len(s.dropped) == 3
    assert all(st in NV_STAGES for st in s.stages.values())


def test_schedule_deterministic():
    a = make_dropout_schedule(3, 12, 0.25, "uniform", NV_STAGES)
    b = make_dropout_schedule(3, 12, 0.25, "uniform", NV_STAGES)
    assert a.stages == b.stages


def test_schedule_fixed_stage_policy():
    s = make_dropout_schedule(4, 10, 0.2, "aggregate_shares", NV_STAGES)
    assert set(s.stages.values()) == {"aggregate_shares"}
    with pytest.raises(ValueError):
        make_dropout_schedule(4, 10, 0.2, "no_such_stage", NV_STAGES)


# --- simulation --------------------------------------------------------------------


def test_nv_simulation_matches_oracle():
    rc = RoundConfig(protocol="nv", n=5, m=4, t=3)
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=11),
                            keep_transcript=True)
    assert report.failure is None
    expected = plaintext_aggregate(report.inputs, report.result.contributors)
    assert np.max(np.abs(report.result.average - expected)) <= 2 ** -16


def test_pw_simulation_thirty_percent_dropout_completes():
    rc = RoundConfig(protocol="pw", n=10, m=4, t=6, dh=DH_GROUP_TEST,
                     planned_dropouts=3)
    sim = SimConfig(round_cfg=rc, master_seed=12, dropout_rate=0.3,
                    dropout_stage_policy="masked_vector")
    report = run_simulation(sim, keep_transcript=True)
    assert report.failure is None
    assert len(report.result.contributors) == 7
    expected = plaintext_aggregate(report.inputs, report.result.contributors)
    assert np.max(np.abs(report.result.average - expected)) <= 2 ** -16


def test_infeasible_threshold_fails_in_report():
    rc = RoundConfig(protocol="nv", n=5, m=4, t=5)
    sim = SimConfig(round_cfg=rc, master_seed=13, dropout_rate=0.3)
    report = run_simulation(sim)
    assert report.result is None
    assert report.failure.startswith("InsufficientSurvivors")


@pytest.mark.parametrize("rounds", [0, -1])
def test_simulation_needs_a_round(rounds):
    # used to return a report with neither a result nor a failure
    rc = RoundConfig(protocol="nv", n=4, m=3)
    with pytest.raises(ValueError, match="at least 1 round"):
        SimConfig(round_cfg=rc, rounds=rounds)


def test_multi_round_simulation():
    rc = RoundConfig(protocol="nv", n=4, m=3)
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=14, rounds=3))
    assert report.failure is None
    expected = meter_expectations(rc, rounds=3)
    assert report.metrics.total_messages == expected["totals"]["messages"]


# --- metering -----------------------------------------------------------------------


@pytest.mark.parametrize("proto,kw", [
    ("nv", {}),
    ("lwe", {"lwe": LweParams(n_lwe=24, sigma=1.0, matrix_seed=b"\x0e" * 32)}),
    ("pw", {"dh": DH_GROUP_TEST}),
])
@pytest.mark.parametrize("n,m", [(3, 4), (5, 17)])
def test_measured_equals_expected_no_dropout(proto, kw, n, m):
    rc = RoundConfig(protocol=proto, n=n, m=m, **kw)
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=n * 100 + m))
    assert report.failure is None
    assert metrics_match_expectations(report.metrics, meter_expectations(rc))


def test_nv_stage1_payload_formula():
    # n=5, m=4, k=2: per-client stage-1 payload is (n-1)*(2*8+16) = 128
    rc = RoundConfig(protocol="nv", n=5, m=4, t=3, k=2)
    expected = meter_expectations(rc)
    row = expected["per_stage"]["input_shares"]
    payload_per_client = (row["bytes_sent"] - 13 * row["messages_sent"]) // 5
    assert payload_per_client == 128


def test_nv_message_count_closed_form():
    for n in (3, 5, 10):
        rc = RoundConfig(protocol="nv", n=n, m=6)
        report = run_simulation(SimConfig(round_cfg=rc, master_seed=n))
        assert report.metrics.total_messages == 2 * n * (n - 1) + n


def test_lwe_share_bytes_independent_of_m():
    lwe = LweParams(n_lwe=24, sigma=1.0, matrix_seed=b"\x0f" * 32)
    sizes = []
    for m in (10, 400):
        rc = RoundConfig(protocol="lwe", n=5, m=m, lwe=lwe)
        exp = meter_expectations(rc)
        sizes.append((exp["per_stage"]["secret_shares"]["bytes_sent"],
                      exp["per_stage"]["sum_shares"]["bytes_sent"]))
    assert sizes[0] == sizes[1]


def test_conservation_under_dropout():
    rc = RoundConfig(protocol="nv", n=8, m=5, planned_dropouts=2)
    sim = SimConfig(round_cfg=rc, master_seed=15, dropout_rate=0.25)
    report = run_simulation(sim)
    assert report.metrics.conservation_holds()
    stages = report.metrics.per_stage
    assert any(row["bytes_to_dropped"] > 0 for row in stages.values())


def test_dropped_client_sends_nothing_from_its_stage_on():
    rc = RoundConfig(protocol="nv", n=6, m=4, planned_dropouts=1)
    sim = SimConfig(round_cfg=rc, master_seed=16, dropout_rate=0.2,
                    dropout_stage_policy="aggregate_shares")
    report = run_simulation(sim)
    (dropped,) = report.schedule.dropped
    per_client = report.metrics.per_client
    live_example = next(i for i in range(6) if i not in report.schedule.stages)
    # the dropped client sent only its stage-1 traffic
    assert per_client[dropped]["messages_sent"] == 5
    assert per_client[live_example]["messages_sent"] == 10


def test_control_metered_separately():
    rc = RoundConfig(protocol="nv", n=4, m=3)
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=17))
    metr = report.metrics
    assert metr.control_messages == 4
    assert CONTROL_STAGE in metr.per_stage
    assert all(v["messages_sent"] == 0 or c == CONTROL_STAGE
               for c, v in [(CONTROL_STAGE, metr.per_stage[CONTROL_STAGE])])


def test_per_client_totals_match_stage_totals():
    rc = RoundConfig(protocol="pw", n=6, m=4, dh=DH_GROUP_TEST)
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=18))
    metr = report.metrics
    client_bytes = sum(v["bytes_sent"] for v in metr.per_client.values())
    stage_bytes = sum(v["bytes_sent"] for s, v in metr.per_stage.items()
                      if s != CONTROL_STAGE)
    assert client_bytes == stage_bytes


_TINY_LWE = LweParams(n_lwe=16, sigma=1e-6)
_PW = dict(dh=DH_GROUP_TEST)
_PW_NO_SEED = dict(dh=DH_GROUP_TEST, personal_mask=False)

# SHA-256 of the Metrics.to_dict() JSON of seed-31, n=7, m=5 runs, recorded
# when every send was metered one call at a time.  It pins the counters
# and which clients and stages have rows at all: a pw round without
# personal masks whose dropouts all left at setup sends nothing in its
# final stage, so that stage has no row.  The last case fails with
# InsufficientSurvivors after every stage was metered.
METER_DIGESTS = [
    ("nv", {}, 0.3, "uniform", 2, True,
     "2058ffc21840c1e3d39e994004c78ee123904ed8f24a754c5db0add3b04ca2f5"),
    ("nv", {}, 0.3, "aggregate_shares", 1, True,
     "60ae6e9a59d67718bc8b087be23941f3470dfe148a35dc5822c63cc5070458dc"),
    ("lwe", dict(lwe=_TINY_LWE), 0.3, "uniform", 1, True,
     "3bd01704dc9fc5f0f09ccd5fdedde60ac538740c81ed56bafe9505da0a88bb82"),
    ("lwe", dict(lwe=_TINY_LWE), 0.3, "masked_vector", 2, True,
     "9e1dfee6f907d7cecdd1f5eb7ba1e96cb8ede48949390f2147e98b0824a992dc"),
    ("pw", _PW, 0.3, "uniform", 1, True,
     "c73ce94556af8700d17e0c899604875dafa8f121ed6accbd868d82e7298b368a"),
    ("pw", _PW, 0.3, "setup", 1, True,
     "c27e4d898720c3f5064205f162b24fdf429d39b91137f52c015d46502b26e1f4"),
    ("pw", _PW, 0.3, "unmask_shares", 2, True,
     "80fcdab808391ec250c82a606c734ce52ae3f99bd8a26412c9e2a134ef4e729a"),
    ("pw", _PW_NO_SEED, 0.3, "masked_vector", 1, True,
     "6dcf24a8df8225b7e358baed4dcb6367474375841a7b71b6ccd79026b95700c9"),
    ("pw", _PW_NO_SEED, 0.3, "setup", 1, True,
     "13df1160d39eef7b5c1e281af1ffb9340e05bc1827a9339d5cbef0192109a27f"),
    ("pw", _PW_NO_SEED, 0.0, "uniform", 1, True,
     "42b019293cb19843c9828f49bd75dfcd844d123e660e61aa472930da5ab5b7f1"),
    ("nv", {}, 0.3, "input_shares", 1, False,
     "8f8bbe09d188289467eeb95616f05e741ea1ac50a5b4b6f44f4d1401b0f1034a"),
]


@pytest.mark.parametrize("proto,kw,rate,policy,rounds,planned,digest",
                         METER_DIGESTS)
def test_meters_under_dropout_match_recorded_digests(proto, kw, rate, policy,
                                                     rounds, planned, digest):
    rc = RoundConfig(protocol=proto, n=7, m=5,
                     planned_dropouts=int(rate * 7) if planned else 0, **kw)
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=31,
                                      dropout_rate=rate,
                                      dropout_stage_policy=policy,
                                      rounds=rounds))
    assert (report.failure is None) == planned
    metrics = report.metrics.to_dict()
    if not kw.get("personal_mask", True) and policy != "masked_vector":
        assert "unmask_shares" not in metrics["per_stage"]
    blob = json.dumps(metrics, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_exchange_meters_entries_by_count_times_size():
    cfg = RoundConfig(protocol="pw", n=4, m=2, dh=DH_GROUP_TEST)
    bus = MessageBus(cfg, master_seed=0,
                     schedule=DropoutSchedule(stages={3: "setup"}),
                     record_transcript=True)

    def msg(kind, sender, payload):
        return ProtocolMessage(kind=kind, sender=sender, round=0,
                               payload=payload)

    pk = msg(MsgKind.PUB_KEY, 0, PubKeyPayload(5, 4))           # 17 bytes
    share = {j: msg(MsgKind.KEY_SHARE, 0, VectorPayload(
        np.full(1, j, dtype=np.uint64))) for j in (1, 2, 3)}    # 25 each
    vec = msg(MsgKind.MASKED_VECTOR, 1,
              VectorPayload(np.zeros(2, dtype=np.uint64)))      # 33 bytes
    gone = msg(MsgKind.MASKED_VECTOR, 3,
               VectorPayload(np.zeros(2, dtype=np.uint64)))
    assert (pk.wire_size, share[1].wire_size, vec.wire_size) == (17, 25, 33)
    # out of order on purpose; client 3 dropped at this stage, so its own
    # broadcast is never sent and what is addressed to it is not delivered
    outbox = [((0, 2, 3), vec), ((0, 1, 2), gone), ((3,), share[3]),
              ((2,), share[2]), ((1, 2, 3), pk), ((1,), share[1])]
    inboxes = bus.exchange("setup", outbox)
    # one inbox per client id, in (sender, kind) order
    assert inboxes == [[vec], [pk, share[1]], [pk, share[2], vec], []]
    assert bus.transcript == [(1, pk), (2, pk), (1, share[1]),
                              (2, share[2]), (0, vec), (2, vec)]
    metr = bus.metrics
    assert metr.per_stage["setup"] == {
        "messages_sent": 9, "bytes_sent": 3 * 17 + 3 * 25 + 3 * 33,
        "bytes_delivered": 2 * 17 + 2 * 25 + 2 * 33,
        "bytes_to_dropped": 17 + 25 + 33}
    assert metr.per_client == {
        0: {"messages_sent": 6, "bytes_sent": 3 * 17 + 3 * 25,
            "bytes_received": 33},
        1: {"messages_sent": 3, "bytes_sent": 3 * 33,
            "bytes_received": 17 + 25},
        2: {"messages_sent": 0, "bytes_sent": 0,
            "bytes_received": 17 + 25 + 33}}
    assert bus.delivery_record() == {"setup": (0, 1)}


@pytest.mark.parametrize("dropped", [{}, {1: "setup"},
                                     {0: "setup", 3: "setup", 4: "setup"}])
def test_broadcast_stage_is_delivered_as_entry_by_entry(dropped):
    # every entry goes to all of its sender's peers: each inbox is the one
    # delivered list less the client's own messages, and a recorded run,
    # which also writes the transcript entry by entry, gives the same
    # inboxes, meters, senders and list
    cfg = RoundConfig(protocol="pw", n=5, m=2, dh=DH_GROUP_TEST)

    def peers(i):
        return tuple(j for j in range(cfg.n) if j != i)

    outbox = [(peers(i), ProtocolMessage(MsgKind.MASKED_VECTOR, i, 0,
                                         VectorPayload(np.zeros(i + 1,
                                                       dtype=np.uint64))))
              for i in (3, 0, 1, 4)]
    outbox += [(peers(i), ProtocolMessage(MsgKind.PUB_KEY, i, 0,
                                          PubKeyPayload(5, 4)))
               for i in (1, 3)]
    buses = [MessageBus(cfg, master_seed=0,
                        schedule=DropoutSchedule(stages=dropped),
                        record_transcript=record) for record in (False, True)]
    inboxes = [bus.exchange("setup", list(outbox)) for bus in buses]
    assert inboxes[0] == inboxes[1]
    rows = [list(bus.metrics.per_client.items()) for bus in buses]
    assert rows[0] == rows[1]  # in the same order, too
    assert buses[0].metrics.to_dict() == buses[1].metrics.to_dict()
    assert buses[0].delivery_record() == buses[1].delivery_record()
    live = sorted((msg for _, msg in outbox if msg.sender not in dropped),
                  key=lambda m: (m.sender, m.kind))
    assert buses[0].delivered == buses[1].delivered == live
    for i, inbox in enumerate(inboxes[0]):
        assert inbox == ([] if i in dropped
                         else [m for m in live if m.sender != i])


def test_partial_stage_is_delivered_entry_by_entry():
    cfg = RoundConfig(protocol="nv", n=3, m=2)
    bus = MessageBus(cfg, master_seed=0)
    msg = ProtocolMessage(MsgKind.MASKED_VECTOR, 0, 0,
                          VectorPayload(np.zeros(2, dtype=np.uint64)))
    assert bus.exchange("input_shares", [((1,), msg)]) == [[], [msg], []]
    # the one list holds the message, though its entry skips client 2
    assert bus.delivered == [msg]
    assert bus.exchange("input_shares", [((1, 2), msg)]) == [[], [msg], [msg]]
    assert bus.delivered == [msg]


@pytest.mark.parametrize("record", [False, True])
def test_entry_that_skips_one_live_peer(record):
    # client 1's masked vector skips client 2, a live peer; every other
    # entry goes to all of its sender's peers, and client 3 has dropped
    cfg = RoundConfig(protocol="pw", n=4, m=2, dh=DH_GROUP_TEST)
    bus = MessageBus(cfg, master_seed=0,
                     schedule=DropoutSchedule(stages={3: "setup"}),
                     record_transcript=record)

    def peers(i):
        return tuple(j for j in range(cfg.n) if j != i)

    pk = {i: ProtocolMessage(MsgKind.PUB_KEY, i, 0, PubKeyPayload(5, 4))
          for i in range(cfg.n)}                               # 17 bytes
    vec = ProtocolMessage(MsgKind.MASKED_VECTOR, 1, 0, VectorPayload(
        np.zeros(2, dtype=np.uint64)))                          # 33 bytes
    outbox = [(peers(i), pk[i]) for i in (3, 2, 1, 0)] + [((0, 3), vec)]
    inboxes = bus.exchange("setup", outbox)
    assert bus.delivered == [pk[0], pk[1], vec, pk[2]]
    assert inboxes == [[pk[1], vec, pk[2]], [pk[0], pk[2]], [pk[0], pk[1]],
                       []]
    assert bus.metrics.per_stage["setup"] == {
        "messages_sent": 3 * 3 + 2, "bytes_sent": 9 * 17 + 2 * 33,
        "bytes_delivered": 6 * 17 + 33, "bytes_to_dropped": 3 * 17 + 33}
    assert bus.metrics.per_client == {
        0: {"messages_sent": 3, "bytes_sent": 3 * 17,
            "bytes_received": 2 * 17 + 33},
        1: {"messages_sent": 5, "bytes_sent": 3 * 17 + 2 * 33,
            "bytes_received": 2 * 17},
        2: {"messages_sent": 3, "bytes_sent": 3 * 17,
            "bytes_received": 2 * 17}}
    assert bus.delivery_record() == {"setup": (0, 1, 2)}
    assert bus.transcript == ([(1, pk[0]), (2, pk[0]), (0, pk[1]), (2, pk[1]),
                               (0, vec), (0, pk[2]), (1, pk[2])]
                              if record else [])


@pytest.mark.parametrize("proto,kind,error,text", [
    ("nv", MsgKind.INPUT_SHARE_VECTOR, MissingKeyShares,
     "client 2: no shares from contributors [1]"),
    ("lwe", MsgKind.MASKED_VECTOR, InsufficientContributors,
     "client 2: masked vectors missing from [1]"),
    ("pw", MsgKind.MASKED_VECTOR, InsufficientContributors,
     "client 2: masked vectors missing from [1]"),
])
def test_client_an_entry_skips_ends_in_a_typed_failure(proto, kind, error,
                                                       text, monkeypatch):
    exchange = MessageBus.exchange

    def skipping(self, stage, outbox):
        return exchange(self, stage, [
            (tuple(r for r in rcpts if r != 2)
             if (msg.kind, msg.sender) == (kind, 1) else rcpts, msg)
            for rcpts, msg in outbox])

    monkeypatch.setattr(MessageBus, "exchange", skipping)
    rc = RoundConfig(protocol=proto, n=5, m=3,
                     **{"nv": {}, "lwe": dict(lwe=LweParams(n_lwe=16)),
                        "pw": _PW}[proto])
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=4))
    assert report.failure == f"{error.__name__}: {text}"


def test_control_is_one_entry_to_the_live_clients():
    cfg = RoundConfig(protocol="nv", n=4, m=3)
    bus = MessageBus(cfg, master_seed=0,
                     schedule=DropoutSchedule(stages={2: "aggregate_shares"}))
    msg = ProtocolMessage(kind=MsgKind.CONTRIBUTOR_SET, sender=BUS_SENDER,
                          round=0, payload=ContributorSetPayload((0, 1, 2)))
    assert bus.control("aggregate_shares", msg) == [[msg], [msg], [], [msg]]
    size = 13 + 4 + 4 * 3
    assert bus.metrics.per_stage[CONTROL_STAGE] == {
        "messages_sent": 4, "bytes_sent": 4 * size,
        "bytes_delivered": 3 * size, "bytes_to_dropped": size}


# Seed 32 drops one client before the final stage and one at it, so the
# pw rounds open a DH key as well as (with personal masks) the seeds.
_PW_KINDS = {MsgKind.PUB_KEY, MsgKind.KEY_SHARE, MsgKind.MASKED_VECTOR,
             MsgKind.UNMASK_SHARE}
SIZE_CASES = [
    ("nv", {}, {MsgKind.INPUT_SHARE_VECTOR, MsgKind.AGGREGATED_SHARE_VECTOR}),
    ("lwe", dict(lwe=LweParams(n_lwe=16, sigma=1e-6)),
     {MsgKind.KEY_SHARE, MsgKind.MASKED_VECTOR, MsgKind.SECRET_SUM_SHARE}),
    ("pw", _PW, _PW_KINDS | {MsgKind.PERSONAL_SEED_SHARE}),
    ("pw", _PW_NO_SEED, _PW_KINDS),
]
SIZE_IDS = ["nv", "lwe", "pw", "pw-no-seed"]


@pytest.mark.parametrize("proto,kw,kinds", SIZE_CASES, ids=SIZE_IDS)
def test_wire_size_is_the_length_of_the_wire_bytes(proto, kw, kinds):
    rc = RoundConfig(protocol=proto, n=7, m=5, planned_dropouts=2, **kw)
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=32,
                                      dropout_rate=0.3), keep_transcript=True)
    assert report.failure is None and len(report.schedule.dropped) == 2
    for _, msg in report.transcript:
        assert msg.wire_size == len(msg.to_bytes()), msg.kind.name
    assert ({msg.kind for _, msg in report.transcript}
            == kinds | {MsgKind.CONTRIBUTOR_SET})


@pytest.mark.parametrize("proto,kw,kinds", SIZE_CASES, ids=SIZE_IDS)
def test_round_without_transcript_never_serializes(proto, kw, kinds,
                                                   monkeypatch):
    def refuse(self):
        raise AssertionError("a round without a transcript serialized")

    monkeypatch.setattr(ProtocolMessage, "to_bytes", refuse)
    rc = RoundConfig(protocol=proto, n=7, m=5, planned_dropouts=2, **kw)
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=32,
                                      dropout_rate=0.3))
    assert report.failure is None
    assert report.metrics.total_bytes > 0


def test_report_reproducible_modulo_wall_time():
    rc1 = RoundConfig(protocol="lwe", n=5, m=6,
                      lwe=LweParams(n_lwe=16, sigma=1.5))
    rc2 = RoundConfig(protocol="lwe", n=5, m=6,
                      lwe=LweParams(n_lwe=16, sigma=1.5))
    a = run_simulation(SimConfig(round_cfg=rc1, master_seed=19,
                                 dropout_rate=0.2))
    b = run_simulation(SimConfig(round_cfg=rc2, master_seed=19,
                                 dropout_rate=0.2))
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time"), db.pop("wall_time")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_field_ops_recorded():
    rc = RoundConfig(protocol="nv", n=4, m=6)
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=20))
    assert report.metrics.total_field_ops > 0
    assert set(report.metrics.field_ops) == set(range(4))


# --- transcript scanner ---------------------------------------------------------------


def test_coalition_view_counts_stay_below_threshold():
    rc = RoundConfig(protocol="pw", n=10, m=4, dh=DH_GROUP_TEST,
                     planned_dropouts=2)
    sim = SimConfig(round_cfg=rc, master_seed=21, dropout_rate=0.2,
                    dropout_stage_policy="masked_vector")
    report = run_simulation(sim, keep_transcript=True)
    coalition = set(list(report.result.contributors)[: math.ceil(0.2 * 10)])
    view = coalition_view(report, coalition)
    t = rc.t
    assert all(c < t for c in view["private_share_counts"].values())
    assert view["raw_input_hits"] == []
    # the dropped clients' DH keys were opened on purpose
    assert any(k[0] == "dh_key" and c >= t
               for k, c in view["opened_share_counts"].items())


def test_coalition_view_refuses_a_multi_round_report():
    # the report keeps only the last round's inputs, so a scan of every
    # round's traffic against them would miss earlier rounds' leaks
    rc = RoundConfig(protocol="nv", n=4, m=3)
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=22, rounds=3),
                            keep_transcript=True)
    assert report.failure is None
    with pytest.raises(ValueError, match="one-round report"):
        coalition_view(report, {0})


def test_coalition_view_requires_transcript():
    rc = RoundConfig(protocol="nv", n=4, m=3)
    report = run_simulation(SimConfig(round_cfg=rc, master_seed=22))
    with pytest.raises(ValueError):
        coalition_view(report, {0})
