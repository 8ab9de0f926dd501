import dataclasses
import hashlib
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secaggsim.errors import (
    BadPacking,
    BadThreshold,
    DivergentAggregate,
    DuplicateSender,
    InsufficientContributors,
    MissingKeyShares,
    NonFiniteInput,
    ProtocolError,
    SecAggError,
    UnexpectedMessage,
    UnmaskMismatch,
)
from secaggsim import masking
from secaggsim.field import (M61, FieldPrime, FixedPointConfig, add_mod,
                             encode_vec, sub_mod)
from secaggsim.masking import (DH_GROUP_TEST, SECRET_ETA, LweMatrixOps,
                               LweParams, gaussian_draws, gaussian_error,
                               lwe_mask, lwe_matrix_ops, mat_vec_mod)
from secaggsim.oracle import expected_outcome, plaintext_aggregate
from secaggsim.protocol import (
    BUS_SENDER,
    ContributorSetPayload,
    LweClient,
    MsgKind,
    NvClient,
    ProtocolMessage,
    PwClient,
    RoundConfig,
    ROUND_FNS,
    RoundContext,
    ShareBundlePayload,
    UnmaskPayload,
    VectorPayload,
    contributor_set,
    lwe_round,
    nv_round,
)
from secaggsim.protocol import clients as clients_module
from secaggsim.protocol.clients import SHARE_BLOCK_COLUMNS, block_size
from secaggsim.shamir import share_integer, share_vector
from secaggsim.simnet import (DropoutSchedule, MessageBus, SimConfig,
                              client_seed, run_simulation)

SMALL_LWE = LweParams(n_lwe=16, sigma=1e-6, matrix_seed=b"\x01" * 32)


def nv_cfg(n=4, m=3, **kw):
    return RoundConfig(protocol="nv", n=n, m=m, **kw)


def make_nv_clients(cfg, seed=0):
    rngs = [np.random.default_rng(seed + i) for i in range(cfg.n)]
    ws = [np.arange(cfg.m, dtype=float) + i for i in range(cfg.n)]
    ctx = RoundContext()
    return [NvClient(i, cfg, ws[i], rngs[i], ctx) for i in range(cfg.n)], ws


# --- client state machine surface -----------------------------------------------


def contributor_set_msg(ids):
    return ProtocolMessage(kind=MsgKind.CONTRIBUTOR_SET, sender=BUS_SENDER,
                           round=0, payload=ContributorSetPayload(ids))


def test_nv_contributor_set_triggers_aggregate_broadcast():
    cfg = nv_cfg()
    clients, _ = make_nv_clients(cfg)
    outboxes = [c.start() for c in clients]
    target = clients[0]
    # every input share in hand (own one counted) still emits nothing
    for outbox in outboxes[1:]:
        for rcpts, msg in outbox:
            if 0 in rcpts:
                assert target.on_message([msg]) == []
    # the contributor set is the one trigger: the aggregated share goes
    # to every peer, as one broadcast entry
    emitted = target.on_message([contributor_set_msg(tuple(range(cfg.n)))])
    assert [rcpts for rcpts, _ in emitted] == [tuple(range(1, cfg.n))]
    assert all(m.kind == MsgKind.AGGREGATED_SHARE_VECTOR for _, m in emitted)


@pytest.mark.parametrize("proto", ["nv", "lwe"])
def test_share_after_contributor_set_rejected(proto):
    cfg = RoundConfig(protocol=proto, n=3, m=2,
                      lwe=SMALL_LWE if proto == "lwe" else None)
    rngs = [np.random.default_rng(i) for i in range(cfg.n)]
    ctx = RoundContext(lwe_matrix_ops(cfg.lwe, cfg.m, cfg.field)
                       if proto == "lwe" else None)
    client_cls = LweClient if proto == "lwe" else NvClient
    clients = [client_cls(i, cfg, np.zeros(2), rngs[i], ctx)
               for i in range(cfg.n)]
    outboxes = [c.start() for c in clients]
    share = {i: next(m for rcpts, m in outboxes[i] if 0 in rcpts)
             for i in (1, 2)}
    clients[0].on_message([share[1]])
    # one summed-share broadcast, to both peers
    emitted = clients[0].on_message([contributor_set_msg((0, 1))])
    assert [rcpts for rcpts, _ in emitted] == [(1, 2)]
    # client 2's share arrives late; it must not join the summed shares
    with pytest.raises(UnexpectedMessage):
        clients[0].on_message([share[2]])


def test_duplicate_sender_rejected():
    cfg = nv_cfg()
    clients, _ = make_nv_clients(cfg)
    outbox = clients[1].start()
    share_msg = next(m for rcpts, m in outbox if 0 in rcpts)
    clients[0].on_message([share_msg])
    with pytest.raises(DuplicateSender):
        clients[0].on_message([share_msg])


def test_unexpected_kind_rejected():
    cfg = nv_cfg()
    clients, _ = make_nv_clients(cfg)
    bad = ProtocolMessage(kind=MsgKind.PUB_KEY, sender=1, round=0,
                          payload=ContributorSetPayload((0,)))
    with pytest.raises(UnexpectedMessage):
        clients[0].on_message([bad])


def test_wrong_round_rejected():
    cfg = nv_cfg()
    clients, _ = make_nv_clients(cfg)
    msg = ProtocolMessage(kind=MsgKind.CONTRIBUTOR_SET, sender=BUS_SENDER,
                          round=3, payload=ContributorSetPayload((0, 1)))
    with pytest.raises(UnexpectedMessage):
        clients[0].on_message([msg])


def test_lwe_missing_key_share_detected():
    cfg = RoundConfig(protocol="lwe", n=3, m=2, lwe=SMALL_LWE)
    ctx = RoundContext(lwe_matrix_ops(cfg.lwe, cfg.m, cfg.field))
    client = LweClient(0, cfg, np.zeros(2), np.random.default_rng(0), ctx)
    client.start()
    # a contributor set naming client 2, whose key shares never arrived
    cs = ProtocolMessage(kind=MsgKind.CONTRIBUTOR_SET, sender=BUS_SENDER,
                         round=0, payload=ContributorSetPayload((0, 2)))
    with pytest.raises(MissingKeyShares):
        client.on_message([cs])


def test_lwe_secret_is_small_and_the_rngs_first_draw():
    cfg = RoundConfig(protocol="lwe", n=3, m=2,
                      lwe=LweParams(n_lwe=20_000, sigma=1e-6))
    ctx = RoundContext(lwe_matrix_ops(cfg.lwe, cfg.m, cfg.field))
    client = LweClient(0, cfg, np.zeros(2), np.random.default_rng(5), ctx)
    q = cfg.field.q
    centered = np.where(client.s > q // 2, client.s.astype(np.int64) - q,
                        client.s.astype(np.int64))
    assert client.s.dtype == np.uint64 and (client.s < q).all()
    assert -SECRET_ETA <= centered.min() and centered.max() <= SECRET_ETA
    assert abs(centered.var() - SECRET_ETA / 2) < 0.5
    # centered binomial: Binomial(2 eta, 1/2) - eta, from a fresh rng
    first = np.random.default_rng(5).binomial(2 * SECRET_ETA, 0.5, 20_000)
    assert centered.tolist() == (first - SECRET_ETA).tolist()


def test_inbox_check_raises_for_its_first_offender():
    cfg = nv_cfg()
    share = {i: msg for i, c in enumerate(make_nv_clients(cfg)[0])
             for _, msg in c.start()}
    late = dataclasses.replace(share[2], round=3)
    pub_key = ProtocolMessage(kind=MsgKind.PUB_KEY, sender=2, round=0,
                              payload=ContributorSetPayload((0,)))
    cases = [
        ([share[1], share[2], share[1]], DuplicateSender,
         "client 0: second INPUT_SHARE_VECTOR from 1"),
        ([share[1], late, share[3], pub_key], UnexpectedMessage,
         "client 0: round 3 != 0"),
        ([share[1], pub_key, share[3], late], UnexpectedMessage,
         "client 0: PUB_KEY not expected now"),
    ]
    for inbox, error, text in cases:
        target = make_nv_clients(cfg)[0][0]
        with pytest.raises(error) as raised:
            target.on_message(inbox)
        assert str(raised.value) == text
    # a sender already taken from an earlier inbox is a duplicate too
    target = make_nv_clients(cfg)[0][0]
    assert target.on_message([share[1]]) == []
    with pytest.raises(DuplicateSender, match="second INPUT_SHARE_VECTOR "
                                              "from 1"):
        target.on_message([share[2], share[1]])


def make_clients(proto):
    """The clients of a 4-client round, none of them started."""
    if proto == "pw":
        cfg = RoundConfig(protocol="pw", n=4, m=3, dh=DH_GROUP_TEST)
        ctx, client_cls = RoundContext(), PwClient
    else:
        cfg = RoundConfig(protocol=proto, n=4, m=300, t=2, k=2,
                          lwe=SMALL_LWE if proto == "lwe" else None)
        ctx = RoundContext(lwe_matrix_ops(cfg.lwe, cfg.m, cfg.field)
                           if proto == "lwe" else None)
        client_cls = LweClient if proto == "lwe" else NvClient
    return cfg, [client_cls(i, cfg, np.zeros(cfg.m),
                            np.random.default_rng(i), ctx)
                 for i in range(cfg.n)]


def bundle_outboxes(proto):
    """The start() outbox of every client of a 4-client round."""
    cfg, clients = make_clients(proto)
    return cfg, [c.start() for c in clients]


@pytest.mark.parametrize("proto", ["nv", "lwe", "pw"])
def test_second_contributor_set_is_a_duplicate_sender(proto):
    cfg, clients = make_clients(proto)
    for c in clients:
        deliver(clients, c.start())
    if proto != "nv":
        for c in clients:
            deliver(clients, c.emit_masked())
    everyone = tuple(range(cfg.n))
    assert len(clients[0].on_message([contributor_set_msg(everyone)])) == 1
    for ids in (everyone, everyone[:-1]):
        with pytest.raises(DuplicateSender, match="client 0: second "
                                                  "CONTRIBUTOR_SET from"):
            clients[0].on_message([contributor_set_msg(ids)])
        # nor may a peer announce one
        with pytest.raises(UnexpectedMessage, match="client 0: "
                                                    "CONTRIBUTOR_SET from 2"):
            clients[0].on_message([dataclasses.replace(
                contributor_set_msg(ids), sender=2)])
    assert clients[0].contributors == everyone


def test_pw_seed_share_with_personal_masking_off_is_unexpected():
    cfg = RoundConfig(protocol="pw", n=3, m=2, dh=DH_GROUP_TEST)
    sender = PwClient(1, cfg, np.zeros(2), np.random.default_rng(1),
                      RoundContext())
    seed_share = next(msg for _, msg in sender.start()
                      if msg.kind == MsgKind.PERSONAL_SEED_SHARE)
    receiver = PwClient(0, dataclasses.replace(cfg, personal_mask=False),
                        np.zeros(2), np.random.default_rng(0), RoundContext())
    with pytest.raises(UnexpectedMessage,
                       match="client 0: PERSONAL_SEED_SHARE not expected now"):
        receiver.on_message([seed_share])


@pytest.mark.parametrize("proto", ["nv", "lwe", "pw"])
def test_bundle_expands_to_each_recipients_row_message(proto):
    cfg, outboxes = bundle_outboxes(proto)
    bundles = [(rcpts, msg) for outbox in outboxes for rcpts, msg in outbox
               if isinstance(msg.payload, ShareBundlePayload)]
    assert len(bundles) == cfg.n * (2 if proto == "pw" else 1)
    for rcpts, msg in bundles:
        rows = msg.payload.rows
        assert rcpts == tuple(j for j in range(cfg.n) if j != msg.sender)
        for j in rcpts:
            # the 13-byte message header, then the row's payload: nv and
            # lwe send (chunks, vector length, t, k) before the words, pw
            # the chunk count
            if proto == "pw":
                body = struct.pack(">I", rows.shape[1])
            else:
                vec_len = cfg.m if proto == "nv" else cfg.lwe.n_lwe
                body = struct.pack(">IIII", rows.shape[1], vec_len, cfg.t,
                                   cfg.k)
            body += rows[j].astype(">u8").tobytes()
            wire = struct.pack(">BIII", msg.kind, msg.sender, 0,
                               len(body)) + body
            narrowed = msg.at(j)
            assert narrowed.to_bytes() == wire
            assert narrowed.wire_size == len(wire) == msg.wire_size


def test_payload_share_rows_are_read_only():
    # an opening is memoized under the payload objects, so the rows they
    # hold must never change after the payload is built
    rows = np.arange(6, dtype=np.uint64).reshape(3, 2)
    bundle = ShareBundlePayload(rows.copy(), (3, 2, 1))
    held = [bundle.rows, bundle.at(1).vec,
            VectorPayload(rows[0].copy(), (3, 2, 1)).vec,
            UnmaskPayload(((0, 0, 2),), rows[1].copy()).row]
    for row in held:
        with pytest.raises(ValueError):
            row[0] = 1


def test_field_element_payloads_are_read_only_and_hash_by_identity():
    # a round keys its memos on these objects, so each must stand for the
    # same rows for its lifetime and equal no other object, the masked
    # vector included
    rows = np.arange(6, dtype=np.uint64).reshape(3, 2)
    bundle = ShareBundlePayload(rows.copy(), (3, 2, 1))
    cases = [
        (VectorPayload(np.arange(4, dtype=np.uint64)), lambda p: p.vec),
        (bundle, lambda p: p.rows),
        (bundle.at(1), lambda p: p.vec),
        (ShareBundlePayload(rows.copy()).at(2), lambda p: p.vec),
        (UnmaskPayload(((0, 0, 2),), rows[1].copy()), lambda p: p.row),
    ]
    for payload, held in cases:
        twin = dataclasses.replace(payload)  # the same rows, another object
        assert payload == payload and payload != twin
        assert {payload: "a", twin: "b"}[payload] == "a"
        with pytest.raises(ValueError):
            held(payload)[0] = 1


def test_unmask_payload_bytes_are_the_entry_layout():
    # 4-byte entry count, then per entry 4-byte target, 1-byte secret
    # type, 4-byte chunk count and 8 bytes per chunk
    names = ((0, 3, 1), (1, 0, 5), (1, 2, 5))
    row = np.arange(11, dtype=np.uint64) * np.uint64(M61 // 11)
    payload = UnmaskPayload(names, row.copy())
    want = struct.pack(">I", 3)
    at = 0
    for kind, target, count in names:
        want += struct.pack(">IBI", target, kind, count)
        want += b"".join(int(c).to_bytes(8, "big") for c in row[at:at + count])
        at += count
    assert payload.to_bytes() == want
    assert payload.nbytes == len(want)
    assert UnmaskPayload((), np.empty(0, dtype=np.uint64)).to_bytes() == \
        struct.pack(">I", 0)
    with pytest.raises(ValueError):  # names and row must agree
        UnmaskPayload(names, row[:10].copy())


def test_contributor_set_from_delivery_record():
    record = {"input_shares": (0, 2, 3), "aggregate_shares": (0, 2)}
    assert contributor_set(record, "input_shares") == (0, 2, 3)


# --- whole rounds vs the plaintext oracle ----------------------------------------


def run(proto, n, m, seed=0, rate=0.0, stage="uniform", **kw):
    cfg = RoundConfig(protocol=proto, n=n, m=m,
                      planned_dropouts=int(rate * n), **kw)
    sim = SimConfig(round_cfg=cfg, master_seed=seed, dropout_rate=rate,
                    dropout_stage_policy=stage)
    return run_simulation(sim, keep_transcript=True)


def test_nv_linear_inputs_average():
    cfg = nv_cfg(n=5, m=4, t=3)
    bus = MessageBus(cfg, master_seed=1)
    inputs = [(i + 1) * np.ones(4) for i in range(5)]
    from secaggsim.protocol import nv_round
    result = nv_round(inputs, cfg, bus)
    assert np.allclose(result.average, 3.0, atol=2 ** -16)
    assert result.exact and result.contributors == (0, 1, 2, 3, 4)


def test_nv_all_zero_inputs_exact():
    cfg = nv_cfg(n=5, m=4, t=3)
    bus = MessageBus(cfg, master_seed=2)
    from secaggsim.protocol import nv_round
    result = nv_round([np.zeros(4)] * 5, cfg, bus)
    assert np.array_equal(result.average, np.zeros(4))
    assert not result.field_sum.any()


def test_nv_dropout_before_sharing_averages_survivors():
    report = run("nv", n=5, m=4, t=3, seed=3, rate=0.2, stage="input_shares")
    assert report.failure is None
    dropped = report.schedule.dropped
    assert len(dropped) == 1
    assert dropped[0] not in report.result.contributors
    expected = plaintext_aggregate(report.inputs, report.result.contributors)
    assert np.max(np.abs(report.result.average - expected)) <= 2 ** -16


def test_nv_client_dropping_at_final_stage_only_shared():
    # the contributor set never reaches a client that drops at the final
    # stage, so its field ops are those of start() alone
    report = run("nv", n=6, m=4, seed=1, rate=0.34, stage="aggregate_shares")
    assert report.failure is None
    probe = NvClient(0, RoundConfig(protocol="nv", n=6, m=4,
                                    planned_dropouts=2),
                     np.zeros(4), np.random.default_rng(0), RoundContext())
    probe.start()
    for cid in report.schedule.dropped:
        assert report.metrics.field_ops[cid] == {
            "add": probe.ops.add, "mul": probe.ops.mul, "inv": 0}


def test_divisor_is_contributor_count_not_n():
    report = run("nv", n=5, m=2, t=3, seed=4, rate=0.2, stage="input_shares")
    contribs = report.result.contributors
    assert len(contribs) == 4
    sums = plaintext_aggregate(report.inputs, contribs) * len(contribs)
    # dividing by n=5 instead would visibly bias the result
    assert not np.allclose(report.result.average, sums / 5, atol=1e-4)
    assert np.allclose(report.result.average, sums / 4, atol=2 ** -16)


@pytest.mark.parametrize("proto,kw", [
    ("nv", {}),
    ("pw", {"dh": DH_GROUP_TEST}),
])
def test_field_sum_exact_for_share_protocols(proto, kw):
    for n, rate, stage_i in ((3, 0.0, 0), (5, 0.2, 0), (10, 0.3, 1), (20, 0.1, 1)):
        cfg = RoundConfig(protocol=proto, n=n, m=3,
                          planned_dropouts=int(rate * n), **kw)
        stage = cfg.stages[stage_i] if rate else "uniform"
        sim = SimConfig(round_cfg=cfg, master_seed=n, dropout_rate=rate,
                        dropout_stage_policy=stage)
        report = run_simulation(sim, keep_transcript=True)
        assert report.failure is None, report.failure
        total = np.zeros(3, dtype=np.uint64)
        q = np.uint64(cfg.field.q)
        for i in report.result.contributors:
            total = (total + encode_vec(report.inputs[i])) % q
        assert np.array_equal(total, report.result.field_sum)


def test_lwe_negligible_sigma_matches_oracle():
    report = run("lwe", n=5, m=4, seed=5, lwe=SMALL_LWE)
    expected = plaintext_aggregate(report.inputs, report.result.contributors)
    assert np.max(np.abs(report.result.average - expected)) <= 2 ** -15
    assert report.result.exact is False
    assert report.result.noise_sigma_effective == pytest.approx(
        1e-6 * np.sqrt(5))


def test_lwe_identity_sum_plus_noise_in_field():
    # reconstructed field vector equals sum of encoded inputs plus a small
    # integer perturbation (the summed Gaussian noise), exactly
    lwe = LweParams(n_lwe=16, sigma=2.0, matrix_seed=b"\x02" * 32)
    report = run("lwe", n=5, m=6, seed=6, lwe=lwe)
    q = report.config["q"]
    total = np.zeros(6, dtype=np.uint64)
    for i in report.result.contributors:
        total = (total + encode_vec(report.inputs[i])) % np.uint64(q)
    noise = [(int(a) - int(b)) % q for a, b in zip(report.result.field_sum, total)]
    signed = [v - q if v > q // 2 else v for v in noise]
    assert all(abs(v) < 60 for v in signed)
    assert any(v != 0 for v in signed)


def test_lwe_dropout_after_share_stage():
    report = run("lwe", n=5, m=4, seed=7, rate=0.2, stage="masked_vector",
                 lwe=SMALL_LWE)
    assert report.failure is None
    assert len(report.result.contributors) == 4
    expected = plaintext_aggregate(report.inputs, report.result.contributors)
    assert np.max(np.abs(report.result.average - expected)) <= 2 ** -15


def test_lwe_round_across_mask_blocks_matches_oracle(monkeypatch):
    # 70 clients span two 64-secret blocks of the batched A.S product,
    # and dropouts before the masked vector leave columns of both unused
    shapes = []
    matvec = LweMatrixOps.matvec

    def recording(self, s):
        shapes.append(np.shape(s))
        return matvec(self, s)

    monkeypatch.setattr(LweMatrixOps, "matvec", recording)
    lwe = LweParams(n_lwe=4, sigma=1e-6, matrix_seed=b"\x03" * 32)
    report = run("lwe", n=70, m=3, seed=1, rate=0.2, stage="masked_vector",
                 lwe=lwe)
    assert report.failure is None, report.failure
    dropped = report.schedule.dropped
    assert min(dropped) < 64 <= max(dropped)
    assert shapes == [(64, 4), (6, 4), (4,)]
    q = np.uint64(report.config["q"])
    total = np.zeros(3, dtype=np.uint64)
    for i in report.result.contributors:
        total = (total + encode_vec(report.inputs[i])) % q
    assert np.array_equal(total, report.result.field_sum)


def test_lwe_round_reuses_the_matrix_expanded_in_setup(monkeypatch):
    cfg = RoundConfig(protocol="lwe", n=4, m=6, lwe=LweParams(
        n_lwe=8, sigma=1e-6, matrix_seed=b"\x07" * 32))
    lwe_matrix_ops(cfg.lwe, cfg.m, cfg.field)
    expansions = []
    expand = masking.lwe_matrix

    def counting(*args):
        expansions.append(args)
        return expand(*args)

    monkeypatch.setattr(masking, "lwe_matrix", counting)
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=2))
    assert report.failure is None
    assert expansions == []
    # the count does see an expansion the set-up did not make
    lwe_matrix_ops(dataclasses.replace(cfg.lwe, matrix_seed=b"\x08" * 32),
                   cfg.m, cfg.field)
    assert len(expansions) == 1


@pytest.mark.parametrize("q", [17, 127, M61, (1 << 63) - 25])
@pytest.mark.parametrize("sigma", [3.0, 1e15])
def test_lwe_masking_pass_equals_lwe_mask(q, sigma):
    # h = enc_w + A.s + e, formed in one pass, against lwe_mask over the
    # mat_vec_mod oracle and gaussian_error's draws from the same rng
    # state.  Rows 0-3 hold enc_w = q - 1 and A.s = q - 1, row 4 an
    # all-(q - 1) row of A; at sigma 1e15 |e| spans about 50 bits
    field = FieldPrime(q)
    m, n_lwe = 40, 8
    cfg = RoundConfig(protocol="lwe", n=3, m=m, field=field,
                      fp=FixedPointConfig(frac_bits=1, clip_magnitude=1.0),
                      lwe=LweParams(n_lwe=n_lwe, sigma=sigma))
    g = np.random.default_rng(q % 1009)
    w = g.uniform(-1, 1, m)
    w[:4] = -0.5  # code -1, that is q - 1
    rng = np.random.default_rng(11)
    ctx = RoundContext()
    client = LweClient(0, cfg, w, rng, ctx)
    s = client.s
    j = np.flatnonzero(s)[0]
    A = g.integers(0, q, size=(m, n_lwe), dtype=np.uint64)
    A[:4] = 0
    A[:4, j] = (q - 1) * pow(int(s[j]), q - 2, q) % q
    A[4] = q - 1
    ctx.matrix_ops = LweMatrixOps(A, field)
    assert (mat_vec_mod(A, s, field)[:4] == q - 1).all()
    assert (client.enc_w[:4] == q - 1).all()
    twin, draws = np.random.default_rng(), np.random.default_rng()
    twin.bit_generator.state = draws.bit_generator.state = \
        rng.bit_generator.state
    assert (gaussian_draws(sigma, m, draws)[:4] < 0).any()
    (_, msg), = client.emit_masked()
    e = gaussian_error(sigma, m, twin, field)
    assert msg.payload.vec.tolist() == lwe_mask(client.enc_w, s, e, A,
                                                field).tolist()
    # the rng sits where gaussian_error leaves it
    assert rng.integers(1 << 62) == twin.integers(1 << 62)


def test_pw_no_dropout_exact():
    report = run("pw", n=4, m=3, seed=8, dh=DH_GROUP_TEST)
    expected = plaintext_aggregate(report.inputs, report.result.contributors)
    assert np.max(np.abs(report.result.average - expected)) <= 2 ** -16


def test_pw_dropout_before_masked_broadcast():
    report = run("pw", n=4, m=3, t=3, seed=9, rate=0.25,
                 stage="masked_vector", dh=DH_GROUP_TEST)
    assert report.failure is None
    assert len(report.result.contributors) == 3
    expected = plaintext_aggregate(report.inputs, report.result.contributors)
    assert np.max(np.abs(report.result.average - expected)) <= 2 ** -16


def test_pw_dropout_after_masked_broadcast_keeps_contributor():
    report = run("pw", n=5, m=3, seed=10, rate=0.2, stage="unmask_shares",
                 dh=DH_GROUP_TEST)
    assert report.failure is None
    # the dropped client's vector was delivered, so it still counts
    assert set(report.schedule.dropped) <= set(report.result.contributors)
    expected = plaintext_aggregate(report.inputs, report.result.contributors)
    assert np.max(np.abs(report.result.average - expected)) <= 2 ** -16


def test_pw_minimal_config_and_rejects_below():
    report = run("pw", n=3, m=2, t=2, seed=11, dh=DH_GROUP_TEST)
    assert report.failure is None
    with pytest.raises(BadThreshold):
        RoundConfig(protocol="pw", n=2, m=2, t=1, dh=DH_GROUP_TEST)


def test_pw_pairwise_masks_cancel_in_sum():
    # personal masking off, nobody drops: the sum of broadcast vectors is
    # already the sum of the encoded inputs
    cfg = RoundConfig(protocol="pw", n=3, m=4, dh=DH_GROUP_TEST,
                      personal_mask=False)
    sim = SimConfig(round_cfg=cfg, master_seed=12)
    report = run_simulation(sim, keep_transcript=True)
    ys = {}
    for rcpt, msg in report.transcript:
        if msg.kind == MsgKind.MASKED_VECTOR:
            ys[msg.sender] = msg.payload.vec
    q = np.uint64(cfg.field.q)
    y_total = np.zeros(4, dtype=np.uint64)
    w_total = np.zeros(4, dtype=np.uint64)
    for i in range(3):
        y_total = (y_total + ys[i]) % q
        w_total = (w_total + encode_vec(report.inputs[i])) % q
    assert np.array_equal(y_total, w_total)


def test_pack_width_validation():
    with pytest.raises(BadPacking):
        RoundConfig(protocol="nv", n=5, m=4, t=3, k=4)
    cfg = RoundConfig(protocol="nv", n=10, m=4, planned_dropouts=3)
    assert cfg.k == 10 - 3 - 6 + 1


@pytest.mark.parametrize("proto", ["nv", "lwe", "pw"])
def test_round_config_needs_a_coordinate_and_a_pack_width(proto):
    # an empty model used to "succeed" with an empty average, and k=0 or a
    # negative m or k to crash run_simulation with a bare numpy or
    # ZeroDivisionError
    for m in (0, -3):
        with pytest.raises(ValueError, match="at least 1 coordinate"):
            RoundConfig(protocol=proto, n=5, m=m)
    for k in (0, -2):
        with pytest.raises(BadPacking, match="at least 1, got k="):
            RoundConfig(protocol=proto, n=5, m=4, k=k)


@pytest.mark.parametrize("proto,n", [("nv", 5), ("lwe", 5), ("pw", 7)])
def test_round_config_rejects_share_points_that_wrap(proto, n):
    # over F7 a clip below 0.25 encodes to 0, so the capacity check passes,
    # but the last share point (k+n, or n for pw's plain sharing) reaches
    # q: run_simulation used to meet it as an untyped ValueError
    fp = FixedPointConfig(frac_bits=1, clip_magnitude=0.2)
    kw = dict(protocol=proto, m=3, field=FieldPrime(7), fp=fp,
              dh=DH_GROUP_TEST if proto == "pw" else None)
    with pytest.raises(ValueError, match="wrap mod q=7"):
        RoundConfig(n=n, **kw)
    # one client fewer puts the last point at q - 1, and the round runs;
    # lwe's noise may leave F7's decode band, a typed failure
    report = run_simulation(SimConfig(round_cfg=RoundConfig(n=n - 1, **kw),
                                      master_seed=3))
    assert report.failure is None or proto == "lwe"


@given(proto=st.sampled_from(["nv", "lwe", "pw"]), n=st.integers(2, 12),
       m=st.integers(1, 4), q=st.sampled_from([7, 17, 127, 1019, M61]),
       frac_bits=st.integers(1, 3), clip=st.floats(0.1, 3.0),
       rate=st.floats(0.0, 0.9), seed=st.integers(0, 99))
@settings(max_examples=300, deadline=None)
def test_small_configs_end_in_a_result_or_a_typed_failure(
        proto, n, m, q, frac_bits, clip, rate, seed):
    try:
        cfg = RoundConfig(
            protocol=proto, n=n, m=m, field=FieldPrime(q),
            fp=FixedPointConfig(frac_bits=frac_bits, clip_magnitude=clip),
            dh=DH_GROUP_TEST if proto == "pw" else None)
    except (ValueError, SecAggError):
        return  # rejected at construction
    # any other exception escapes run_simulation and fails the test
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=seed,
                                      dropout_rate=rate), keep_transcript=True)
    # the schedule alone says how the round ends; lwe's noise may also
    # leave the decode band
    failure, contributors = expected_outcome(cfg, report.schedule)
    got = None if report.failure is None else report.failure.split(":")[0]
    if (proto, got, failure) == ("lwe", "DecodeRange", None):
        return
    assert got == failure, report.failure
    if report.failure is not None:
        return
    assert report.result.contributors == contributors
    if report.result.exact:
        inputs = [np.clip(v, -clip, clip) for v in report.inputs]
        expected = plaintext_aggregate(inputs, report.result.contributors)
        assert np.max(np.abs(report.result.average - expected)) \
            <= 2.0 ** -frac_bits


@pytest.mark.parametrize("ids", [(0, 0, 1, 2, 3, 4), (0, 1, 5), (2, 1)])
@pytest.mark.parametrize("proto", ["nv", "lwe", "pw"])
def test_contributor_set_of_other_than_increasing_ids_is_unexpected(
        proto, ids, monkeypatch):
    # announced with client 0 twice, nv counted 0's input twice (0.2667
    # for a true mean of 0.3) and lwe and pw ended in DecodeRange
    control = MessageBus.control

    def forged(self, stage, msg):
        return control(self, stage, dataclasses.replace(
            msg, payload=ContributorSetPayload(ids)))

    monkeypatch.setattr(MessageBus, "control", forged)
    cfg = RoundConfig(protocol=proto, n=5, m=3, lwe=SMALL_LWE
                      if proto == "lwe" else None,
                      dh=DH_GROUP_TEST if proto == "pw" else None)
    inputs = [np.full(cfg.m, 0.1 * i) for i in range(cfg.n)]
    with pytest.raises(UnexpectedMessage) as raised:
        ROUND_FNS[proto](inputs, cfg, MessageBus(cfg, master_seed=2))
    assert str(raised.value) == \
        f"client 0: contributor set {ids} is not increasing ids below 5"


def test_round_determinism():
    import json
    a = run("nv", n=6, m=5, seed=13, rate=0.3)
    b = run("nv", n=6, m=5, seed=13, rate=0.3)
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time"), db.pop("wall_time")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


# --- scripted pairwise scenarios ---------------------------------------------------


def deliver(clients, outbox, live=None):
    """Hand every (recipients, message) entry of outbox to each of its
    recipients below live (all of them by default), in order, as a
    one-message inbox."""
    for rcpts, msg in outbox:
        for rcpt in rcpts:
            if live is None or rcpt < live:
                clients[rcpt].on_message([msg])


def drive_pw_setup(n=4, m=3, seed=0, withhold=None):
    """Every client's setup messages reach every peer, except that client
    0 never receives the message of kind withhold from client 3."""
    cfg = RoundConfig(protocol="pw", n=n, m=m, dh=DH_GROUP_TEST)
    rngs = [np.random.default_rng(seed + i) for i in range(n)]
    ws = [np.ones(m) * (i + 1) for i in range(n)]
    ctx = RoundContext()
    clients = [PwClient(i, cfg, ws[i], rngs[i], ctx) for i in range(n)]
    outboxes = [c.start() for c in clients]
    for outbox in outboxes:
        for rcpts, msg in outbox:
            if (msg.sender, msg.kind) == (3, withhold):
                rcpts = tuple(r for r in rcpts if r != 0)
            deliver(clients, [(rcpts, msg)])
    return cfg, clients


def test_pw_contributor_without_a_masked_vector_is_a_typed_failure():
    # the contributor set names client 3, whose masked vector never came
    cfg, clients = drive_pw_setup()
    for c in clients[:3]:
        deliver(clients, c.emit_masked(), live=3)
    clients[0].on_message([contributor_set_msg((0, 1, 2, 3))])
    with pytest.raises(InsufficientContributors,
                       match=r"client 0: masked vectors missing from \[3\]"):
        clients[0].finalize()


def test_pw_unmask_without_a_dropped_peers_key_share_is_a_typed_failure():
    # client 3 drops after setup, but its key share never reached client 0
    cfg, clients = drive_pw_setup(withhold=MsgKind.KEY_SHARE)
    for c in clients[:3]:
        deliver(clients, c.emit_masked(), live=3)
    assert clients[1].on_message([contributor_set_msg((0, 1, 2))])
    with pytest.raises(MissingKeyShares, match=r"client 0: .*\[3\]"):
        clients[0].on_message([contributor_set_msg((0, 1, 2))])


def test_pw_contributor_set_with_dropout_emits_key_unmask_share():
    # scripted 4-client scenario: client 3 finished setup but never
    # broadcast its masked vector
    from secaggsim.protocol import SECRET_DH_KEY, SECRET_PERSONAL_SEED
    cfg, clients = drive_pw_setup()
    for c in clients[:3]:
        deliver(clients, c.emit_masked(), live=3)
    cs = ProtocolMessage(kind=MsgKind.CONTRIBUTOR_SET, sender=BUS_SENDER,
                         round=0, payload=ContributorSetPayload((0, 1, 2)))
    out = clients[0].on_message([cs])
    # one unmask broadcast, to the three peers
    assert [rcpts for rcpts, _ in out] == [(1, 2, 3)]
    names = out[0][1].payload.names
    key_targets = [target for kind, target, _ in names
                   if kind == SECRET_DH_KEY]
    seed_targets = [target for kind, target, _ in names
                    if kind == SECRET_PERSONAL_SEED]
    # the stored share of the dropped peer's DH key is opened, and the
    # personal seeds of the three contributors
    assert key_targets == [3]
    assert seed_targets == [0, 1, 2]


def test_pw_safety_guard_never_opens_both_secrets():
    from secaggsim.errors import SafetyViolation
    cfg, clients = drive_pw_setup()
    target = clients[0]
    # sabotage the classification so client 3 looks dropped *and*
    # contributing; the guard must refuse to open both of its secrets
    target._classify = lambda: ((), (3,))
    with pytest.raises(SafetyViolation):
        target.on_message([contributor_set_msg((0, 1, 2, 3))])


def unmask_entries(payload):
    """(name, chunks) of every entry of an unmask payload, in order."""
    ends = np.cumsum([count for *_, count in payload.names])
    return list(zip(payload.names, np.split(payload.row, ends[:-1])))


def unmask_payload(entries):
    """The unmask payload of (name, chunks) entries, in order."""
    return UnmaskPayload(tuple(name for name, _ in entries),
                         np.concatenate([chunks for _, chunks in entries]))


def drive_pw_to_unmask(forge=None):
    """Client 3 drops after setup; clients 0-2 mask, get the contributor
    set and exchange unmask shares.  forge(entries) may rewrite the
    (name, chunks) entries of what client 1 sends to client 0."""
    cfg, clients = drive_pw_setup()
    for c in clients[:3]:
        deliver(clients, c.emit_masked(), live=3)
    cs = ProtocolMessage(kind=MsgKind.CONTRIBUTOR_SET, sender=BUS_SENDER,
                         round=0, payload=ContributorSetPayload((0, 1, 2)))
    unmask = [(rcpt, msg) for c in clients[:3]
              for rcpts, msg in c.on_message([cs]) for rcpt in rcpts]
    for rcpt, msg in unmask:
        if rcpt < 3:
            if forge is not None and (msg.sender, rcpt) == (1, 0):
                msg = ProtocolMessage(msg.kind, msg.sender, msg.round,
                                      unmask_payload(forge(
                                          unmask_entries(msg.payload))))
            clients[rcpt].on_message([msg])
    return cfg, clients


def test_pw_unmask_opens_every_secret_in_one_call():
    cfg, clients = drive_pw_to_unmask()
    sums = [clients[i].finalize().field_sum for i in range(3)]
    enc = [encode_vec(np.ones(cfg.m) * (i + 1), cfg.fp, cfg.field) for i in range(3)]
    assert all(s.tolist() == [sum(int(e[j]) for e in enc) % cfg.field.q
                              for j in range(cfg.m)] for s in sums)


def test_pw_unmask_naming_other_secrets_raises():

    def retarget(entries):  # client 1 claims to open client 2's key instead
        return [((kind, 2 if target == 3 else target, count), chunks)
                for (kind, target, count), chunks in entries]

    def reorder(entries):
        return entries[::-1]

    for forge in (retarget, reorder, lambda entries: entries[1:]):
        _, clients = drive_pw_to_unmask(forge)
        with pytest.raises(UnmaskMismatch, match="from 1"):
            clients[0].finalize()
        clients[1].finalize()  # what client 1 received was untouched
    assert issubclass(UnmaskMismatch, ProtocolError)


# --- typed failures inside a round -------------------------------------------------


def test_nan_input_rejected_before_sharing():
    cfg = nv_cfg(n=5, m=4, t=3)
    inputs = [np.ones(4) for _ in range(5)]
    inputs[2] = np.array([0.5, np.nan, 0.0, 1.0])
    with pytest.raises(NonFiniteInput):
        nv_round(inputs, cfg, MessageBus(cfg, master_seed=1))


def test_divergent_survivors_raise_typed_error(monkeypatch):
    finalize = NvClient.finalize

    def skewed(self):
        result = finalize(self)
        if self.id == 3:
            result = dataclasses.replace(
                result, field_sum=result.field_sum ^ np.uint64(1))
        return result

    monkeypatch.setattr(NvClient, "finalize", skewed)
    cfg = nv_cfg(n=5, m=4, t=3)
    with pytest.raises(DivergentAggregate, match="survivors 0 and 3"):
        nv_round([np.ones(4)] * 5, cfg, MessageBus(cfg, master_seed=1))
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=1))
    assert report.result is None
    assert report.failure.startswith("DivergentAggregate")


# Five clients at clip 1 with 2 fractional bits fill F_41 exactly
# (2 * 5 * 4 = q - 1): every field sum decodes, so a survivor that opened
# a wrong sum can only show it by disagreeing with the others.
WHOLE_BAND = dict(n=5, field=FieldPrime(41),
                  fp=FixedPointConfig(frac_bits=2, clip_magnitude=1.0))


def corrupt_share_payload(monkeypatch, client_cls, kind, forge):
    """Client 3's inbox holds forge(payload) for client 1's payload of
    kind."""
    on_message = client_cls.on_message

    def corrupt(self, inbox):
        if self.id == 3:
            inbox = [dataclasses.replace(msg, payload=forge(msg.payload))
                     if (msg.sender, msg.kind) == (1, kind) else msg
                     for msg in inbox]
        return on_message(self, inbox)

    monkeypatch.setattr(client_cls, "on_message", corrupt)


def corrupt_sum_share(monkeypatch, client_cls, kind):
    """Client 3 receives client 1's summed share plus one."""
    q = np.uint64(WHOLE_BAND["field"].q)
    corrupt_share_payload(monkeypatch, client_cls, kind, lambda p: (
        dataclasses.replace(p, vec=(p.vec + np.uint64(1)) % q)))


def test_lwe_survivor_with_corrupted_sum_share_diverges(monkeypatch):
    corrupt_sum_share(monkeypatch, LweClient, MsgKind.SECRET_SUM_SHARE)
    cfg = RoundConfig(protocol="lwe", m=8, lwe=SMALL_LWE, **WHOLE_BAND)
    # t + k - 1 = n, so every summed share, the corrupted one included,
    # enters each survivor's reconstruction of s_sum
    assert cfg.t + cfg.k - 1 == cfg.n
    with pytest.raises(DivergentAggregate, match="survivors 0 and 3"):
        lwe_round([np.zeros(8)] * 5, cfg, MessageBus(cfg, master_seed=1))
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=1))
    assert report.result is None
    assert report.failure.startswith("DivergentAggregate: survivors 0 and 3")


def test_nv_survivor_with_corrupted_sum_share_diverges(monkeypatch):
    # the survivors share one opening of the summed shares only when they
    # hold the same ones; client 3's corrupted share makes it reopen
    corrupt_sum_share(monkeypatch, NvClient, MsgKind.AGGREGATED_SHARE_VECTOR)
    cfg = RoundConfig(protocol="nv", m=8, **WHOLE_BAND)
    assert cfg.t + cfg.k - 1 == cfg.n
    with pytest.raises(DivergentAggregate, match="survivors 0 and 3"):
        nv_round([np.zeros(8)] * 5, cfg, MessageBus(cfg, master_seed=1))


def round_contexts(monkeypatch) -> list:
    """Every RoundContext a round builds from now on."""
    made = []

    class Recorded(RoundContext):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr("secaggsim.protocol.rounds.RoundContext", Recorded)
    return made


def plus_one_at_0(p):
    """A new masked-vector payload: p's vector with its first element plus
    one."""
    vec = p.vec.copy()
    vec[0] = (int(vec[0]) + 1) % M61
    return VectorPayload(vec)


@pytest.mark.parametrize("proto", ["lwe", "pw"])
@pytest.mark.parametrize("forged", [False, True], ids=["honest", "forged"])
def test_survivors_share_one_masked_sum_per_view(monkeypatch, proto, forged):
    # the masked-vector sum is memoized under the (sender, payload) pairs a
    # survivor holds: one sum for the survivors that hold the same payloads,
    # and a second for client 3, which holds a forged one from client 1
    client_cls = {"lwe": LweClient, "pw": PwClient}[proto]
    cfg = RoundConfig(protocol=proto, n=5, m=8,
                      lwe=SMALL_LWE if proto == "lwe" else None,
                      dh=DH_GROUP_TEST if proto == "pw" else None)
    contexts = round_contexts(monkeypatch)
    if forged:
        corrupt_share_payload(monkeypatch, client_cls, MsgKind.MASKED_VECTOR,
                              plus_one_at_0)
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=1))
    (ctx,) = contexts
    sums = [v for key, v in ctx.memo.items() if key[0] == "masked-sum"]
    assert len(sums) == 1 + forged
    assert not any(v.flags.writeable for v in sums)
    if forged:
        assert report.result is None
        assert report.failure.startswith(
            "DivergentAggregate: survivors 0 and 3"), report.failure
    else:
        assert report.failure is None


@pytest.mark.parametrize("proto", ["nv", "lwe", "pw"])
def test_survivors_share_one_finalize_per_view(monkeypatch, proto):
    # without dropout every survivor holds the same view: one decode (and
    # for lwe one unmasking subtraction) serves all, and every survivor
    # returns the same result object
    client_cls = {"nv": NvClient, "lwe": LweClient, "pw": PwClient}[proto]
    calls = {"decode_vec": 0, "sub_mod": 0}
    for name in calls:
        original = getattr(clients_module, name)

        def counting(*args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(clients_module, name, counting)
    results = []
    finalize = client_cls.finalize

    def recording(self):
        results.append(finalize(self))
        return results[-1]

    monkeypatch.setattr(client_cls, "finalize", recording)
    cfg = RoundConfig(protocol=proto, n=5, m=8,
                      lwe=SMALL_LWE if proto == "lwe" else None,
                      dh=DH_GROUP_TEST if proto == "pw" else None)
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=1))
    assert report.failure is None
    assert calls == {"decode_vec": 1, "sub_mod": int(proto == "lwe")}
    assert len(results) == cfg.n
    assert all(r is report.result for r in results)


@pytest.mark.parametrize("proto", ["lwe", "pw"])
@pytest.mark.parametrize("length", [3, 7])
def test_masked_vector_of_the_wrong_length_is_a_point_mismatch(
        monkeypatch, proto, length):
    # client 3 receives client 1's masked vector cut or padded to length
    # coordinates of 6; the receive pass rejects it before any sum reads it
    client_cls = {"lwe": LweClient, "pw": PwClient}[proto]
    cfg = RoundConfig(protocol=proto, n=5, m=6,
                      lwe=SMALL_LWE if proto == "lwe" else None,
                      dh=DH_GROUP_TEST if proto == "pw" else None)
    corrupt_share_payload(monkeypatch, client_cls, MsgKind.MASKED_VECTOR,
                          lambda p: VectorPayload(np.resize(p.vec, length)))
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=1))
    assert report.result is None
    assert report.failure == (f"PointMismatch: client 3: MASKED_VECTOR "
                              f"header ({length},) from 1 != (6,)")


# a share bundle (the share stage) or a summed share's payload
def one_chunk_too_few(p):
    if isinstance(p, ShareBundlePayload):
        return dataclasses.replace(p, rows=p.rows[:, :-1])
    return dataclasses.replace(p, vec=p.vec[:-1])


def other_threshold(p):
    vec_len, t, k = p.extra
    return dataclasses.replace(p, extra=(vec_len, t - 1, k))


@pytest.mark.parametrize("proto,kinds", [
    ("nv", (MsgKind.INPUT_SHARE_VECTOR, MsgKind.AGGREGATED_SHARE_VECTOR)),
    ("lwe", (MsgKind.KEY_SHARE, MsgKind.SECRET_SUM_SHARE)),
])
@pytest.mark.parametrize("forge", [one_chunk_too_few, other_threshold])
def test_malformed_share_header_is_a_point_mismatch(monkeypatch, proto, kinds,
                                                     forge):
    client_cls = NvClient if proto == "nv" else LweClient
    cfg = RoundConfig(protocol=proto, n=5, m=300, t=3, k=2,
                      lwe=SMALL_LWE if proto == "lwe" else None)
    for kind in kinds:
        with monkeypatch.context() as mp:
            corrupt_share_payload(mp, client_cls, kind, forge)
            report = run_simulation(SimConfig(round_cfg=cfg, master_seed=1))
        assert report.result is None
        assert report.failure.startswith("PointMismatch: client 3"), \
            report.failure


def one_chunk_too_many(p):
    return dataclasses.replace(p, rows=np.hstack([p.rows, p.rows[:, :1]]))


def no_row_for_client_3(p):
    return dataclasses.replace(p, rows=p.rows[:3])


@pytest.mark.parametrize("proto,kind,forge", [
    ("nv", MsgKind.INPUT_SHARE_VECTOR, no_row_for_client_3),
    ("lwe", MsgKind.KEY_SHARE, no_row_for_client_3),
    *[("pw", kind, forge)
      for kind in (MsgKind.KEY_SHARE, MsgKind.PERSONAL_SEED_SHARE)
      for forge in (one_chunk_too_few, one_chunk_too_many,
                    no_row_for_client_3)],
], ids=lambda v: getattr(v, "name", None))
def test_malformed_share_bundle_is_a_point_mismatch(monkeypatch, proto, kind,
                                                    forge):
    # a pw bundle must hold chunk_count(width, chunk_bits_for(field)) chunks
    # of its key or seed, and every bundle a row for its recipient
    client_cls = {"nv": NvClient, "lwe": LweClient, "pw": PwClient}[proto]
    extra = {"lwe": dict(k=2, lwe=SMALL_LWE), "nv": dict(k=2),
             "pw": dict(dh=DH_GROUP_TEST)}[proto]
    cfg = RoundConfig(protocol=proto, n=5, m=8, t=3, **extra)
    corrupt_share_payload(monkeypatch, client_cls, kind, forge)
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=1))
    assert report.result is None
    assert report.failure.startswith("PointMismatch: client 3"), \
        report.failure
    assert "from 1" in report.failure


def test_nv_opened_sum_is_read_only():
    cfg = nv_cfg(n=5, m=4, t=3)
    result = nv_round([np.ones(4)] * 5, cfg, MessageBus(cfg, master_seed=1))
    assert not result.field_sum.flags.writeable
    with pytest.raises(ValueError):
        result.field_sum[0] = 0


def test_pw_survivor_with_other_public_key_diverges(monkeypatch):
    finalize = PwClient.finalize

    def skewed(self):
        # the last survivor sees another subgroup residue as the first
        # contributor's public key
        if self.id == max(self.contributors):
            pks = self.got[MsgKind.PUB_KEY]
            j = self.contributors[0]
            pks[j] = dataclasses.replace(
                pks[j], residue=pks[j].residue * DH_GROUP_TEST.g % DH_GROUP_TEST.p)
        return finalize(self)

    monkeypatch.setattr(PwClient, "finalize", skewed)
    cfg = RoundConfig(protocol="pw", m=8, dh=DH_GROUP_TEST,
                      planned_dropouts=1, **WHOLE_BAND)
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=4,
                                      dropout_rate=0.2,
                                      dropout_stage_policy="masked_vector"))
    assert len(report.schedule.dropped) == 1
    assert report.result is None
    assert report.failure.startswith("DivergentAggregate")


def corrupt_first_unmask_entry(monkeypatch, forge):
    """Client 3 receives client 1's unmask payload with the chunks of its
    first entry (contributor 0's seed share) replaced by forge(chunks)."""

    def forge_payload(p):
        (name, chunks), *rest = unmask_entries(p)
        payload = unmask_payload([(name, forge(chunks)), *rest])
        assert payload.names == p.names
        return payload

    corrupt_share_payload(monkeypatch, PwClient, MsgKind.UNMASK_SHARE,
                          forge_payload)


def test_pw_survivor_with_corrupted_unmask_row_diverges(monkeypatch):
    # survivors share one opening of the unmasked secrets only when they
    # hold the same rows; client 3 gets client 1's row with one chunk
    # plus one under the same names, so it must reopen
    q = np.uint64(WHOLE_BAND["field"].q)

    def lowest_plus_one(chunks):
        chunks = chunks.copy()  # its lowest chunk comes last
        chunks[-1] = (chunks[-1] + np.uint64(1)) % q
        return chunks

    corrupt_first_unmask_entry(monkeypatch, lowest_plus_one)
    cfg = RoundConfig(protocol="pw", m=8, dh=DH_GROUP_TEST, **WHOLE_BAND)
    # t = 3: the rows of openers 0, 1 and 2 give every secret
    assert cfg.t == 3
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=4))
    assert report.result is None
    assert report.failure.startswith("DivergentAggregate: survivors 0 and 3")


def test_pw_unmask_row_opening_a_too_wide_seed_is_a_typed_failure(monkeypatch):
    # every chunk plus one: client 3 opens a chunk at or above 2^5 on F_41
    q = np.uint64(WHOLE_BAND["field"].q)
    corrupt_first_unmask_entry(monkeypatch,
                               lambda chunks: (chunks + np.uint64(1)) % q)
    cfg = RoundConfig(protocol="pw", m=8, dh=DH_GROUP_TEST, **WHOLE_BAND)
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=4))
    assert report.result is None
    assert report.failure.startswith("SecretOutOfRange")


@pytest.mark.parametrize("proto,kind", [
    ("nv", MsgKind.INPUT_SHARE_VECTOR),
    ("lwe", MsgKind.KEY_SHARE),
    ("pw", MsgKind.KEY_SHARE),
], ids=["nv", "lwe", "pw"])
def test_recipient_reads_only_its_own_bundle_row(monkeypatch, proto, kind):
    # t + k - 1 = n for nv and lwe, so client 3's share enters the opening;
    # in pw clients 0 and 1 drop after setup, so the key of client 1 opens
    # from the rows of survivors 2, 3 and 4, at t = 3
    extra = {"lwe": dict(lwe=SMALL_LWE), "pw": dict(dh=DH_GROUP_TEST)}
    cfg = RoundConfig(protocol=proto, m=8, **extra.get(proto, {}),
                      **WHOLE_BAND)
    drops = {0: "masked_vector", 1: "masked_vector"} if proto == "pw" else {}
    inputs = [np.full(cfg.m, (i - 2) / 4) for i in range(cfg.n)]

    def field_sum():
        bus = MessageBus(cfg, master_seed=1,
                         schedule=DropoutSchedule(stages=drops))
        return ROUND_FNS[proto](inputs, cfg, bus).field_sum

    clean = field_sum()
    q = np.uint64(cfg.field.q)

    def all_rows_but_3_plus_one(p):
        rows = (p.rows + np.uint64(1)) % q
        rows[3] = p.rows[3]
        return dataclasses.replace(p, rows=rows)

    client_cls = {"nv": NvClient, "lwe": LweClient, "pw": PwClient}[proto]
    corrupt_share_payload(monkeypatch, client_cls, kind,
                          all_rows_but_3_plus_one)
    assert np.array_equal(field_sum(), clean)
    if proto != "lwe":  # nv and pw are exact
        contributors = [i for i in range(cfg.n) if i not in drops]
        oracle = sum(encode_vec(inputs[i], cfg.fp, cfg.field).astype(int)
                     for i in contributors) % cfg.field.q
        assert clean.tolist() == oracle.tolist()


def test_sub_unit_clip_nv_round():
    cfg = nv_cfg(n=5, m=8, fp=FixedPointConfig(clip_magnitude=0.5))
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=0),
                            keep_transcript=True)
    assert report.failure is None
    clipped = [np.clip(x, -0.5, 0.5) for x in report.inputs]
    expect = plaintext_aggregate(clipped, report.result.contributors)
    assert np.max(np.abs(report.result.average - expect)) <= 2 ** -16


def test_decode_range_in_lwe_round_lands_in_report():
    # one fractional bit leaves the noise no headroom in the decode band
    cfg = RoundConfig(protocol="lwe", n=5, m=20,
                      fp=FixedPointConfig(frac_bits=1, clip_magnitude=1.0),
                      lwe=LweParams(n_lwe=16, sigma=3.0))
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=0))
    assert report.result is None
    assert report.failure.startswith("DecodeRange")


# --- golden transcripts ------------------------------------------------------------

# SHA-256 over (recipient as 4 bytes, wire bytes) of every delivered message
# of a seed-11 run with 30% dropout.  Any change to a share, a mask, a draw
# order or the wire encoding changes these.  The lwe and pw digests are
# those of the SHAKE-128 mask streams.
GOLDEN_TRANSCRIPTS = {
    "nv": ("622b0b2c7b63996b7fb65ae4bc00e988bf52b7904acc8dd1052cef563fc1d0a1",
           dict(m=300, k=2)),
    "lwe": ("3ffa850d0f586d09fa31e82e0a3dc575da8dd98a9037296ed36b0c3486f05e88",
            dict(m=40, k=2, lwe=LweParams(n_lwe=200))),
    "pw": ("7cacea457636a669723a3e1d79907d44a1f337ed38aad1b4b5f0417b0aa7d2e6",
           dict(m=23, dh=DH_GROUP_TEST)),
}


@pytest.mark.parametrize("proto", sorted(GOLDEN_TRANSCRIPTS))
def test_transcript_matches_golden_digest(proto):
    digest, kw = GOLDEN_TRANSCRIPTS[proto]
    cfg = RoundConfig(protocol=proto, n=7, planned_dropouts=2, **kw)
    report = run_simulation(SimConfig(round_cfg=cfg, master_seed=11,
                                      dropout_rate=0.3), keep_transcript=True)
    assert report.failure is None and len(report.schedule.dropped) == 2
    h = hashlib.sha256()
    for rcpt, msg in report.transcript:
        h.update(rcpt.to_bytes(4, "big"))
        h.update(msg.to_bytes())
    assert h.hexdigest() == digest


# --- block sharing in the round context --------------------------------------------


@pytest.mark.parametrize("columns,sizes", [
    (1, [64, 64, 2]),                           # cut at 64 clients
    (6, [SHARE_BLOCK_COLUMNS // 6] * 6 + [4]),  # cut at the column budget
    (SHARE_BLOCK_COLUMNS + 1, [1] * 130),       # one client too wide
])
def test_context_blocks_equal_per_client_sharings(columns, sizes):
    # every client asks for its rows, except the last of each block of two
    # or more, which never shares: its rng must be left as it was
    cfg = RoundConfig(protocol="nv", n=7, m=4 * columns, t=3, k=4)
    clients = sum(sizes)
    g = np.random.default_rng(50)
    vecs = [g.integers(0, cfg.field.q, size=cfg.m, dtype=np.uint64)
            for _ in range(clients)]
    rngs = [np.random.default_rng(60 + i) for i in range(clients)]
    own_rngs = [np.random.default_rng(60 + i) for i in range(clients)]
    blocks = []

    def share(pairs):
        blocks.append(len(pairs))
        return share_vector(pairs, cfg.t, cfg.n, cfg.k, field=cfg.field)

    ctx = RoundContext()
    assert [ctx.register(v, r) for v, r in zip(vecs, rngs)] == \
        list(range(clients))
    last = {end - 1 for end, size in zip(np.cumsum(sizes), sizes) if size > 1}
    for i in range(clients):
        if i in last:
            continue
        own = share_vector(vecs[i], cfg.t, cfg.n, cfg.k, own_rngs[i],
                           cfg.field)
        assert ctx.share_rows(i, share, block_size(columns)).tolist() == \
            own.tolist()
    assert blocks == sizes
    assert [r.bit_generator.state for r in rngs] == \
        [r.bit_generator.state for r in own_rngs]


@pytest.mark.parametrize("proto,stage", [("nv", "input_shares"),
                                         ("pw", "setup")])
def test_client_dropped_before_sharing_draws_no_anchors(proto, stage):
    # client 2 drops before it shares, in the block of every client; its
    # generator holds what its set-up drew and nothing more, and every
    # other client's drew its own anchors
    cfg = RoundConfig(protocol=proto, n=5, m=3, planned_dropouts=1,
                      dh=DH_GROUP_TEST if proto == "pw" else None)
    bus = MessageBus(cfg, master_seed=7,
                     schedule=DropoutSchedule(stages={2: stage}))
    ROUND_FNS[proto]([np.zeros(cfg.m)] * cfg.n, cfg, bus)
    for cid in range(cfg.n):
        own = np.random.Generator(np.random.PCG64(client_seed(7, cid)))
        if proto == "pw":
            client = PwClient(cid, cfg, np.zeros(cfg.m), own, RoundContext())
            if cid != 2:
                share_integer([client.keypair.sk, int.from_bytes(
                    client.personal_seed, "big")], [9, 256], cfg.t, cfg.n,
                    own, cfg.field)
        elif cid != 2:
            share_vector(np.zeros(cfg.m), cfg.t, cfg.n, cfg.k, own, cfg.field)
        assert bus.client_rng(cid).bit_generator.state == \
            own.bit_generator.state


@pytest.mark.parametrize("field", [FieldPrime(M61), FieldPrime(7),
                                   FieldPrime((1 << 63) - 25)])
@pytest.mark.parametrize("terms", [63, 64, 65])
def test_signed_mask_blocks_equal_a_per_term_loop(field, terms):
    # one signed block per tag, summed into one accumulator, against v
    # plus or minus each stream in turn; F7 streams hold many zeros, which
    # a negated row holds as q
    g = np.random.default_rng(terms)
    m = 9
    v = g.integers(0, field.q, size=m, dtype=np.uint64)
    signed = [(int(g.choice([-1, 1])), g.bytes(32),
               masking.TAG_PERSONAL if i % 5 == 0 else masking.TAG_PAIRWISE)
              for i in range(terms)]
    want = v
    for sign, seed, tag in signed:
        stream = masking.stream_expand(seed, tag, m, field)
        want = (add_mod if sign > 0 else sub_mod)(want, stream, field)
    holder = SimpleNamespace(cfg=SimpleNamespace(m=m, field=field))
    got = PwClient._apply_masks(holder, v, signed)
    assert got.tolist() == want.tolist()
    assert PwClient._apply_masks(holder, v, []).tolist() == v.tolist()
