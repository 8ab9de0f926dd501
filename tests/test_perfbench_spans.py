"""The benchmark's span tracer wraps functions of the library by name, at
the attribute its callers look them up through.  A refactor that renames
or moves one of them breaks `perfbench/run.py --trace 1`; this catches it
in the test suite instead."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from secaggsim.masking import DH_GROUP_TEST, LweParams
from secaggsim.protocol import RoundConfig
from secaggsim.simnet import SimConfig, run_simulation

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_uninstall_restores_every_target():
    spans = load_spans()
    targets = [(owner, attr) for owner, attr, *_ in spans._targets()]
    before = [spans._get(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [spans._get(owner, attr) for owner, attr in targets]
        assert all(w.__wrapped__ is b for w, b in zip(wrapped, before))
        cfg = RoundConfig(protocol="pw", n=5, m=4, dh=DH_GROUP_TEST)
        report = tracer.root(spans.ROUND, run_simulation,
                             SimConfig(round_cfg=cfg, master_seed=3))
    finally:
        tracer.uninstall()
    assert report.failure is None
    assert all(spans._get(owner, attr) is b
               for (owner, attr), b in zip(targets, before))
    calls = Counter(s[0] for s in tracer.spans)
    # every client's key and personal seed, 6 columns each, are shared in
    # one block product; the survivors, holding the same unmask rows,
    # share one reconstruction of all the seeds
    assert calls["shamir.share_integer"] == 1
    assert calls["shamir.reconstruct_integer"] == 1
    # every client expands its personal stream as one batch and its n-1
    # pairwise ones, of both signs, as another; the survivors share one
    # batch of personal streams to remove
    assert calls["masking.stream_expand"] == \
        emit_batches(range(cfg.n), cfg.n) + 1
    # the bus meters each message from its shape; bytes are made only for
    # a recorded transcript, and this round records none
    assert calls["messages.serialize"] == 0


def emit_batches(contributors, n):
    """stream_expand calls of the masking step: one batch for a client's
    personal stream, and one per 64 of its n-1 pairwise streams, + to the
    peers above it and - to those below."""
    return len(contributors) * (1 + -(-(n - 1) // 64))


def traced_calls(cfg, **sim):
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = tracer.root(spans.ROUND, run_simulation,
                             SimConfig(round_cfg=cfg, master_seed=3, **sim))
    finally:
        tracer.uninstall()
    assert report.failure is None, report.failure
    return report, Counter(s[0] for s in tracer.spans)


@pytest.mark.parametrize("proto", ["nv", "lwe"])
def test_survivors_share_one_opening_of_the_summed_shares(proto):
    lwe = LweParams(n_lwe=8, sigma=1e-6, matrix_seed=b"\x05" * 32)
    cfg = RoundConfig(protocol=proto, n=5, m=6,
                      lwe=lwe if proto == "lwe" else None)
    _, calls = traced_calls(cfg)
    assert calls["shamir.reconstruct_vector"] == 1
    # the five clients' sharings, 2 (nv) or 3 (lwe) columns each, are one
    # block product, and each client sums its contributors' rows in one
    # call; a traced name kept only as an import would read zero here
    assert calls["shamir.share_vector"] == 1
    assert calls["shamir.add_share_vectors"] == cfg.n


@pytest.mark.parametrize("proto,stages", [("nv", 3), ("lwe", 4), ("pw", 4)])
def test_each_live_client_takes_one_inbox_per_stage(proto, stages):
    # the contributor set counts as a stage: one on_message call per live
    # client for each stage's inbox, however many messages it holds
    lwe = LweParams(n_lwe=8, sigma=1e-6, matrix_seed=b"\x05" * 32)
    cfg = RoundConfig(protocol=proto, n=5, m=6,
                      lwe=lwe if proto == "lwe" else None,
                      dh=DH_GROUP_TEST if proto == "pw" else None)
    _, calls = traced_calls(cfg)
    assert calls["protocol.client.on_message"] == stages * cfg.n


def test_lwe_round_makes_one_block_product_and_one_memo_miss():
    cfg = RoundConfig(protocol="lwe", n=5, m=6, lwe=LweParams(
        n_lwe=8, sigma=1e-6, matrix_seed=b"\x05" * 32))
    _, calls = traced_calls(cfg)
    assert calls["masking.matvec"] == 2


def test_pw_survivors_share_one_set_of_finalize_streams():
    cfg = RoundConfig(protocol="pw", n=6, m=4, dh=DH_GROUP_TEST,
                      planned_dropouts=2)
    report, calls = traced_calls(cfg, dropout_rate=0.34,
                                 dropout_stage_policy="masked_vector")
    ids = report.result.contributors
    gone = set(range(cfg.n)) - set(ids)
    assert len(gone) == 2
    # one batch of every contributor's personal stream, and one of the
    # (dropped, contributor) pairwise streams of both signs: counted once,
    # not once per survivor, because the survivors share one correction
    assert {j < k for k in gone for j in ids} == {True, False}
    finalize = 2
    assert calls["masking.stream_expand"] == emit_batches(ids, cfg.n) + finalize
