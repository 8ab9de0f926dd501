"""The benchmark's span tracer wraps functions of the library by name, at
the attribute its callers look them up through.  A refactor that renames
or moves one of them breaks `perfbench/run.py --trace 1`; this catches it
in the test suite instead."""

import importlib.util
from collections import Counter
from pathlib import Path

from secaggsim.masking import DH_GROUP_TEST
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
    # a key and a personal seed shared per client; every survivor opens
    # all the personal seeds it needs in one reconstruction
    assert calls["shamir.share_integer"] == 2 * cfg.n
    assert calls["shamir.reconstruct_integer"] == cfg.n
    assert calls["masking.stream_expand"] > 0
