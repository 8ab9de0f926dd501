"""Span tracing from outside the program, and the per-layer summary.

`Tracer.install` replaces public functions of secaggsim at the module or
class attribute through which their callers look them up (for example
`secaggsim.protocol.clients.share_vector`, `LweMatrixOps.matvec`,
`ProtocolMessage.to_bytes`, `MessageBus.exchange`); `uninstall` puts the
originals back.  No file of the program changes.

A span is (name, start_ns, end_ns, parent, root, info): `parent` and
`root` are indexes into `Tracer.spans` (-1 for none), so spans of one
round share its root.  Spans stay in memory until the run ends.  The
layer of a span is the first dotted part of its name; a root's own time
is the unattributed remainder.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import defaultdict

ROUND = "round"
SETUP = "setup"
LAYERS = ("field", "shamir", "masking", "messages", "protocol", "simnet")
STAGES = ("setup", "input_shares", "secret_shares", "masked_vector",
          "aggregate_shares", "sum_shares", "unmask_shares", "finalize")
CLIENT_METHODS = ("__init__", "start", "emit_masked", "on_message", "finalize")


def _count_arg(args, result):
    return args[2]  # stream_expand(seed, domain_tag, count, field)


def _stage_arg(args, result):
    return args[1]  # MessageBus.exchange / control (self, stage, ...)


def _client_id(args, result):
    return args[0].id


def _wire_len(args, result):
    return 0 if result is None else len(result)


def _already_serialized(args):
    return args[0]._wire is not None


def _targets():
    """(owner, attribute, span name, info, skip) for every wrapped call."""
    from secaggsim import masking, simnet
    from secaggsim.protocol import clients, messages, rounds

    out = [
        (clients, "share_vector", "shamir.share_vector", None),
        (clients, "reconstruct_vector", "shamir.reconstruct_vector", None),
        (clients, "add_share_vectors", "shamir.add_share_vectors", None),
        (clients, "share_integer", "shamir.share_integer", None),
        (clients, "reconstruct_integer", "shamir.reconstruct_integer", None),
        (clients, "stream_expand", "masking.stream_expand", _count_arg),
        (masking, "stream_expand", "masking.stream_expand", _count_arg),
        (masking, "lwe_matrix_ops", "masking.matrix_expand", None),
        (rounds, "lwe_matrix_ops", "masking.matrix_expand", None),
        (masking.LweMatrixOps, "matvec", "masking.matvec", None),
        (clients, "gaussian_error", "masking.gaussian", None),
        (clients, "dh_keygen", "masking.dh_keygen", None),
        (clients, "dh_agree", "masking.dh_agree", None),
        (simnet.MessageBus, "exchange", "simnet.exchange", _stage_arg),
        (simnet.MessageBus, "control", "simnet.control", _stage_arg),
        (clients, "encode_vec", "field.encode", None),
        (clients, "decode_vec", "field.decode", None),
    ]
    out += [(mod, fn, "field.modarith", None)
            for mod, fns in ((clients, ("add_mod", "sub_mod", "sum_mod")),
                             (masking, ("add_mod", "mul_mod")))
            for fn in fns]
    out += [(cls, meth, "protocol.client." + meth.strip("_"), _client_id)
            for cls in (clients.NvClient, clients.LweClient, clients.PwClient)
            for meth in CLIENT_METHODS if meth in vars(cls)]
    out += [(rounds.ROUND_FNS, proto, "protocol.round", None)
            for proto in rounds.ROUND_FNS]
    return [t + (None,) for t in out] + [
        (messages.ProtocolMessage, "to_bytes", "messages.serialize",
         _wire_len, _already_serialized)]


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._root = -1
        self._saved: list = []

    def _wrap(self, name, fn, info=None, skip=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)  # a cached serialization
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._root,
                              None if info is None else info(args, result))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, info, skip in _targets():
            original = _get(owner, attr)
            self._saved.append((owner, attr, original))
            _set(owner, attr, self._wrap(name, original, info, skip))

    def uninstall(self):
        while self._saved:
            _set(*self._saved.pop())

    def root(self, name, fn, *args):
        """Call fn(*args) as the root span of a new round or set-up."""
        self._root = len(self.spans)
        return self._wrap(name, fn)(*args)


def _roots(spans, name):
    return [i for i, s in enumerate(spans) if s[3] == -1 and s[0] == name]


def _stage_times(spans, root, members):
    """Seconds per stage, and per stage the busiest client's seconds.

    A stage runs from the end of the previous stage's exchange (or the
    round start) to the end of its own exchange or control call; what
    follows the last one is `finalize`.  Client work is placed in the
    stage during which it starts."""
    r_start, r_end = spans[root][1], spans[root][2]
    bounds = [(spans[i][2], spans[i][5]) for i in members
              if spans[i][0] in ("simnet.exchange", "simnet.control")]
    bounds.sort()
    ends = [b[0] for b in bounds]
    labels = [b[1] for b in bounds] + ["finalize"]
    stage_ns = defaultdict(int)
    prev = r_start
    for end, label in bounds:
        stage_ns[label] += end - prev
        prev = end
    stage_ns["finalize"] += r_end - prev
    busy = defaultdict(lambda: defaultdict(int))
    for i in members:
        name, start, end, _, _, cid = spans[i]
        if name.startswith("protocol.client."):
            busy[labels[bisect_right(ends, start)]][cid] += end - start
    return stage_ns, busy


def summarize(tracer, rounds_traced: int, messages_per_round: float,
              lagrange_hits: int, lagrange_misses: int) -> tuple[dict, dict]:
    """Per-layer metrics (per traced round unless named otherwise) and a
    breakdown of round and set-up self time by span name."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    by_root = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            by_root[s[4]].append(i)
    incl = {ROUND: defaultdict(int), SETUP: defaultdict(int)}
    self_ns = {ROUND: defaultdict(int), SETUP: defaultdict(int)}
    calls = defaultdict(int)
    info_sum = defaultdict(int)
    for i, s in enumerate(spans):
        kind = spans[s[4]][0] if s[3] >= 0 else s[0]
        incl[kind][s[0]] += s[2] - s[1]
        self_ns[kind][s[0]] += s[2] - s[1] - child_ns[i]
        if kind == ROUND:
            calls[s[0]] += 1
            if isinstance(s[5], int):
                info_sum[s[0]] += s[5]
    stream_elems_all = sum(s[5] for s in spans
                           if s[0] == "masking.stream_expand")
    stream_ns_all = sum(incl[k]["masking.stream_expand"] for k in incl)

    stage_ns = defaultdict(int)
    busy_max_ns = 0
    critical_ns = 0
    for root in _roots(spans, ROUND):
        per_stage, busy = _stage_times(spans, root, by_root[root])
        for stage, ns in per_stage.items():
            stage_ns[stage] += ns
        critical_ns += sum(max(c.values()) for c in busy.values())
        per_client = defaultdict(int)
        for c in busy.values():
            for cid, ns in c.items():
                per_client[cid] += ns
        busy_max_ns += max(per_client.values(), default=0)

    r = max(rounds_traced, 1)
    sec = 1e-9 / r
    rincl, rself = incl[ROUND], self_ns[ROUND]
    round_ns = rincl[ROUND]
    metrics = {
        "shamir.share_vector_s": rincl["shamir.share_vector"] * sec,
        "shamir.share_vector_calls": calls["shamir.share_vector"] / r,
        "shamir.reconstruct_vector_s": rincl["shamir.reconstruct_vector"] * sec,
        "shamir.reconstruct_vector_calls": calls["shamir.reconstruct_vector"] / r,
        "shamir.add_share_vectors_s": rincl["shamir.add_share_vectors"] * sec,
        "shamir.share_integer_s": rincl["shamir.share_integer"] * sec,
        "shamir.reconstruct_integer_s": rincl["shamir.reconstruct_integer"] * sec,
        "shamir.reconstruct_integer_calls": calls["shamir.reconstruct_integer"] / r,
        "shamir.lagrange_misses": lagrange_misses / r,
        "shamir.lagrange_hit_ratio": (
            lagrange_hits / (lagrange_hits + lagrange_misses)
            if lagrange_hits + lagrange_misses else 0.0),
        "masking.stream_expand_s": rincl["masking.stream_expand"] * sec,
        "masking.stream_expand_calls": calls["masking.stream_expand"] / r,
        "masking.stream_elems": info_sum["masking.stream_expand"] / r,
        "masking.stream_elems_per_s": (
            stream_elems_all / (stream_ns_all * 1e-9) if stream_ns_all else 0.0),
        "masking.matrix_expand_s": incl[SETUP]["masking.matrix_expand"] * 1e-9,
        "masking.dh_keygen_s": rincl["masking.dh_keygen"] * sec,
        "masking.dh_keygen_calls": calls["masking.dh_keygen"] / r,
        "masking.dh_agree_s": rincl["masking.dh_agree"] * sec,
        "masking.dh_agree_calls": calls["masking.dh_agree"] / r,
        "masking.matvec_s": rincl["masking.matvec"] * sec,
        "masking.matvec_calls": calls["masking.matvec"] / r,
        "masking.gaussian_s": rincl["masking.gaussian"] * sec,
        "messages.serialize_s": rincl["messages.serialize"] * sec,
        "messages.serialize_calls": calls["messages.serialize"] / r,
        "messages.wire_bytes": info_sum["messages.serialize"] / r,
        "simnet.exchange_self_s": rself["simnet.exchange"] * sec,
        "simnet.control_s": rincl["simnet.control"] * sec,
        "simnet.messages_metered": messages_per_round,
        "field.encode_s": rincl["field.encode"] * sec,
        "field.decode_s": rincl["field.decode"] * sec,
        "field.modarith_s": rincl["field.modarith"] * sec,
        "field.modarith_calls": calls["field.modarith"] / r,
    }
    for stage in STAGES:
        metrics[f"protocol.stage.{stage}_s"] = stage_ns[stage] * sec
    metrics["protocol.client_busy_max_s"] = busy_max_ns * sec
    metrics["protocol.critical_path_s"] = critical_ns * sec
    metrics["protocol.finalize_s"] = rincl["protocol.client.finalize"] * sec
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            ns for name, ns in rself.items()
            if name.split(".")[0] == layer) * sec
    metrics["trace.unattributed_s"] = rself[ROUND] * sec
    metrics["trace.coverage"] = (
        1.0 - rself[ROUND] / round_ns if round_ns else 0.0)
    breakdown = {
        "round_self_s": {k: v * sec for k, v in rself.items()},
        "setup_self_s": {k: v * 1e-9 for k, v in self_ns[SETUP].items()},
    }
    return metrics, breakdown


def dominant(self_s: dict, predicted: str) -> tuple[str, float]:
    """The layer (for a bare layer prediction) or span name with the most
    self time, and its share of all self time, unattributed included."""
    total = sum(self_s.values()) or 1.0
    groups = defaultdict(float)
    for name, s in self_s.items():
        if name not in (ROUND, SETUP):
            groups[name if "." in predicted else name.split(".")[0]] += s
    top = max(groups, key=groups.get)
    return top, groups[top] / total
