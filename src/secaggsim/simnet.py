"""Deterministic in-process message bus with dropout injection and meters.

Logical time only: dropout here is step-granular, so a latency model
would add noise without adding coverage.  A client scheduled to
drop at stage S sends zero bytes at stages >= S and receives nothing from
stage S on; bytes addressed to it are still counted ("addressed to
dropped") so complexity comparisons stay well-defined under dropout.
An outbox entry (recipients, message) is metered as recipients times the
message's wire size, from its shape; a share bundle's wire size is that of
one recipient's row.  The bus hands each client one inbox per stage, and
only a recorded transcript serializes, one message per delivery with each
bundle narrowed to the recipient's row.

Seed derivation: client i's generator is seeded with
SHA-256(master_seed || "client" || i), the dropout schedule with
SHA-256(master_seed || "dropout"), and the LWE public matrix with
SHA-256(master_seed || "A-matrix").  Identical SimConfig => byte-identical
SimReport, wall_time aside.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import SecAggError
from .field import FieldPrime, FixedPointConfig, elems_to_bytes, encode_vec
from .masking import LweParams
from .protocol.clients import AggregateResult, OpsTally
from .protocol.messages import (
    HEADER_BYTES,
    Entry,
    MsgKind,
    ProtocolMessage,
    SECRET_DH_KEY,
)
from .protocol.rounds import LWE, NV, PW, ROUND_FNS, STAGES, RoundConfig
from .shamir import chunk_bits_for, chunk_count

CONTROL_STAGE = "control"
UNIFORM_POLICY = "uniform"
# a report inlines an average of at most this many coordinates; a longer
# one is summarized by its length, SHA-256 and first 8 values
MAX_INLINE_VECTOR = 1024


def _derive_seed(master_seed: int, *parts: bytes) -> int:
    h = hashlib.sha256()
    h.update(int(master_seed).to_bytes(8, "big", signed=False))
    for p in parts:
        h.update(p)
    return int.from_bytes(h.digest(), "big")


def client_seed(master_seed: int, cid: int) -> int:
    return _derive_seed(master_seed, b"client", cid.to_bytes(4, "big"))


def schedule_seed(master_seed: int) -> int:
    return _derive_seed(master_seed, b"dropout")


def matrix_seed(master_seed: int) -> bytes:
    return _derive_seed(master_seed, b"A-matrix").to_bytes(32, "big")


# --- dropout schedule ---------------------------------------------------------


@dataclass(frozen=True)
class DropoutSchedule:
    """Which clients silently stop, and at which protocol stage."""

    stages: dict[int, str]

    @property
    def dropped(self) -> tuple[int, ...]:
        return tuple(sorted(self.stages))

    def to_dict(self) -> dict:
        return {str(cid): st for cid, st in sorted(self.stages.items())}


def make_dropout_schedule(seed: int, n: int, rate: float, policy: str,
                          stage_names: tuple[str, ...]) -> DropoutSchedule:
    """Sample floor(rate*n) distinct clients and a stop stage for each,
    deterministically in the seed."""
    check_dropout(rate, policy, stage_names)
    count = int(rate * n)
    rng = np.random.Generator(np.random.PCG64(seed))
    dropped = sorted(int(c) for c in rng.choice(n, size=count, replace=False))
    stages = {}
    for cid in dropped:
        if policy == UNIFORM_POLICY:
            stages[cid] = stage_names[int(rng.integers(0, len(stage_names)))]
        else:
            stages[cid] = policy
    return DropoutSchedule(stages=stages)


def check_dropout(rate: float, policy: str, stage_names: tuple[str, ...]):
    """Reject a rate outside [0, 1] and a policy that is neither 'uniform'
    nor a stage label."""
    if not 0 <= rate <= 1:
        raise ValueError("dropout rate must be in [0, 1]")
    if policy != UNIFORM_POLICY and policy not in stage_names:
        raise ValueError(f"unknown stage {policy!r}; "
                         f"choose from {stage_names} or 'uniform'")


# --- metrics -------------------------------------------------------------------


@dataclass
class Metrics:
    per_client: dict[int, dict] = dc_field(default_factory=dict)
    per_stage: dict[str, dict] = dc_field(default_factory=dict)
    field_ops: dict[int, dict] = dc_field(default_factory=dict)

    def _client(self, cid: int) -> dict:
        return self.per_client.setdefault(
            cid, {"messages_sent": 0, "bytes_sent": 0, "bytes_received": 0})

    def _stage(self, stage: str) -> dict:
        return self.per_stage.setdefault(
            stage, {"messages_sent": 0, "bytes_sent": 0,
                    "bytes_delivered": 0, "bytes_to_dropped": 0})

    def record_exchange(self, stage: str, messages: int, delivered: int,
                        to_dropped: int, per_client=()):
        """Add one exchange's traffic: its message count, the bytes
        delivered and addressed to dropped clients, and a (client id,
        messages sent, bytes sent, bytes received) row for each client
        that sent or received anything.  An exchange that sent nothing
        adds no row."""
        if not messages:
            return
        row = self._stage(stage)
        row["messages_sent"] += messages
        row["bytes_sent"] += delivered + to_dropped
        row["bytes_delivered"] += delivered
        row["bytes_to_dropped"] += to_dropped
        for cid, count, nbytes, got in per_client:
            c = self._client(cid)
            c["messages_sent"] += count
            c["bytes_sent"] += nbytes
            c["bytes_received"] += got

    @property
    def total_messages(self) -> int:
        return sum(r["messages_sent"] for r in self.per_stage.values())

    @property
    def total_bytes(self) -> int:
        return sum(r["bytes_sent"] for r in self.per_stage.values())

    @property
    def total_field_ops(self) -> int:
        return sum(sum(ops.values()) for ops in self.field_ops.values())

    @property
    def control_messages(self) -> int:
        return self.per_stage.get(CONTROL_STAGE, {}).get("messages_sent", 0)

    def conservation_holds(self) -> bool:
        return all(r["bytes_sent"] == r["bytes_delivered"] + r["bytes_to_dropped"]
                   for r in self.per_stage.values())

    def to_dict(self) -> dict:
        return {
            "per_client": {str(c): dict(v)
                           for c, v in sorted(self.per_client.items())},
            "per_stage": {s: dict(v)
                          for s, v in sorted(self.per_stage.items())},
            "field_ops": {str(c): dict(v)
                          for c, v in sorted(self.field_ops.items())},
            "totals": {
                "messages": self.total_messages,
                "bytes": self.total_bytes,
                "field_ops": self.total_field_ops,
            },
        }


# --- the bus -------------------------------------------------------------------


class MessageBus:
    """Synchronous, stage-stepped delivery with per-sender FIFO order.

    Delivery order is fully deterministic: entries (recipients, message)
    are sorted by (sender, kind, first recipient), and each stage gives
    every client one inbox, the messages that reached it in that order.
    Clients share no state but a memo keyed on its inputs, so a parallel
    driver may serve the inboxes in any order; this one serves them in
    ascending client id.
    """

    def __init__(self, cfg: RoundConfig, master_seed: int,
                 schedule: DropoutSchedule | None = None,
                 record_transcript: bool = False):
        self.n = cfg.n
        self.schedule = schedule or DropoutSchedule(stages={})
        self.metrics = Metrics()
        self.round = 0
        # one (recipient, message) pair per delivery, bundles narrowed
        self.transcript: list[tuple[int, ProtocolMessage]] = []
        self._record = record_transcript
        self._rngs = {
            i: np.random.Generator(np.random.PCG64(client_seed(master_seed, i)))
            for i in range(cfg.n)
        }
        drop_idx = {cid: cfg.stages.index(st)
                    for cid, st in self.schedule.stages.items()}
        # liveness per stage, indexed by client id: a client is live
        # before the stage it drops at
        self._alive = {
            stage: [drop_idx.get(i, k + 1) > k for i in range(cfg.n)]
            for k, stage in enumerate(cfg.stages)
        }
        self._senders: dict[str, set[int]] = {}

    def next_round(self):
        self.round += 1
        self._senders = {}

    def client_rng(self, cid: int) -> np.random.Generator:
        return self._rngs[cid]

    def alive(self, cid: int, stage: str) -> bool:
        return self._alive[stage][cid]

    def live_at_end(self) -> list[int]:
        return [i for i in range(self.n) if i not in self.schedule.stages]

    def exchange(self, stage: str, outbox: list[Entry]
                 ) -> list[list[ProtocolMessage]]:
        """Deliver one stage's entries; returns every client's inbox,
        indexed by client id, in deterministic order.  The stage is
        metered once, from counts kept per client id."""
        alive = self._alive[stage]
        sent = [0] * self.n
        sent_bytes = [0] * self.n
        received = [0] * self.n
        inboxes = [[] for _ in range(self.n)]
        to_dropped = 0
        for rcpts, msg in sorted(outbox, key=lambda e: (e[1].sender,
                                                        e[1].kind, e[0][0])):
            sender = msg.sender
            if not alive[sender]:
                continue  # dropped clients send nothing from their stage on
            size = msg.wire_size
            sent[sender] += len(rcpts)
            sent_bytes[sender] += len(rcpts) * size
            live = [r for r in rcpts if alive[r]]
            for rcpt in live:
                received[rcpt] += size
                inboxes[rcpt].append(msg)
            to_dropped += (len(rcpts) - len(live)) * size
            if self._record:
                self.transcript.extend((rcpt, msg.at(rcpt)) for rcpt in live)
        self._senders.setdefault(stage, set()).update(
            i for i, count in enumerate(sent) if count)
        # every message has a header, so a client that received anything
        # has a nonzero byte count
        self.metrics.record_exchange(
            stage, sum(sent), sum(received), to_dropped,
            [row for row in zip(range(self.n), sent, sent_bytes, received)
             if row[1] or row[3]])
        return inboxes

    def control(self, stage: str, msg: ProtocolMessage
                ) -> list[list[ProtocolMessage]]:
        """Bus-issued broadcast (contributor set), metered separately;
        returns every client's inbox: the message for each live client."""
        alive = self._alive[stage]
        live = tuple(r for r in range(self.n) if alive[r])
        if self._record:
            self.transcript.extend((rcpt, msg) for rcpt in live)
        size = msg.wire_size
        self.metrics.record_exchange(CONTROL_STAGE, self.n, size * len(live),
                                     size * (self.n - len(live)))
        return [[msg] if a else [] for a in alive]

    def delivery_record(self) -> dict[str, tuple[int, ...]]:
        return {st: tuple(sorted(s)) for st, s in self._senders.items()}

    def record_field_ops(self, cid: int, ops: OpsTally):
        row = self.metrics.field_ops.setdefault(
            cid, {"add": 0, "mul": 0, "inv": 0})
        row["add"] += ops.add
        row["mul"] += ops.mul
        row["inv"] += ops.inv


# --- simulation ----------------------------------------------------------------


@dataclass
class SimConfig:
    """Simulation parameters.  A dropout rate outside [0, 1], an unknown
    stage policy or fewer than one round raises ValueError.  A rate that
    leaves fewer than t survivors is allowed through: the round then fails
    with InsufficientSurvivors in the report instead of refusing to
    start."""

    round_cfg: RoundConfig
    master_seed: int = 0
    dropout_rate: float = 0.0
    dropout_stage_policy: str = UNIFORM_POLICY
    rounds: int = 1

    def __post_init__(self):
        check_dropout(self.dropout_rate, self.dropout_stage_policy,
                      self.round_cfg.stages)
        if self.rounds < 1:
            raise ValueError(f"need at least 1 round, got rounds={self.rounds}")


@dataclass
class SimReport:
    result: AggregateResult | None
    failure: str | None
    metrics: Metrics
    schedule: DropoutSchedule
    wall_time: float
    config: dict
    inputs: list | None = None        # kept only on request, for scanners
    transcript: list | None = None

    def to_dict(self) -> dict:
        if self.result is None:
            result = None
        else:
            avg = self.result.average
            if len(avg) <= MAX_INLINE_VECTOR:
                avg_repr = [float(v) for v in avg]
            else:
                avg_repr = {
                    "len": len(avg),
                    "sha256": hashlib.sha256(
                        np.asarray(avg, dtype="<f8").tobytes()).hexdigest(),
                    "head": [float(v) for v in avg[:8]],
                }
            result = {
                "average": avg_repr,
                "contributors": list(self.result.contributors),
                "exact": self.result.exact,
                "noise_sigma_effective": self.result.noise_sigma_effective,
            }
        return {
            "result": result,
            "failure": self.failure,
            "metrics": self.metrics.to_dict(),
            "schedule": self.schedule.to_dict(),
            "config": self.config,
            "wall_time": self.wall_time,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def _config_dict(cfg: RoundConfig, sim: SimConfig) -> dict:
    out = {
        "protocol": cfg.protocol, "n": cfg.n, "t": cfg.t, "m": cfg.m,
        "k": cfg.k, "q": cfg.field.q, "frac_bits": cfg.fp.frac_bits,
        "clip_magnitude": cfg.fp.clip_magnitude,
        "master_seed": sim.master_seed, "dropout_rate": sim.dropout_rate,
        "dropout_stage_policy": sim.dropout_stage_policy,
        "rounds": sim.rounds,
    }
    if cfg.protocol == LWE:
        out["n_lwe"] = cfg.lwe.n_lwe
        out["sigma"] = cfg.lwe.sigma
        out["matrix_seed"] = cfg.lwe.matrix_seed.hex()
    if cfg.protocol == PW:
        out["dh_bits"] = cfg.dh.p.bit_length()
        out["personal_mask"] = cfg.personal_mask
    return out


def run_simulation(cfg: SimConfig, keep_transcript: bool = False) -> SimReport:
    """Execute `rounds` aggregation rounds under the dropout schedule.

    Inputs are synthetic: each client's update is drawn uniformly from
    [-1, 1]^m from its own seeded generator at the start of every round.
    Library errors raised inside a round (protocol failures, decode
    overflow, non-finite inputs) land in the report; they do not raise.
    """
    rc = cfg.round_cfg
    if rc.protocol == LWE and rc.lwe.matrix_seed == bytes(32):
        # default sentinel: derive the public matrix seed from the master
        rc = replace(rc, lwe=LweParams(
            n_lwe=rc.lwe.n_lwe, sigma=rc.lwe.sigma,
            matrix_seed=matrix_seed(cfg.master_seed)))
    schedule = make_dropout_schedule(
        schedule_seed(cfg.master_seed), rc.n, cfg.dropout_rate,
        cfg.dropout_stage_policy, rc.stages)
    bus = MessageBus(rc, cfg.master_seed, schedule,
                     record_transcript=keep_transcript)
    round_fn = ROUND_FNS[rc.protocol]
    result = None
    failure = None
    inputs = None
    start = time.perf_counter()
    for r in range(cfg.rounds):
        inputs = [bus.client_rng(i).uniform(-1.0, 1.0, size=rc.m)
                  for i in range(rc.n)]
        try:
            result = round_fn(inputs, rc, bus)
        except SecAggError as exc:
            result = None
            failure = f"{type(exc).__name__}: {exc}"
            break
        if r + 1 < cfg.rounds:
            bus.next_round()
    wall = time.perf_counter() - start
    return SimReport(
        result=result, failure=failure, metrics=bus.metrics,
        schedule=schedule, wall_time=wall, config=_config_dict(rc, cfg),
        inputs=inputs if keep_transcript else None,
        transcript=bus.transcript if keep_transcript else None)


# --- closed-form meter expectations ---------------------------------------------


def meter_expectations(cfg: RoundConfig, rounds: int = 1) -> dict:
    """Expected per-stage message and byte counts for a no-dropout round,
    straight from the wire format.  Measured metrics must match exactly."""
    n, m = cfg.n, cfg.m
    pair_msgs = n * (n - 1)
    hdr = HEADER_BYTES

    def vec_payload(length: int, extra_words: int = 0) -> int:
        return 4 * (1 + extra_words) + 8 * length

    def sv_payload(length: int) -> int:  # chunks, then (length, t, k)
        return vec_payload(chunk_count(length, cfg.k), 3)

    control_payload = 4 + 4 * n
    stages: dict[str, dict] = {}

    def put(stage: str, messages: int, payload: int):
        row = stages.setdefault(stage, {"messages_sent": 0, "bytes_sent": 0})
        row["messages_sent"] += messages
        row["bytes_sent"] += messages * (hdr + payload)

    if cfg.protocol == NV:
        put("input_shares", pair_msgs, sv_payload(m))
        put(CONTROL_STAGE, n, control_payload)
        put("aggregate_shares", pair_msgs, sv_payload(m))
    elif cfg.protocol == LWE:
        put("secret_shares", pair_msgs, sv_payload(cfg.lwe.n_lwe))
        put("masked_vector", pair_msgs, vec_payload(m))
        put(CONTROL_STAGE, n, control_payload)
        put("sum_shares", pair_msgs, sv_payload(cfg.lwe.n_lwe))
    elif cfg.protocol == PW:
        cb = chunk_bits_for(cfg.field)
        key_chunks = chunk_count(cfg.dh.subgroup_order.bit_length(), cb)
        seed_chunks = chunk_count(256, cb)
        put("setup", pair_msgs, cfg.dh.residue_bytes)
        put("setup", pair_msgs, vec_payload(key_chunks))
        if cfg.personal_mask:
            put("setup", pair_msgs, vec_payload(seed_chunks))
        put("masked_vector", pair_msgs, vec_payload(m))
        put(CONTROL_STAGE, n, control_payload)
        if cfg.personal_mask:
            # per entry: target id, secret type, chunk count, the chunks
            unmask_payload = 4 + n * (4 + 1 + 4 + 8 * seed_chunks)
            put("unmask_shares", pair_msgs, unmask_payload)
    for row in stages.values():
        row["messages_sent"] *= rounds
        row["bytes_sent"] *= rounds
    total_msgs = sum(r["messages_sent"] for r in stages.values())
    total_bytes = sum(r["bytes_sent"] for r in stages.values())
    return {
        "per_stage": stages,
        "totals": {"messages": total_msgs, "bytes": total_bytes},
    }


def metrics_match_expectations(metrics: Metrics, expected: dict) -> bool:
    """Exact comparison for no-dropout runs."""
    for stage, row in expected["per_stage"].items():
        got = metrics.per_stage.get(stage)
        if got is None:
            return False
        if got["messages_sent"] != row["messages_sent"]:
            return False
        if got["bytes_sent"] != row["bytes_sent"]:
            return False
        if got["bytes_delivered"] != got["bytes_sent"]:
            return False
    return (metrics.total_messages == expected["totals"]["messages"]
            and metrics.total_bytes == expected["totals"]["bytes"])


# --- transcript hygiene ----------------------------------------------------------


def coalition_view(report: SimReport, coalition: set[int]) -> dict:
    """What a semi-honest coalition learns from delivered traffic.

    Counts distinct share points visible per (secret kind, owner) and
    scans payload bytes for any honest client's unmasked encoded input.
    Secrets the protocol opens on purpose (the DH key of a client that
    dropped after setup, the personal seed of a contributor) are tallied
    under `opened`; everything else must stay below t shares.
    """
    if report.transcript is None or report.inputs is None:
        raise ValueError("run the simulation with keep_transcript=True")
    cfg = report.config
    if cfg["rounds"] != 1:  # the report keeps only the last round's inputs
        raise ValueError("coalition_view scans a one-round report")
    n = cfg["n"]
    contributors = set(report.result.contributors) if report.result else set()
    stage_order = STAGES[cfg["protocol"]]
    setup_complete = {
        i for i in range(n)
        if report.schedule.stages.get(i) is None
        or stage_order.index(report.schedule.stages[i]) >= 1
    }
    opened_kinds = ({("dh_key", k) for k in setup_complete - contributors}
                    | {("seed", i) for i in contributors})
    share_points: dict[tuple[str, int], set[int]] = {}
    raw_input_hits = []
    fld = FieldPrime(cfg["q"])
    fp = FixedPointConfig(cfg["frac_bits"], cfg["clip_magnitude"])
    encoded = {i: elems_to_bytes(encode_vec(report.inputs[i], fp, fld))
               for i in range(n) if i not in coalition}

    def saw(kind: str, owner: int, x: int):
        share_points.setdefault((kind, owner), set()).add(x)

    for rcpt, msg in report.transcript:
        if rcpt not in coalition:
            continue
        if msg.kind == MsgKind.INPUT_SHARE_VECTOR:
            saw("input", msg.sender, cfg["k"] + 1 + rcpt)
        elif msg.kind == MsgKind.KEY_SHARE:
            if cfg["protocol"] == LWE:
                saw("lwe_s", msg.sender, cfg["k"] + 1 + rcpt)
            else:
                saw("dh_key", msg.sender, rcpt + 1)
        elif msg.kind == MsgKind.PERSONAL_SEED_SHARE:
            saw("seed", msg.sender, rcpt + 1)
        elif msg.kind == MsgKind.UNMASK_SHARE:
            for secret_type, target, _ in msg.payload.names:
                kind = "dh_key" if secret_type == SECRET_DH_KEY else "seed"
                saw(kind, target, msg.sender + 1)
        elif msg.kind in (MsgKind.MASKED_VECTOR, MsgKind.AGGREGATED_SHARE_VECTOR):
            body = msg.to_bytes()
            for owner, blob in encoded.items():
                if blob and blob in body:
                    raw_input_hits.append((owner, msg.kind.name))
    private = {}
    opened = {}
    for key, xs in share_points.items():
        kind, owner = key
        if owner in coalition:
            continue  # their own secrets are theirs to know
        bucket = opened if key in opened_kinds else private
        bucket[key] = len(xs)
    return {
        "private_share_counts": private,
        "opened_share_counts": opened,
        "raw_input_hits": raw_input_hits,
        "threshold": cfg["t"],
    }
