"""Command-line front end: single runs, figure-style sweeps, verification.

Exit codes: 0 completed, 1 usage error (machine-readable error JSON on
stdout), 2 protocol failure (report still emitted).  Every flag has a
config-file equivalent (flat key=value, flag name with underscores),
parsed as that flag ahead of the command line's own: file values are
checked like flags, and explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import oracle
from .errors import SecAggError
from .field import (M61, FieldPrime, add_signed_mod, encode_vec, matmul_mod,
                    sum_mod)
from .masking import (DH_GROUP_2048, DH_GROUP_TEST, SECRET_ETA, SPLIT_BLOCK,
                      TAG_PAIRWISE, LweMatrixOps, LweParams, lwe_mask,
                      lwe_matrix_ops, mat_vec_mod, small_secret,
                      stream_expand)
from .protocol.clients import LweClient, NvClient, PwClient, RoundContext
from .protocol.messages import (BUS_SENDER, ContributorSetPayload, MsgKind,
                                ProtocolMessage, ShareBundlePayload)
from .protocol.rounds import (LWE, NV, PW, STAGES, RoundConfig, _deliver,
                              contributor_set)
from .shamir import (Share, reconstruct_vector, share_integer, share_vector,
                     sss_share)
from .simnet import (
    UNIFORM_POLICY,
    DropoutSchedule,
    MessageBus,
    SimConfig,
    meter_expectations,
    metrics_match_expectations,
    run_simulation,
)

PROTOCOLS = (NV, LWE, PW)
DH_PROFILES = {"2048": DH_GROUP_2048, "test": DH_GROUP_TEST}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we want JSON + 1
        raise UsageError(message)


def _list_of(cast, choices=None):
    """argparse type: comma-separated values of cast, each one of choices
    when those are given."""
    def parse(text: str) -> list:
        values = [cast(v.strip()) for v in text.split(",") if v.strip()]
        if choices is not None and not set(values) <= set(choices):
            raise ValueError(text)
        return values
    parse.__name__ = "comma-separated " + (
        "|".join(choices) if choices else cast.__name__)
    return parse


def _build_parser() -> _Parser:
    p = _Parser(prog="secaggsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one simulated aggregation")
    run.add_argument("--protocol", choices=PROTOCOLS, default=NV)
    run.add_argument("--clients", type=int, default=5)
    run.add_argument("--model-size", type=int, default=4)
    run.add_argument("--dropout-rate", type=float, default=0.0)
    run.add_argument("--dropout-stage", default=UNIFORM_POLICY,
                     help="stage label or 'uniform' (default)")
    run.add_argument("--threshold", type=int,
                     help="Shamir threshold t; defaults to floor(n/2)+1")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--config", help="key=value file; flags override it")
    run.add_argument("--pack-width", type=int,
                     help="secrets per share polynomial; default auto")
    run.add_argument("--sigma", type=float, default=3.0,
                     help="LWE noise parameter")
    run.add_argument("--rounds", type=int, default=1)
    run.add_argument("--dh-profile", choices=DH_PROFILES, default="2048")
    run.add_argument("--personal-mask", choices=("on", "off"), default="on")

    sweep = sub.add_parser("sweep", help="grid of runs, CSV out")
    sweep.add_argument("--protocols", type=_list_of(str, PROTOCOLS),
                       default="nv,lwe,pw")
    sweep.add_argument("--clients", type=_list_of(int), default="10,50")
    sweep.add_argument("--model-sizes", type=_list_of(int), default="10,100")
    sweep.add_argument("--dropout-rates", type=_list_of(float),
                       default="0,0.1,0.2,0.3")
    sweep.add_argument("--repetitions", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--dh-profile", choices=DH_PROFILES, default="test")
    sweep.add_argument("--config", help="key=value file; flags override it")
    sweep.add_argument("--out", help="CSV path; stdout when omitted")

    verify = sub.add_parser("verify", help="oracle property suite")
    verify.add_argument("--quick", action="store_true")
    verify.add_argument("--fault-inject", action="store_true",
                        help="negative control: corrupt one share payload")
    return p


def _config_flags(path: str, keys) -> list[str]:
    """The flags a key = value file stands for (`model_size = 100` is
    `--model-size=100`).  A key must be one of keys exactly; an empty
    value leaves the flag at its default."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}")
    flags = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if raw:
            flags.append(f"--{key.replace('_', '-')}={raw}")
    return flags


def _parse(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse argv.  A --config file's flags go ahead of the command line's
    own, so one parser checks both and explicit flags win."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    keys = set(vars(args)) - {"command", "config"}
    flags = _config_flags(args.config, keys)
    try:
        return parser.parse_args([args.command, *flags, *argv[1:]])
    except UsageError as exc:  # argv alone parsed, so a file value is bad
        raise UsageError(f"{args.config}: {exc}")


# --- run ------------------------------------------------------------------------


def _round_config(args) -> RoundConfig:
    return RoundConfig(
        protocol=args.protocol,
        n=args.clients,
        m=args.model_size,
        t=args.threshold,
        k=args.pack_width,
        lwe=LweParams(sigma=args.sigma) if args.protocol == LWE else None,
        dh=DH_PROFILES[args.dh_profile] if args.protocol == PW else None,
        personal_mask=args.personal_mask == "on",
        planned_dropouts=int(args.dropout_rate * args.clients),
    )


def cmd_run(args) -> int:
    try:
        sim = SimConfig(
            round_cfg=_round_config(args),
            master_seed=args.seed,
            dropout_rate=args.dropout_rate,
            dropout_stage_policy=args.dropout_stage,
            rounds=args.rounds,
        )
    except (SecAggError, ValueError) as exc:
        raise UsageError(str(exc))
    report = run_simulation(sim)
    print(report.to_json(indent=2))
    return 0 if report.failure is None else 2


# --- sweep ----------------------------------------------------------------------

SWEEP_COLUMNS = ("protocol", "n", "m", "rate", "stage", "wall_time_s",
                 "total_bytes", "bytes_per_client", "total_messages",
                 "field_ops", "outcome")


def _combo_seed(master: int, proto: str, n: int, m: int, rate: float,
                rep: int) -> int:
    h = hashlib.sha256(
        f"{master}|{proto}|{n}|{m}|{rate}|{rep}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def _sweep_row(proto, n, m, rate, stage_policy, seed, dh):
    rc = RoundConfig(protocol=proto, n=n, m=m,
                     dh=dh if proto == PW else None,
                     planned_dropouts=int(rate * n))
    sim = SimConfig(round_cfg=rc, master_seed=seed, dropout_rate=rate,
                    dropout_stage_policy=stage_policy)
    report = run_simulation(sim)
    metr = report.metrics
    client_bytes = sum(v["bytes_sent"] for v in metr.per_client.values())
    return {
        "protocol": proto, "n": n, "m": m, "rate": rate,
        "stage": stage_policy if rate > 0 else "none",
        "wall_time_s": f"{report.wall_time:.6f}",
        "total_bytes": metr.total_bytes,
        "bytes_per_client": f"{client_bytes / n:.2f}",
        "total_messages": metr.total_messages,
        "field_ops": metr.total_field_ops,
        "outcome": "ok" if report.failure is None else report.failure.split(":")[0],
    }


def cmd_sweep(args) -> int:
    dh = DH_PROFILES[args.dh_profile]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    for proto, n, m, rate, rep in itertools.product(
            args.protocols, args.clients, args.model_sizes,
            args.dropout_rates, range(args.repetitions)):
        seed = _combo_seed(args.seed, proto, n, m, rate, rep)
        # with dropout, run every stage placement and report the worst case
        # by metered bytes (deterministic, unlike wall time)
        policies = STAGES[proto] if rate > 0 else (UNIFORM_POLICY,)
        try:
            rows = [_sweep_row(proto, n, m, rate, st, seed, dh)
                    for st in policies]
            writer.writerow(max(rows, key=lambda r: r["total_bytes"]))
        except (SecAggError, ValueError) as exc:
            writer.writerow({
                "protocol": proto, "n": n, "m": m, "rate": rate,
                "stage": "n/a", "wall_time_s": "0", "total_bytes": 0,
                "bytes_per_client": "0", "total_messages": 0, "field_ops": 0,
                "outcome": f"skipped:{type(exc).__name__}",
            })
    if args.out:
        Path(args.out).write_text(buf.getvalue(), newline="")
    else:
        sys.stdout.write(buf.getvalue())
    return 0


# --- verify ---------------------------------------------------------------------


def _prop_share_consistency() -> bool:
    fld = FieldPrime(17)
    rng = np.random.Generator(np.random.PCG64(7))
    shares = sss_share(5, 3, 5, rng, fld).shares
    for pair in itertools.combinations(shares, 2):
        hist = oracle.brute_force_share_consistency(list(pair), 3, fld)
        if set(hist.values()) != {1}:
            return False
    hist = oracle.brute_force_share_consistency([], 3, fld)
    if set(hist.values()) != {17 ** 2}:
        return False
    fld7 = FieldPrime(7)
    hist = oracle.brute_force_share_consistency([Share(1, 3)], 2, fld7)
    return set(hist.values()) == {1}


def _prop_share_roundtrip(fault_inject: bool) -> bool:
    fld = FieldPrime()
    rng = np.random.Generator(np.random.PCG64(11))
    vec = [fld.rand(rng) for _ in range(50)]
    ys = share_vector(vec, t=3, n=7, k=4, rng=rng, field=fld)
    if fault_inject:
        ys[2, 0] = (ys[2, 0] + 1) % fld.q
    xs = range(5, 12)  # recipient j holds point k+1+j
    return reconstruct_vector(xs, ys, 3, 4, len(vec), fld).tolist() == vec


def _prop_mask_stream(fault_inject: bool) -> bool:
    """Prefix stability, and one F17 vector against a Python-int loop over
    the SHAKE-128 words (F17 rejects about half of them)."""
    fld, seed, tag = FieldPrime(17), bytes(range(32)), TAG_PAIRWISE
    mask = (1 << fld.q.bit_length()) - 1
    full = stream_expand(seed, tag, 200, fld).tolist()
    if fault_inject:
        full[0] = (full[0] + 1) % fld.q
    if any(stream_expand(seed, tag, c, fld).tolist() != full[:c]
           for c in (0, 1, 7, 64, 199)):
        return False
    digest = hashlib.shake_128(bytes([len(tag)]) + tag + seed).digest(8 * 1000)
    words = (int.from_bytes(digest[i:i + 8], "little") & mask
             for i in range(0, len(digest), 8))
    return full == [w for w in words if w < fld.q][:200]


def _prop_stream_batch(fault_inject: bool) -> bool:
    """stream_expand over a batch of seeds against each seed's own stream,
    on M61 and on F17, where most rows hold a rejected word and are read
    again one seed at a time."""
    seeds = [bytes([i]) * 32 for i in range(70)]
    for q in (M61, 17):
        fld = FieldPrime(q)
        got = stream_expand(seeds, TAG_PAIRWISE, 33, fld).tolist()
        if fault_inject:
            got[-1][-1] = (got[-1][-1] + 1) % q
        if got != [stream_expand(s, TAG_PAIRWISE, 33, fld).tolist()
                   for s in seeds]:
            return False
    return True


def _prop_share_block(fault_inject: bool) -> bool:
    """share_vector and share_integer over a block of (input, rng) pairs
    against each pair's own call with a twin rng, on F17 and M61: equal
    rows, and every rng left in the same state."""
    for q in (17, M61):
        fld = FieldPrime(q)
        g = np.random.Generator(np.random.PCG64(23))
        vecs = [g.integers(0, q, size=9, dtype=np.uint64) for _ in range(4)]
        keys = [[int(g.integers(0, 1 << 9)), int(g.integers(0, 1 << 30))]
                for _ in range(4)]
        for share, inputs, args in (
                (share_vector, vecs, (3, 7, 4)),
                (share_integer, keys, ([9, 30], 3, 7))):
            rngs = [np.random.Generator(np.random.PCG64(i)) for i in range(4)]
            twins = [np.random.Generator(np.random.PCG64(i)) for i in range(4)]
            got = [b.tolist() for b in share(list(zip(inputs, rngs)), *args,
                                             field=fld)]
            if fault_inject:
                got[-1][-1][-1] = (got[-1][-1][-1] + 1) % q
            want = [share(x, *args, r, fld).tolist()
                    for x, r in zip(inputs, twins)]
            if got != want or [r.bit_generator.state for r in rngs] != \
                    [r.bit_generator.state for r in twins]:
                return False
    return True


def _prop_matmul_dual_route(fault_inject: bool) -> bool:
    """field.matmul_mod against a Python-int loop on F17, M61 and the
    largest prime below 2^63, in both of its layouts: inner dimension 5
    takes the folded one on M61 and 2^63-25 (V's 32-bit words, 2^32 folded
    into M), and 100 and 5,000 split both operands into limbs of one
    width, 3 and 4 limbs on M61.  F17 takes one limb a side throughout."""
    rng = np.random.Generator(np.random.PCG64(13))
    for q in (17, M61, (1 << 63) - 25):
        for r, d, c in ((2, 5, 3), (3, 100, 40), (2, 5000, 3)):
            M = rng.integers(0, q, size=(r, d), dtype=np.uint64)
            V = rng.integers(0, q, size=(d, c), dtype=np.uint64)
            got = matmul_mod(M, V, FieldPrime(q)).tolist()
            if fault_inject:
                got[0][0] = (got[0][0] + 1) % q
            Ml, Vl = M.tolist(), V.tolist()
            want = [[sum(Ml[i][k] * Vl[k][j] for k in range(d)) % q
                     for j in range(c)] for i in range(r)]
            if got != want:
                return False
    return True


def _prop_lwe_matvec_dual_route(fault_inject: bool) -> bool:
    """masking.LweMatrixOps.matvec, for one secret and a stack of five,
    against mat_vec_mod on F17, M61 and the largest prime below 2^63, with
    a row count that ends mid-way through a block of the limb build.  The
    secrets are small and signed (|s| <= SECRET_ETA), a sum that needs two
    signed limbs, and uniform (a corrupted opening)."""
    rng = np.random.Generator(np.random.PCG64(19))
    m, d = 2 * SPLIT_BLOCK + 3, 9
    for q in (17, M61, (1 << 63) - 25):
        fld = FieldPrime(q)
        A = rng.integers(0, q, size=(m, d), dtype=np.uint64)
        ops = LweMatrixOps(A, fld)
        two_limbs = 1 << ops.bits[0]  # the smallest magnitude past one
        signed = np.vstack([
            rng.integers(-SECRET_ETA, SECRET_ETA + 1, size=(4, d)),
            rng.integers(two_limbs, 2 * two_limbs, size=(1, d))
            * rng.choice([-1, 1], size=(1, d))]) % q
        S = np.vstack([signed.astype(np.uint64),
                       rng.integers(0, q, size=(1, d), dtype=np.uint64)])
        got = [ops.matvec(s).tolist() for s in S] + ops.matvec(S).T.tolist()
        if fault_inject:
            got[0][m - 1] = (got[0][m - 1] + 1) % q
        want = [mat_vec_mod(A, s, fld).tolist() for s in S]
        if got != want * 2:
            return False
    return True


def _prop_lwe_mask_dual_route(fault_inject: bool) -> bool:
    """The lwe masking pass, add_signed_mod of enc_w, LweMatrixOps.matvec
    of a small secret and int64 errors, against lwe_mask (mat_vec_mod, and
    the errors reduced mod q) on F17, F127, M61 and the largest prime
    below 2^63.  Rows 0-2 hold enc_w = q - 1 and A.s = q - 1, row 3
    enc_w = A.s = 0, and the first rows the int64 extremes, among random
    errors of up to 62 bits either way."""
    rng = np.random.Generator(np.random.PCG64(29))
    m, d = 12, 7
    edges = [-1, (1 << 63) - 1, -M61, -(1 << 63), 0, M61]
    for q in (17, 127, M61, (1 << 63) - 25):
        fld = FieldPrime(q)
        s = small_secret(d, rng, fld)
        j = int(np.flatnonzero(s)[0])
        A = rng.integers(0, q, size=(m, d), dtype=np.uint64)
        A[:4] = 0
        A[:3, j] = (q - 1) * pow(int(s[j]), q - 2, q) % q  # A.s = q - 1
        enc = rng.integers(0, q, size=m, dtype=np.uint64)
        enc[:3] = q - 1
        enc[3] = 0
        e = rng.integers(-(1 << 62), 1 << 62, size=m, dtype=np.int64)
        e[:len(edges)] = edges
        got = add_signed_mod(enc, LweMatrixOps(A, fld).matvec(s), e,
                             fld).tolist()
        if fault_inject:
            got[0] = (got[0] + 1) % q
        want = lwe_mask(enc, s, (e % np.int64(q)).astype(np.uint64), A, fld)
        if got != want.tolist():
            return False
    return True


def _prop_sum_dual_route(fault_inject: bool) -> bool:
    """field.sum_mod against a Python-int loop on F17, M61 and the largest
    prime below 2^63, for row counts on both sides of a 64-row block, with
    random and all-(q-1) rows."""
    rng = np.random.Generator(np.random.PCG64(17))
    for q in (17, M61, (1 << 63) - 25):
        for rows in (1, 63, 64, 65, 130):
            for vs in (rng.integers(0, q, size=(rows, 7), dtype=np.uint64),
                       np.full((rows, 7), q - 1, dtype=np.uint64)):
                got = sum_mod(iter(vs), FieldPrime(q)).tolist()
                if fault_inject:
                    got[0] = (got[0] + 1) % q
                if got != [sum(col) % q for col in zip(*vs.tolist())]:
                    return False
    return True


def _round_served(proto: str, shared: bool):
    """(every client's store, every survivor's result) of one small round
    of proto, with a client dropped at each of its last two stages.  With
    shared, each stage goes through the driver's one pass (rounds._deliver,
    handed the bus's delivered list); without, each message is served by
    hand as its own inbox, which the client checks on its own."""
    cfg = RoundConfig(protocol=proto, n=6, m=5, planned_dropouts=2,
                      lwe=LweParams(n_lwe=16, sigma=1e-6,
                                    matrix_seed=b"\x09" * 32)
                      if proto == LWE else None,
                      dh=DH_GROUP_TEST if proto == PW else None)
    *opening, final = cfg.stages
    bus = MessageBus(cfg, master_seed=9, schedule=DropoutSchedule(
        stages={1: opening[-1], 4: final}))
    ctx = RoundContext(lwe_matrix_ops(cfg.lwe, cfg.m, cfg.field)
                       if proto == LWE else None)
    client_cls = {NV: NvClient, LWE: LweClient, PW: PwClient}[proto]
    clients = [client_cls(i, cfg, bus.client_rng(i).uniform(-1, 1, cfg.m),
                          bus.client_rng(i), ctx) for i in range(cfg.n)]

    def serve(inboxes, delivered=None):
        if shared:
            return _deliver(clients, inboxes, ctx, delivered)
        return [e for c, inbox in zip(clients, inboxes) for msg in inbox
                for e in c.on_message([msg])]

    for stage, opener in zip(opening, ("start", "emit_masked")):
        serve(bus.exchange(stage, [e for c in clients if bus.alive(c.id, stage)
                                   for e in getattr(c, opener)()]),
              bus.delivered)
    announce = ProtocolMessage(MsgKind.CONTRIBUTOR_SET, BUS_SENDER, 0,
                               ContributorSetPayload(contributor_set(
                                   bus.delivery_record(), opening[-1])))
    serve(bus.exchange(final, serve(bus.control(final, announce))),
          bus.delivered)
    stores = [{kind: {s: p.rows.tobytes() if isinstance(
        p, ShareBundlePayload) else p.to_bytes()
        for s, p in c.got.view(kind).items()} for kind in c.got}
        for c in clients]
    results = [(r.contributors, r.field_sum.tolist()) for r in (
        clients[i].finalize() for i in bus.live_at_end())]
    return stores, results


def _prop_receive_dual_route(fault_inject: bool) -> bool:
    """One round of every protocol served by the shared stage pass and by
    hand, one message per inbox, each inbox checked by the client's one
    check routine: every client's store and every survivor's result
    agree."""
    for proto in PROTOCOLS:
        (stores, results), by_hand = (_round_served(proto, shared)
                                      for shared in (True, False))
        if fault_inject:
            stores[0].popitem()
        if (stores, results) != by_hand:
            return False
    return True


def _prop_protocol_equivalence() -> bool:
    for proto, rate in ((NV, 0.0), (NV, 0.2), (PW, 0.0), (PW, 0.25),
                        (LWE, 0.0)):
        n = 8
        lwe = LweParams(n_lwe=32, sigma=1e-6) if proto == LWE else None
        rc = RoundConfig(protocol=proto, n=n, m=6, lwe=lwe,
                         dh=DH_GROUP_TEST if proto == PW else None,
                         planned_dropouts=int(rate * n))
        sim = SimConfig(round_cfg=rc, master_seed=3, dropout_rate=rate)
        report = run_simulation(sim, keep_transcript=True)
        if report.failure is not None:
            return False
        expect = oracle.plaintext_aggregate(report.inputs,
                                            report.result.contributors)
        if np.max(np.abs(report.result.average - expect)) > 2 ** -15 + 1e-5:
            return False
        if proto != LWE:
            enc = [encode_vec(report.inputs[i]) for i in
                   report.result.contributors]
            total = np.zeros(rc.m, dtype=np.uint64)
            q = np.uint64(rc.field.q)
            for e in enc:
                total = (total + e) % q
            if not np.array_equal(total, report.result.field_sum):
                return False
    return True


def _prop_trajectory_parity() -> bool:
    cfg = oracle.TrajectoryConfig(n=6, rounds=3, d=8, eta=0.2, seed=5)
    base = oracle.mini_training_trajectory(cfg, "plaintext")
    nv = oracle.mini_training_trajectory(cfg, "nv")
    gap = max(np.max(np.abs(a - b)) for a, b in zip(base, nv))
    return gap <= 3 * 2 ** -15


def _prop_metering(full: bool) -> bool:
    sizes = [(3, 10), (5, 40)] + ([(50, 10), (1000, 10)] if full else [])
    for n, m in sizes:
        rc = RoundConfig(protocol=NV, n=n, m=m)
        sim = SimConfig(round_cfg=rc, master_seed=1)
        report = run_simulation(sim)
        if report.failure is not None:
            return False
        if not metrics_match_expectations(report.metrics,
                                          meter_expectations(rc)):
            return False
    return True


def cmd_verify(args) -> int:
    checks = [
        ("share_consistency_histograms", lambda: _prop_share_consistency()),
        ("share_vector_roundtrip", lambda: _prop_share_roundtrip(args.fault_inject)),
        ("mask_stream_prefix_and_kat", lambda: _prop_mask_stream(args.fault_inject)),
        ("stream_batch_identity", lambda: _prop_stream_batch(args.fault_inject)),
        ("share_block_identity", lambda: _prop_share_block(args.fault_inject)),
        ("matmul_mod_dual_route", lambda: _prop_matmul_dual_route(args.fault_inject)),
        ("lwe_matvec_dual_route", lambda: _prop_lwe_matvec_dual_route(args.fault_inject)),
        ("lwe_mask_dual_route", lambda: _prop_lwe_mask_dual_route(args.fault_inject)),
        ("sum_mod_dual_route", lambda: _prop_sum_dual_route(args.fault_inject)),
        ("receive_dual_route", lambda: _prop_receive_dual_route(args.fault_inject)),
        ("protocol_vs_plaintext", lambda: _prop_protocol_equivalence()),
        ("trajectory_parity", lambda: _prop_trajectory_parity()),
        ("metering_identity", lambda: _prop_metering(not args.quick)),
    ]
    failures = 0
    for name, fn in checks:
        try:
            ok = fn()
        except Exception as exc:  # a property crashing is a failure
            ok = False
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(args)
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
