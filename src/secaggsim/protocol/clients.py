"""Per-client state machines for the three aggregation protocols.

Each client is single-threaded and event-driven: peer traffic and the
bus-issued contributor set arrive through on_message, one inbox per stage
(the messages that reached the client, in (sender, kind) order), which
returns the outbox entries (recipients, message) the inbox triggers.  A
client's shares of a secret leave as one entry, a share bundle addressed to
every peer, of which each peer reads its own row.  Stage starts that in a
real deployment would come from a synchrony barrier (begin masking, begin
the round) are explicit method calls by the round driver.

Clients never see who dropped except through the contributor set, keep
per-sender buffers separate until that set arrives, and reject duplicate
or out-of-stage messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    DuplicateSender,
    InsufficientContributors,
    InsufficientSurvivors,
    MissingKeyShares,
    PointMismatch,
    SafetyViolation,
    UnexpectedMessage,
    UnmaskMismatch,
)
from ..field import add_mod, decode_vec, encode_vec, sub_mod, sum_mod
from ..masking import (
    TAG_PAIRWISE,
    TAG_PERSONAL,
    dh_agree,
    dh_keygen,
    gaussian_error,
    stream_expand,
)
from ..shamir import (
    add_share_vectors,
    chunk_count,
    reconstruct_integer,
    reconstruct_vector,
    share_integer,
    share_vector,
)
from .messages import (
    SECRET_DH_KEY,
    SECRET_PERSONAL_SEED,
    Entry,
    MsgKind,
    ProtocolMessage,
    PubKeyPayload,
    ShareBundlePayload,
    ShareVectorPayload,
    UnmaskEntry,
    UnmaskPayload,
    VectorPayload,
)

PERSONAL_SEED_BITS = 256


class OpsTally:
    """Analytic count of the field operations a client performs.

    Counts reflect the logical work of the protocol step; shared caches in
    the implementation do not reduce them.
    """

    __slots__ = ("add", "mul", "inv")

    def __init__(self):
        self.add = 0
        self.mul = 0
        self.inv = 0


LWE_MASK_BLOCK = 64  # secrets per batched A.S product; bounds it at O(64 m)


class RoundContext:
    """What the clients of one round share, dropped with the round.

    It holds the LWE matrix handle, each lwe client's secret (registered
    when the client is built) and a memo of survivor-invariant work.  A
    memo entry is keyed on every input that determines it, never on the
    client that asked, so a survivor with a different view recomputes.
    An opening is keyed on the payload objects it reads, which hash by
    identity: one object serves every recipient of a message, so the
    survivors that received the same messages share one opening.  The
    share rows of those payloads are read-only from the moment they are
    built, so an object always stands for the same rows.
    """

    def __init__(self, matrix_ops=None):
        self.matrix_ops = matrix_ops
        self.secrets: list[np.ndarray] = []
        self.memo: dict = {}

    def register_secret(self, s: np.ndarray) -> int:
        self.secrets.append(s)
        return len(self.secrets) - 1

    def mask_product(self, index: int) -> np.ndarray:
        """A.s of the secret registered at index.  The first request in a
        block of LWE_MASK_BLOCK secrets computes A.S for all of them in one
        product, which replaces the previous block's."""
        start = index - index % LWE_MASK_BLOCK
        if self.memo.get("A.S", (None,))[0] != start:
            self.memo["A.S"] = (start, self.matrix_ops.matvec(
                np.stack(self.secrets[start:start + LWE_MASK_BLOCK])))
        return self.memo["A.S"][1][:, index - start]

    def cached(self, key: tuple, compute):
        """The memoized compute() under key."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]


@dataclass
class AggregateResult:
    """Outcome of one aggregation round, identical at every survivor."""

    average: np.ndarray
    contributors: tuple[int, ...]
    exact: bool
    field_sum: np.ndarray
    noise_sigma_effective: float | None = None


class BaseClient:
    def __init__(self, cid: int, cfg, w, rng, ctx: RoundContext,
                 round_index: int = 0):
        self.id = cid
        self.cfg = cfg
        self.rng = rng
        self.ctx = ctx
        self.round = round_index
        self.ops = OpsTally()
        self.contributors: tuple[int, ...] | None = None
        self._seen: set[tuple[MsgKind, int]] = set()
        if w is not None:
            if len(w) != cfg.m:
                raise ValueError(f"input has {len(w)} coords, config says {cfg.m}")
            self.enc_w = encode_vec(w, cfg.fp, cfg.field)

    def _msg(self, kind: MsgKind, payload) -> ProtocolMessage:
        return ProtocolMessage(kind=kind, sender=self.id, round=self.round,
                               payload=payload)

    def _broadcast(self, kind: MsgKind, payload) -> Entry:
        """One entry addressing the same message to every peer."""
        return ((*range(self.id), *range(self.id + 1, self.cfg.n)),
                self._msg(kind, payload))

    def _accept(self, inbox: list[ProtocolMessage],
                allowed: tuple[MsgKind, ...]):
        """Check every message's round, kind and (kind, sender) key in
        inbox order, so the first offender raises."""
        for msg in inbox:
            if msg.round != self.round:
                raise UnexpectedMessage(
                    f"client {self.id}: round {msg.round} != {self.round}")
            if msg.kind not in allowed:
                raise UnexpectedMessage(
                    f"client {self.id}: {msg.kind.name} not expected now")
            key = (msg.kind, msg.sender)
            if key in self._seen:
                raise DuplicateSender(f"client {self.id}: second "
                                      f"{msg.kind.name} from {msg.sender}")
            self._seen.add(key)

    def _set_contributors(self, ids: tuple[int, ...]):
        if not ids:
            raise InsufficientContributors("empty contributor set")
        if self.contributors is not None and self.contributors != ids:
            raise UnexpectedMessage(
                f"client {self.id}: contributor set changed")
        self.contributors = ids

    def _open(self, tag: str, view: dict, first_point: int, open_rows):
        """open_rows(xs, payloads) of the openers' payloads in the view
        (sender -> payload), in sender order, sender s at point
        first_point + s; memoized under the payload objects, whose rows
        are read-only, so only a survivor that holds another payload
        reopens."""
        items = sorted(view.items())
        return self.ctx.cached((tag, *items), lambda: open_rows(
            tuple(first_point + s for s, _ in items), [p for _, p in items]))


# --- share-vector protocol (plain/packed Shamir) ------------------------------


class NvClient(BaseClient):
    """Algorithm: packed-share the encoded input to everyone, sum the
    received per-sender share vectors over the contributor set, broadcast
    the aggregated share, reconstruct once t+k-1 points are in hand."""

    SHARE_KIND = MsgKind.INPUT_SHARE_VECTOR
    SUM_KIND = MsgKind.AGGREGATED_SHARE_VECTOR
    ACCEPTS = (SHARE_KIND, MsgKind.CONTRIBUTOR_SET, SUM_KIND)

    def __init__(self, cid, cfg, w, rng, ctx: RoundContext,
                 round_index: int = 0):
        super().__init__(cid, cfg, w, rng, ctx, round_index)
        vec_len = self._shared_len()
        self._header = (chunk_count(vec_len, cfg.k), vec_len, cfg.t, cfg.k)
        # share rows per sender, at point k+1+id, and summed-share payloads
        # per sender, at point k+1+sender, all with the header above
        self._shares: dict[int, np.ndarray] = {}
        self._sum_shares: dict[int, ShareVectorPayload] = {}

    def _shared_len(self) -> int:
        return self.cfg.m

    def start(self) -> list[Entry]:
        return self._share_out(self.enc_w)

    def _checked(self, msg: ProtocolMessage):
        """The payload of a share bundle or summed share, whose header
        must be this client's."""
        if msg.payload.header != self._header:
            raise PointMismatch(
                f"client {self.id}: share header {msg.payload.header} from "
                f"{msg.sender} != {self._header}")
        return msg.payload

    def on_message(self, inbox: list[ProtocolMessage]) -> list[Entry]:
        self._accept(inbox, self.ACCEPTS)
        out = []
        for msg in inbox:
            if msg.kind == self.SHARE_KIND:
                if self.contributors is not None:
                    raise UnexpectedMessage(
                        f"client {self.id}: {msg.kind.name} after the "
                        f"contributor set")
                self._shares[msg.sender] = self._checked(msg).rows[self.id]
            elif msg.kind == MsgKind.CONTRIBUTOR_SET:
                out += self._sum_out(msg.payload.ids)
            elif msg.kind == MsgKind.MASKED_VECTOR:  # lwe only, see ACCEPTS
                self._masked[msg.sender] = msg.payload.vec
            else:
                self._sum_shares[msg.sender] = self._checked(msg)
        return out

    def _sum_out(self, contributors: tuple[int, ...]) -> list[Entry]:
        """Sum the contributors' share rows and broadcast the sum."""
        self._set_contributors(contributors)
        missing = [s for s in self.contributors if s not in self._shares]
        if missing:
            raise MissingKeyShares(
                f"client {self.id}: no shares from contributors {missing}")
        agg = add_share_vectors(
            (self._shares[s] for s in self.contributors), self.cfg.field)
        self.ops.add += len(agg) * (len(self.contributors) - 1)
        _, vec_len, t, k = self._header
        payload = self._sum_shares[self.id] = ShareVectorPayload(
            agg, vec_len, t, k)
        return [self._broadcast(self.SUM_KIND, payload)]

    def _share_out(self, vec) -> list[Entry]:
        """Packed-share vec, keep this client's own row, and send every
        peer the bundle of rows."""
        cfg = self.cfg
        rows = share_vector(vec, cfg.t, cfg.n, cfg.k, self.rng, cfg.field)
        chunks = rows.shape[1]
        d = cfg.t + cfg.k - 1
        self.ops.mul += chunks * (cfg.n - cfg.t + 1) * d
        self.ops.add += chunks * (cfg.n - cfg.t + 1) * (d - 1)
        self._shares[self.id] = rows[self.id]
        return [self._broadcast(self.SHARE_KIND,
                                ShareBundlePayload(rows, self._header[1:]))]

    def _open_sum(self) -> np.ndarray:
        """Reconstruct the summed vector from the summed shares in hand,
        as a read-only array that survivors with the same view share."""
        cfg = self.cfg
        need = cfg.t + cfg.k - 1
        if self.contributors is None:
            raise InsufficientContributors(f"client {self.id}: no contributor set")
        if len(self._sum_shares) < need:
            raise InsufficientSurvivors(
                f"client {self.id}: {len(self._sum_shares)} summed shares "
                f"< t+k-1 = {need}")
        chunks, vec_len = self._header[:2]

        def open_rows(xs, payloads):
            vec = reconstruct_vector(xs, [p.row for p in payloads], cfg.t,
                                     cfg.k, vec_len, cfg.field)
            vec.flags.writeable = False
            return vec

        vec = self._open("open", self._sum_shares, cfg.k + 1, open_rows)
        self.ops.mul += chunks * cfg.k * need
        self.ops.add += chunks * cfg.k * (need - 1)
        return vec

    def finalize(self) -> AggregateResult:
        cfg = self.cfg
        field_sum = self._open_sum()
        avg = decode_vec(field_sum, len(self.contributors), cfg.fp,
                         cfg.field) / len(self.contributors)
        return AggregateResult(average=avg, contributors=self.contributors,
                               exact=True, field_sum=field_sum)


# --- LWE-masking protocol ------------------------------------------------------


class LweClient(NvClient):
    """Mask the encoded input with A.s + e, and run nv's steps on s: share
    it, sum the shares over the contributors, and open only the summed
    secret, whose A.s_sum finalize removes."""

    SHARE_KIND = MsgKind.KEY_SHARE
    SUM_KIND = MsgKind.SECRET_SUM_SHARE
    ACCEPTS = (SHARE_KIND, MsgKind.MASKED_VECTOR, MsgKind.CONTRIBUTOR_SET,
               SUM_KIND)

    def __init__(self, cid, cfg, w, rng, ctx: RoundContext,
                 round_index: int = 0):
        super().__init__(cid, cfg, w, rng, ctx, round_index)
        self.s = rng.integers(0, cfg.field.q, size=cfg.lwe.n_lwe,
                              dtype=np.uint64)
        self._secret_index = ctx.register_secret(self.s)
        self._masked: dict[int, np.ndarray] = {}

    def _shared_len(self) -> int:
        return self.cfg.lwe.n_lwe

    def start(self) -> list[Entry]:
        return self._share_out(self.s)

    def emit_masked(self) -> list[Entry]:
        cfg = self.cfg
        e = gaussian_error(cfg.lwe.sigma, cfg.m, self.rng, cfg.field)
        h = add_mod(self.enc_w, self.ctx.mask_product(self._secret_index),
                    cfg.field)
        h = add_mod(h, e, cfg.field)
        self.ops.mul += cfg.m * cfg.lwe.n_lwe
        self.ops.add += cfg.m * (cfg.lwe.n_lwe + 1)
        self._masked[self.id] = h
        return [self._broadcast(MsgKind.MASKED_VECTOR, VectorPayload(h))]

    def finalize(self) -> AggregateResult:
        cfg = self.cfg
        s_sum = self._open_sum()
        missing_h = [s for s in self.contributors if s not in self._masked]
        if missing_h:
            raise InsufficientContributors(
                f"client {self.id}: masked vectors missing from {missing_h}")
        h_sum = sum_mod((self._masked[s] for s in self.contributors), cfg.field)
        # every survivor that opened the same s_sum removes the same A.s_sum
        mask = self.ctx.cached(("A.s_sum", s_sum.tobytes()),
                               lambda: self.ctx.matrix_ops.matvec(s_sum))
        field_sum = sub_mod(h_sum, mask, cfg.field)
        self.ops.mul += cfg.m * cfg.lwe.n_lwe
        self.ops.add += cfg.m * (cfg.lwe.n_lwe + len(self.contributors))
        n_contrib = len(self.contributors)
        avg = decode_vec(field_sum, n_contrib, cfg.fp, cfg.field) / n_contrib
        return AggregateResult(
            average=avg, contributors=self.contributors, exact=False,
            field_sum=field_sum,
            noise_sigma_effective=cfg.lwe.sigma * float(np.sqrt(n_contrib)))


# --- pairwise-masking protocol --------------------------------------------------


class PwClient(BaseClient):
    """Double masking with DH-derived pairwise streams.

    Pairwise masks cancel between surviving pairs; a personal mask makes
    it safe to include clients that dropped after their masked vector went
    out.  Recovery opens exactly one secret per peer: the DH key of a
    client that never broadcast, or the personal seed of one that did.
    """

    def __init__(self, cid, cfg, w, rng, ctx: RoundContext,
                 round_index: int = 0):
        super().__init__(cid, cfg, w, rng, ctx, round_index)
        self.keypair = dh_keygen(cfg.dh, rng)
        self.personal_seed = rng.bytes(32) if cfg.personal_mask else None
        self._pks: dict[int, int] = {cid: self.keypair.pk}
        # held shares: my uint64 share row of each owner's chunked secret
        self._key_shares: dict[int, np.ndarray] = {}
        self._seed_shares: dict[int, np.ndarray] = {}
        self._masked: dict[int, np.ndarray] = {}
        # unmask payload per opener, this client's own included
        self._unmask: dict[int, UnmaskPayload] = {}

    @property
    def _order_bits(self) -> int:
        return self.cfg.dh.subgroup_order.bit_length()

    def _share_secret(self, value: int, total_bits: int, kind: MsgKind,
                      held: dict) -> Entry:
        """Chunk-share value, keep this client's own row in held, and send
        every peer the bundle of rows."""
        cfg = self.cfg
        rows = share_integer(value, total_bits, cfg.t, cfg.n, self.rng,
                             cfg.field)
        held[self.id] = rows[self.id]
        return self._broadcast(kind, ShareBundlePayload(rows))

    def start(self) -> list[Entry]:
        cfg = self.cfg
        out = [self._broadcast(MsgKind.PUB_KEY, PubKeyPayload(
            self.keypair.pk, cfg.dh.residue_bytes))]
        out.append(self._share_secret(self.keypair.sk, self._order_bits,
                                      MsgKind.KEY_SHARE, self._key_shares))
        if cfg.personal_mask:
            out.append(self._share_secret(
                int.from_bytes(self.personal_seed, "big"), PERSONAL_SEED_BITS,
                MsgKind.PERSONAL_SEED_SHARE, self._seed_shares))
        return out

    def _apply_masks(self, v: np.ndarray, terms) -> np.ndarray:
        """v plus sign * stream_expand(seed, tag) for each (sign, seed,
        tag) term: the streams of each sign are expanded lazily into one
        stacked sum_mod, so at most a block of them is held at once."""
        cfg = self.cfg
        for sign, combine in ((1, add_mod), (-1, sub_mod)):
            seeds = [(seed, tag) for s, seed, tag in terms if s == sign]
            if seeds:
                v = combine(v, sum_mod(
                    (stream_expand(seed, tag, cfg.m, cfg.field)
                     for seed, tag in seeds), cfg.field), cfg.field)
        return v

    def emit_masked(self) -> list[Entry]:
        cfg = self.cfg
        terms = [(1, self.personal_seed, TAG_PERSONAL)] if cfg.personal_mask else []
        terms += [(1 if self.id < j else -1,
                   dh_agree(self.keypair.sk, self._pks[j], cfg.dh), TAG_PAIRWISE)
                  for j in sorted(self._pks) if j != self.id]
        y = self._apply_masks(self.enc_w, terms)
        self.ops.add += cfg.m * len(terms)
        self._masked[self.id] = y
        return [self._broadcast(MsgKind.MASKED_VECTOR, VectorPayload(y))]

    def on_message(self, inbox: list[ProtocolMessage]) -> list[Entry]:
        self._accept(inbox, (MsgKind.PUB_KEY, MsgKind.KEY_SHARE,
                             MsgKind.PERSONAL_SEED_SHARE, MsgKind.MASKED_VECTOR,
                             MsgKind.CONTRIBUTOR_SET, MsgKind.UNMASK_SHARE))
        out = []
        for msg in inbox:
            kind, sender, payload = msg.kind, msg.sender, msg.payload
            if kind == MsgKind.PUB_KEY:
                self._pks[sender] = payload.residue
            elif kind == MsgKind.KEY_SHARE:
                self._key_shares[sender] = payload.rows[self.id]
            elif kind == MsgKind.PERSONAL_SEED_SHARE:
                if not self.cfg.personal_mask:
                    raise UnexpectedMessage(f"client {self.id}: seed share "
                                            f"with personal masking off")
                self._seed_shares[sender] = payload.rows[self.id]
            elif kind == MsgKind.MASKED_VECTOR:
                self._masked[sender] = payload.vec
            elif kind == MsgKind.CONTRIBUTOR_SET:
                self._set_contributors(payload.ids)
                out += self._emit_unmask()
            else:  # UNMASK_SHARE: the sender opens its held shares
                self._unmask[sender] = payload  # at point sender+1
        return out

    def _classify(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(contributors, dropped-after-setup): the second group finished
        key setup but never broadcast a masked vector."""
        setup_set = set(self._pks)
        dropped = tuple(sorted(setup_set - set(self.contributors)))
        stray = set(self.contributors) - setup_set
        if stray:
            raise MissingKeyShares(
                f"client {self.id}: contributors {sorted(stray)} skipped setup")
        return self.contributors, dropped

    def _emit_unmask(self) -> list[Entry]:
        if self.id in self._unmask:
            return []
        contributors, dropped = self._classify()
        overlap = set(contributors) & set(dropped)
        if overlap:
            raise SafetyViolation(
                f"client {self.id}: both secrets of {sorted(overlap)} requested")
        entries = [UnmaskEntry(k, SECRET_DH_KEY, self._key_shares[k])
                   for k in dropped]
        if self.cfg.personal_mask:
            entries += [UnmaskEntry(i, SECRET_PERSONAL_SEED, self._seed_shares[i])
                        for i in contributors]
        payload = self._unmask[self.id] = UnmaskPayload(tuple(entries))
        if not entries:
            return []
        return [self._broadcast(MsgKind.UNMASK_SHARE, payload)]

    def _open_secrets(self) -> tuple[int, ...]:
        """Every secret named by this client's own unmask entries, opened
        from its own and the other openers' share rows side by side in one
        interpolation.  The check that every opener names the same secrets
        runs with the opening, once per view of unmask payloads."""
        names = self._unmask[self.id].names

        def open_rows(xs, payloads):
            for sender, payload in self._unmask.items():
                if payload.names != names:
                    raise UnmaskMismatch(
                        f"client {self.id}: unmask shares from {sender} name "
                        f"other secrets than its own")
            if not names:
                return ()
            if len(xs) < self.cfg.t:
                raise InsufficientSurvivors(
                    f"client {self.id}: {len(xs)} shares of each opened "
                    f"secret < t = {self.cfg.t}")
            widths = [self._order_bits if kind == SECRET_DH_KEY
                      else PERSONAL_SEED_BITS for kind, _, _ in names]
            return tuple(reconstruct_integer(
                xs, np.stack([p.row for p in payloads]), self.cfg.t, widths,
                self.cfg.field))

        opened = self._open("pw-open", self._unmask, 1, open_rows)
        self.ops.inv += len(self._unmask) * len(names)
        return opened

    def finalize(self) -> AggregateResult:
        cfg = self.cfg
        if self.contributors is None:
            raise InsufficientContributors(f"client {self.id}: no contributor set")
        contributors, dropped = self._classify()
        v = sum_mod((self._masked[i] for i in contributors), cfg.field)
        self.ops.add += cfg.m * (len(contributors) - 1)
        opened = self._open_secrets()
        # entries name the dropped clients' keys, then the personal seeds
        keys, seeds = opened[:len(dropped)], opened[len(dropped):]

        def correction():
            terms = [(-1, s.to_bytes(32, "big"), TAG_PERSONAL) for s in seeds]
            terms += [(-1 if j < k else 1, dh_agree(a_k, self._pks[j], cfg.dh),
                       TAG_PAIRWISE)
                      for k, a_k in zip(dropped, keys) for j in contributors]
            return self._apply_masks(np.zeros(cfg.m, dtype=np.uint64), terms)

        # the signed sum of every stream this survivor must remove, shared
        # by the survivors that derived the same inputs
        pks = tuple(self._pks[j] for j in contributors)
        v = add_mod(v, self.ctx.cached(
            ("pw-correction", contributors, dropped, opened, pks),
            correction), cfg.field)
        self.ops.add += cfg.m * (len(seeds) + len(dropped) * len(contributors))
        n_contrib = len(contributors)
        avg = decode_vec(v, n_contrib, cfg.fp, cfg.field) / n_contrib
        return AggregateResult(average=avg, contributors=contributors,
                               exact=True, field_sum=v)
