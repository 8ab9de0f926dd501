"""Per-client state machines for the three aggregation protocols.

Each client is single-threaded and event-driven: peer traffic and the
bus-issued contributor set arrive through on_message, one inbox per stage
(the messages that reached the client, in (sender, kind) order), which
returns the outbox entries (recipients, message) the inbox triggers.  A
client's shares of a secret leave as one entry, a share bundle addressed to
every peer, of which each peer reads its own row.  Stage starts that in a
real deployment would come from a synchrony barrier (begin masking, begin
the round) are explicit method calls by the round driver.

Every client holds what it has heard in one store, got[kind][sender] ->
payload, with its own broadcasts under its own id, and one routine,
BaseClient._checked, checks every inbox before any of it is held: its first
offender raises a typed error.  Under stage-atomic dropout every survivor
ends a stage with the same store, so the routine runs once per stage, on
its one delivered list, and a client whose inbox is that list less its own
messages takes the stage's read-only sender -> payload maps as its store,
shared with every other such client.  Any other inbox (the contributor
set, a forged one, a partial delivery) runs the routine on its own.
Clients never see who dropped except through the contributor set, which
only the bus announces and which is the one trigger of the final stage; a
payload it needs that never arrived raises a typed ProtocolError.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from types import MappingProxyType

import numpy as np

from ..errors import (
    DuplicateSender,
    InsufficientContributors,
    InsufficientSurvivors,
    MissingKeyShares,
    PointMismatch,
    SafetyViolation,
    SecAggError,
    UnexpectedMessage,
    UnmaskMismatch,
)
from ..field import (SUM_BLOCK, add_block_mod, add_mod, add_signed_mod,
                     decode_vec, encode_vec, sub_mod, sum_mod)
from ..masking import (
    TAG_PAIRWISE,
    TAG_PERSONAL,
    dh_agree,
    dh_keygen,
    gaussian_draws,
    small_secret,
    stream_expand,
)
from ..masking import gaussian_error  # noqa: F401 -- perfbench's tracer wraps it here
from ..shamir import (
    add_share_vectors,
    chunk_bits_for,
    chunk_count,
    reconstruct_integer,
    reconstruct_vector,
    share_integer,
    share_vector,
)
from .messages import (
    BUS_SENDER,
    SECRET_DH_KEY,
    SECRET_PERSONAL_SEED,
    Entry,
    MsgKind,
    ProtocolMessage,
    PubKeyPayload,
    ShareBundlePayload,
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
# Coefficient columns per block sharing product, so at most 64 clients.
# Wider products save no time and cost memory: at 128 columns or more
# pw rounds reached a higher peak RSS, and a block of nv's 2,000-column
# sharings took longer than its clients' own products.
SHARE_BLOCK_COLUMNS = 64


def block_size(columns: int) -> int:
    """Inputs per block sharing product for inputs columns coefficient
    columns wide: SHARE_BLOCK_COLUMNS columns, or one input wider."""
    return max(1, SHARE_BLOCK_COLUMNS // columns)


def _read_only(v: np.ndarray) -> np.ndarray:
    v.flags.writeable = False
    return v


class RoundContext:
    """What the clients of one round share, dropped with the round.

    It holds the LWE matrix handle, one (value, rng) input per client, in
    registration order (what the client shares or, for lwe, its secret,
    with its rng; never the client itself, so no reference cycle keeps a
    round alive), and a memo of survivor-invariant work.  A memo entry is
    keyed on every input that determines it, never on the client that
    asked, so a survivor with a different view recomputes.  An opening or
    a masked-vector sum is keyed on the payload objects it reads, which
    hash by identity: one object serves every recipient of a message, so
    the survivors that received the same messages share one result.  The
    rows of those payloads are read-only from the moment they are built,
    so an object always stands for the same rows.  What follows from
    such shared arrays (an unmasked sum, a decoded result) is keyed on
    their identities in turn, so those survivors finish on one object.
    """

    def __init__(self, matrix_ops=None):
        self.matrix_ops = matrix_ops
        self.inputs: list[tuple] = []
        self.memo: dict = {}
        # the one list the current stage delivered, from which the bus cut
        # every live client's inbox; None for the contributor set, which
        # every client checks on its own
        self.stage: list | None = None

    def register(self, value, rng) -> int:
        """Hold a client's input and rng; returns its index."""
        self.inputs.append((value, rng))
        return len(self.inputs) - 1

    def _block(self, key, index: int, size: int, compute):
        """(compute(pairs), index's place in them) for the block of size
        consecutive inputs that holds index.  The first request in a block
        computes it, which replaces the previous block's under key."""
        start = index - index % size
        held = self.memo.get(key)
        if held is None or held[0] != start:
            held = self.memo[key] = (
                start, compute(self.inputs[start:start + size]))
        return held[1], index - start

    def mask_product(self, index: int) -> np.ndarray:
        """A.s of the secret registered at index, from one A.S product for
        its block of LWE_MASK_BLOCK secrets."""
        def product(pairs):
            return self.matrix_ops.matvec(np.stack([s for s, _ in pairs]))

        block, place = self._block("A.S", index, LWE_MASK_BLOCK, product)
        return block[:, place]

    def share_rows(self, index: int, share, size: int) -> np.ndarray:
        """The share matrix of the input registered at index.  share(pairs)
        shares a block of size consecutive (value, rng) pairs in one
        product, every input of a round asking with the same size.  Every
        member's rng is then set back to where it was, and moves past its
        anchors only when that member asks for its rows, so each rng draws
        as the member's own sharing would, and a member that never shares
        draws nothing."""

        def shared(pairs):
            gens = [rng.bit_generator for _, rng in pairs]
            before = [g.state for g in gens]
            rows = share(pairs)
            after = [g.state for g in gens]
            for g, state in zip(gens, before):
                g.state = state
            return rows, after

        (rows, after), place = self._block("shares", index, size, shared)
        self.inputs[index][1].bit_generator.state = after[place]
        return rows[place]

    def cached(self, key: tuple, compute):
        """The memoized compute() under key."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def derived(self, key: tuple, inputs: tuple, compute):
        """The memoized compute() under key and the identities of the
        objects of inputs, which the entry holds, so that no identity it
        is keyed on is reused while it lives."""
        return self.cached((*key, *map(id, inputs)),
                           lambda: (inputs, compute()))[1]


class Store(dict):
    """A client's store, kind -> {sender: payload}.  A kind may hold a
    stage's read-only map, shared with the other clients that took the
    stage; view reads what is held as it is, and subscripting, the way to
    write, first replaces a shared map by this client's own copy, so that
    no write reaches another client's store."""

    def view(self, kind: MsgKind):
        """What kind holds, shared or not; None for a kind not held."""
        return dict.get(self, kind)

    def __getitem__(self, kind: MsgKind) -> dict:
        held = dict.__getitem__(self, kind)
        if type(held) is not dict:
            held = dict(held)
            dict.__setitem__(self, kind, held)
        return held


@dataclass(frozen=True)
class AggregateResult:
    """Outcome of one aggregation round, identical at every survivor.
    Survivors with the same view return one object, so it is frozen and
    its arrays are read-only."""

    average: np.ndarray
    contributors: tuple[int, ...]
    exact: bool
    field_sum: np.ndarray
    noise_sigma_effective: float | None = None


class BaseClient:
    """A client's one store of what it holds and its one receive pass.

    got[kind][sender] is the payload of kind that sender broadcast, for
    every kind in the class's ACCEPTS; this client's own broadcasts are
    held there under its own id, and the bus's contributor set under
    BUS_SENDER.  A payload stays whole, so a share bundle is held as the
    bundle, of which this client reads only its own row.  got[kind] may
    be a stage's read-only map, shared with the other survivors (see
    Store), so this class reads through got.view.  headers[kind] is the header
    every share payload or masked vector of kind must carry, and a kind
    of LOCKED_BY_CONTRIBUTORS may not arrive after the contributor set."""

    ACCEPTS: tuple[MsgKind, ...] = ()
    LOCKED_BY_CONTRIBUTORS: tuple[MsgKind, ...] = ()

    def __init__(self, cid: int, cfg, w, rng, ctx: RoundContext,
                 round_index: int = 0):
        self.id = cid
        self.cfg = cfg
        self.rng = rng
        self.ctx = ctx
        self.round = round_index
        self.ops = OpsTally()
        self.contributors: tuple[int, ...] | None = None
        self.got = Store((kind, {}) for kind in self.ACCEPTS)
        # a masked vector holds m elements (checked where the kind is
        # accepted)
        self.headers: dict[MsgKind, tuple[int, ...]] = {
            MsgKind.MASKED_VECTOR: (cfg.m,)}
        if len(w) != cfg.m:
            raise ValueError(f"input has {len(w)} coords, config says {cfg.m}")
        self.enc_w = encode_vec(w, cfg.fp, cfg.field)

    def _broadcast(self, kind: MsgKind, payload) -> Entry:
        """Hold payload as this client's own of kind, and return one entry
        addressing it to every peer."""
        self.got[kind][self.id] = payload
        return ((*range(self.id), *range(self.id + 1, self.cfg.n)),
                ProtocolMessage(kind, self.id, self.round, payload))

    def on_message(self, inbox: list[ProtocolMessage]) -> list[Entry]:
        """Hold inbox's sender -> payload map of each kind: the stage's
        shared maps where _take_stage takes them, else _checked's maps of
        inbox against this client's store, which raises for the first
        offender.  The contributor set returns the final stage's entries,
        from the class's _final_out."""
        maps = self._take_stage(inbox)
        if maps is None:
            maps = self._checked(inbox, self.got, self.id)
            for kind, view in maps.items():
                self.got[kind].update(view)
        else:
            self.got.update(maps)
        if MsgKind.CONTRIBUTOR_SET not in maps:
            return []
        self.contributors = maps[MsgKind.CONTRIBUTOR_SET][BUS_SENDER].ids
        return self._final_out()

    def _checked(self, messages: list[ProtocolMessage], held, reader: int
                 ) -> dict[MsgKind, dict]:
        """The one check of every inbox: the sender -> payload map of each
        kind of messages, each checked in order against held (kind ->
        sender -> payload) and the messages before it.  It needs this
        round, a kind of held and one message per (sender, kind); then a
        contributor set from the bus alone, of increasing client ids, and
        any other kind unlocked by a contributor set, with its kind's
        header and, as a share bundle, a row for client reader.  The first
        offender raises its typed error, naming this client."""
        maps: dict[MsgKind, dict] = {}
        locked = self.contributors is not None
        me, n = f"client {self.id}", self.cfg.n
        for msg in messages:
            kind, sender, p = msg.kind, msg.sender, msg.payload
            if msg.round != self.round:
                raise UnexpectedMessage(
                    f"{me}: round {msg.round} != {self.round}")
            if kind not in held:
                raise UnexpectedMessage(f"{me}: {kind.name} not expected now")
            view = maps.setdefault(kind, {})
            if sender in view or sender in held.get(kind):
                raise DuplicateSender(
                    f"{me}: second {kind.name} from {sender}")
            if kind == MsgKind.CONTRIBUTOR_SET:
                if sender != BUS_SENDER:
                    raise UnexpectedMessage(f"{me}: {kind.name} from {sender}")
                if not p.ids:
                    raise InsufficientContributors("empty contributor set")
                if not all(map(lt, (-1, *p.ids), (*p.ids, n))):
                    raise UnexpectedMessage(f"{me}: contributor set {p.ids} "
                                            f"is not increasing ids below {n}")
                locked = True
            elif locked and kind in self.LOCKED_BY_CONTRIBUTORS:
                raise UnexpectedMessage(
                    f"{me}: {kind.name} after the contributor set")
            elif (header := self.headers.get(kind)) is not None:
                if p.header != header:
                    raise PointMismatch(f"{me}: {kind.name} header {p.header} "
                                        f"from {sender} != {header}")
                if isinstance(p, ShareBundlePayload) and len(p.rows) <= reader:
                    raise PointMismatch(f"{me}: share bundle from {sender} "
                                        f"has no row {reader}")
            view[sender] = p
        return maps

    def _take_stage(self, inbox: list[ProtocolMessage]):
        """The stage's checked maps, shared by every client of this rule,
        if inbox is the stage list less this client's own messages and the
        store holds nothing of their kinds but this client's own
        broadcast, the very payload of the map; else None."""
        messages = self.ctx.stage
        if messages is None:
            return None
        rule = ("stage", self.round, tuple(self.got),
                tuple(self.headers.items()), self.cfg.n,
                self.contributors is not None)
        checked = self.ctx.derived(rule, (messages,),
                                   lambda: self._check_stage(messages))
        if checked is None:
            return None
        maps, runs = checked
        start, end = runs.get(self.id, (0, 0))
        if inbox != messages[:start] + messages[end:]:
            return None
        for kind, view in maps.items():
            # held: nothing, or what the map holds as this client's own
            held, own = self.got.view(kind), view.get(self.id)
            if held if own is None else (
                    len(held) != 1 or held.get(self.id) is not own):
                return None
        return maps

    def _check_stage(self, messages: list[ProtocolMessage]):
        """(read-only maps of messages, each sender's run (start, end) of
        them) if _checked passes them for a client of this rule that holds
        nothing of their kinds, every bundle with a row for every client;
        None if it raises, so that each client checks its own inbox."""
        try:
            maps = self._checked(messages, dict.fromkeys(self.got, {}),
                                 self.cfg.n - 1)
        except SecAggError:
            return None
        runs: dict[int, tuple[int, int]] = {}
        for i, msg in enumerate(messages):
            runs[msg.sender] = (runs.get(msg.sender, (i,))[0], i + 1)
        return ({kind: MappingProxyType(view)
                 for kind, view in maps.items()}, runs)

    def _held(self, kind: MsgKind, senders, error, missing: str) -> list:
        """The payloads of kind from senders, in order; error(missing with
        the senders not heard from) if any is absent."""
        held = self.got.view(kind)
        absent = [s for s in senders if s not in held]
        if absent:
            raise error(f"client {self.id}: " + missing.format(absent))
        return [held[s] for s in senders]

    def _shared(self, tag: str, view: dict, compute):
        """compute(senders, payloads) of the view (sender -> payload), in
        sender order; memoized under the payload objects, whose rows are
        read-only, so only a survivor that holds another payload
        recomputes."""
        items = sorted(view.items())
        return self.ctx.cached((tag, *items), lambda: compute(
            tuple(s for s, _ in items), [p for _, p in items]))

    def _masked_sum(self) -> np.ndarray:
        """The sum of the contributors' masked vectors, as a read-only
        array that survivors holding the same payloads share."""
        view = dict(zip(self.contributors, self._held(
            MsgKind.MASKED_VECTOR, self.contributors, InsufficientContributors,
            "masked vectors missing from {}")))

        def total(_, payloads):
            return _read_only(sum_mod((p.vec for p in payloads),
                                      self.cfg.field))

        self.ops.add += self.cfg.m * (len(view) - 1)
        return self._shared("masked-sum", view, total)

    def _result(self, field_sum: np.ndarray, exact: bool = True,
                sigma: float | None = None) -> AggregateResult:
        """The round's outcome from the contributors' field sum: decoded
        and divided by the contributor count, as one object for every
        survivor that holds the same field_sum object."""
        n = len(self.contributors)

        def result():
            avg = _read_only(
                decode_vec(field_sum, n, self.cfg.fp, self.cfg.field) / n)
            return AggregateResult(average=avg, contributors=self.contributors,
                                   exact=exact, field_sum=field_sum,
                                   noise_sigma_effective=sigma)

        return self.ctx.derived(("result", self.contributors, exact, sigma),
                                (field_sum,), result)


# --- share-vector protocol (plain/packed Shamir) ------------------------------


class NvClient(BaseClient):
    """Algorithm: packed-share the encoded input to everyone, sum the
    received per-sender share vectors over the contributor set, broadcast
    the aggregated share, reconstruct once t+k-1 points are in hand."""

    SHARE_KIND = MsgKind.INPUT_SHARE_VECTOR
    SUM_KIND = MsgKind.AGGREGATED_SHARE_VECTOR
    ACCEPTS = (SHARE_KIND, MsgKind.CONTRIBUTOR_SET, SUM_KIND)
    # no share joins the summed shares once they are formed
    LOCKED_BY_CONTRIBUTORS = (SHARE_KIND,)
    SHARE_BLOCK: int | None = None  # inputs per sharing block; by columns

    def __init__(self, cid, cfg, w, rng, ctx: RoundContext,
                 round_index: int = 0):
        super().__init__(cid, cfg, w, rng, ctx, round_index)
        value = self._shared_value()
        # the header of every share this client holds: a sender's bundle
        # row for it, at point k+1+id, and a summed share, at k+1+sender
        chunks = chunk_count(len(value), cfg.k)
        self._header = (chunks, len(value), cfg.t, cfg.k)
        self.headers.update(dict.fromkeys((self.SHARE_KIND, self.SUM_KIND),
                                          self._header))
        self._index = ctx.register(value, rng)

    def _shared_value(self) -> np.ndarray:
        return self.enc_w

    def _share_block(self, pairs) -> list[np.ndarray]:
        cfg = self.cfg
        return share_vector(pairs, cfg.t, cfg.n, cfg.k, field=cfg.field)

    def start(self) -> list[Entry]:
        """Packed-share the input and send every peer the bundle of rows."""
        cfg = self.cfg
        chunks = self._header[0]
        rows = self.ctx.share_rows(self._index, self._share_block,
                                   self.SHARE_BLOCK or block_size(chunks))
        d = cfg.t + cfg.k - 1
        self.ops.mul += chunks * (cfg.n - cfg.t + 1) * d
        self.ops.add += chunks * (cfg.n - cfg.t + 1) * (d - 1)
        return [self._broadcast(self.SHARE_KIND,
                                ShareBundlePayload(rows, self._header[1:]))]

    on_message = BaseClient.on_message  # own attribute: perfbench traces it

    def _final_out(self) -> list[Entry]:
        """Sum the contributors' share rows and broadcast the sum."""
        bundles = self._held(self.SHARE_KIND, self.contributors,
                             MissingKeyShares, "no shares from contributors {}")
        agg = add_share_vectors((b.rows[self.id] for b in bundles),
                                self.cfg.field)
        self.ops.add += len(agg) * (len(self.contributors) - 1)
        return [self._broadcast(self.SUM_KIND,
                                VectorPayload(agg, self._header[1:]))]

    def _open_sum(self) -> np.ndarray:
        """Reconstruct the summed vector from the summed shares in hand,
        as a read-only array that survivors with the same view share."""
        cfg = self.cfg
        need = cfg.t + cfg.k - 1
        if self.contributors is None:
            raise InsufficientContributors(f"client {self.id}: no contributor set")
        sums = self.got.view(self.SUM_KIND)
        if len(sums) < need:
            raise InsufficientSurvivors(
                f"client {self.id}: {len(sums)} summed shares "
                f"< t+k-1 = {need}")
        chunks, vec_len = self._header[:2]

        def open_rows(senders, payloads):
            return _read_only(reconstruct_vector(
                tuple(cfg.k + 1 + s for s in senders),
                [p.vec for p in payloads], cfg.t, cfg.k, vec_len, cfg.field))

        vec = self._shared("open", sums, open_rows)
        self.ops.mul += chunks * cfg.k * need
        self.ops.add += chunks * cfg.k * (need - 1)
        return vec

    def finalize(self) -> AggregateResult:
        return self._result(self._open_sum())


# --- LWE-masking protocol ------------------------------------------------------


class LweClient(NvClient):
    """Mask the encoded input with A.s + e, and run nv's steps on s: share
    it, sum the shares over the contributors, and open only the summed
    secret, whose A.s_sum finalize removes."""

    SHARE_KIND = MsgKind.KEY_SHARE
    SUM_KIND = MsgKind.SECRET_SUM_SHARE
    ACCEPTS = (SHARE_KIND, MsgKind.MASKED_VECTOR, MsgKind.CONTRIBUTOR_SET,
               SUM_KIND)
    LOCKED_BY_CONTRIBUTORS = (SHARE_KIND,)
    # the secrets share in the A.S product's blocks, not by the column
    # budget: lwe-bulk's ten 142-column sharings take one product
    SHARE_BLOCK = LWE_MASK_BLOCK

    def __init__(self, cid, cfg, w, rng, ctx: RoundContext,
                 round_index: int = 0):
        # s, small and stored mod q, is the rng's first draw, and nv's
        # set-up registers it, to share and to mask with
        self.s = small_secret(cfg.lwe.n_lwe, rng, cfg.field)
        super().__init__(cid, cfg, w, rng, ctx, round_index)

    def _shared_value(self) -> np.ndarray:
        return self.s

    def emit_masked(self) -> list[Entry]:
        """Broadcast h = enc_w + A.s + e mod q, formed in one pass from the
        int64 error draws."""
        cfg = self.cfg
        e = gaussian_draws(cfg.lwe.sigma, cfg.m, self.rng)
        h = add_signed_mod(self.enc_w, self.ctx.mask_product(self._index), e,
                           cfg.field)
        self.ops.mul += cfg.m * cfg.lwe.n_lwe
        self.ops.add += cfg.m * (cfg.lwe.n_lwe + 1)
        return [self._broadcast(MsgKind.MASKED_VECTOR, VectorPayload(h))]

    def finalize(self) -> AggregateResult:
        cfg = self.cfg
        s_sum = self._open_sum()
        h_sum = self._masked_sum()
        # every survivor that opened the same s_sum removes the same A.s_sum
        mask = self.ctx.cached(("A.s_sum", s_sum.tobytes()),
                               lambda: self.ctx.matrix_ops.matvec(s_sum))
        # and every one that also holds the same h_sum, the same field sum
        field_sum = self.ctx.derived(("unmask",), (h_sum, mask), lambda: (
            _read_only(sub_mod(h_sum, mask, cfg.field))))
        self.ops.mul += cfg.m * cfg.lwe.n_lwe
        self.ops.add += cfg.m * (cfg.lwe.n_lwe + 1)
        return self._result(field_sum, exact=False, sigma=cfg.lwe.sigma
                            * float(np.sqrt(len(self.contributors))))


# --- pairwise-masking protocol --------------------------------------------------


class PwClient(BaseClient):
    """Double masking with DH-derived pairwise streams.

    Pairwise masks cancel between surviving pairs; a personal mask makes
    it safe to include clients that dropped after their masked vector went
    out.  Recovery opens exactly one secret per peer: the DH key of a
    client that never broadcast, or the personal seed of one that did.
    """

    ACCEPTS = (MsgKind.PUB_KEY, MsgKind.KEY_SHARE, MsgKind.PERSONAL_SEED_SHARE,
               MsgKind.MASKED_VECTOR, MsgKind.CONTRIBUTOR_SET,
               MsgKind.UNMASK_SHARE)

    def __init__(self, cid, cfg, w, rng, ctx: RoundContext,
                 round_index: int = 0):
        super().__init__(cid, cfg, w, rng, ctx, round_index)
        self.keypair = dh_keygen(cfg.dh, rng)
        self.personal_seed = rng.bytes(32) if cfg.personal_mask else None
        # the total bits of each secret this client shares, side by side:
        # the DH key and, with personal masking, the personal seed
        self._secret_widths = {
            SECRET_DH_KEY: cfg.dh.subgroup_order.bit_length()}
        values = [self.keypair.sk]
        if cfg.personal_mask:
            self._secret_widths[SECRET_PERSONAL_SEED] = PERSONAL_SEED_BITS
            values.append(int.from_bytes(self.personal_seed, "big"))
        else:
            del self.got[MsgKind.PERSONAL_SEED_SHARE]
        bits = chunk_bits_for(cfg.field)
        self._chunks = [chunk_count(width, bits)
                        for width in self._secret_widths.values()]
        kinds = (MsgKind.KEY_SHARE, MsgKind.PERSONAL_SEED_SHARE)
        self.headers.update({kind: (chunks,) for kind, chunks
                             in zip(kinds, self._chunks)})
        self._index = ctx.register(values, rng)

    def _share_block(self, pairs) -> list[np.ndarray]:
        cfg = self.cfg
        return share_integer(pairs, list(self._secret_widths.values()),
                             cfg.t, cfg.n, field=cfg.field)

    def start(self) -> list[Entry]:
        """Broadcast the public key, then send the DH key's and the
        personal seed's shares, shared side by side in one product, each
        as its column block."""
        cfg = self.cfg
        out = [self._broadcast(MsgKind.PUB_KEY, PubKeyPayload(
            self.keypair.pk, cfg.dh.residue_bytes))]
        rows = self.ctx.share_rows(self._index, self._share_block,
                                   block_size(sum(self._chunks)))
        split = self._chunks[0]  # the key's chunk count
        out.append(self._broadcast(MsgKind.KEY_SHARE,
                                   ShareBundlePayload(rows[:, :split])))
        if cfg.personal_mask:
            out.append(self._broadcast(MsgKind.PERSONAL_SEED_SHARE,
                                       ShareBundlePayload(rows[:, split:])))
        return out

    def _apply_masks(self, v: np.ndarray, terms) -> np.ndarray:
        """v plus sign * stream_expand(seed, tag) for each (sign, seed,
        tag) term.  The seeds of one tag are expanded SUM_BLOCK at a time
        into one block of rows, each row of sign -1 replaced by q - row (a
        zero row by q itself, which field's block adder takes), and the
        blocks are summed into one accumulator that is added to v once, so
        at most one block of streams is held at once."""
        cfg = self.cfg
        groups: dict[bytes, list[tuple[int, bytes]]] = {}
        for sign, seed, tag in terms:
            groups.setdefault(tag, []).append((sign, seed))
        acc = None
        for tag, signed in groups.items():
            for i in range(0, len(signed), SUM_BLOCK):
                part = signed[i:i + SUM_BLOCK]
                block = stream_expand([seed for _, seed in part], tag, cfg.m,
                                      cfg.field)
                negative = np.array([sign < 0 for sign, _ in part])
                np.subtract(np.uint64(cfg.field.q), block, out=block,
                            where=negative[:, None])
                acc = add_block_mod(acc, block, cfg.field)
        return v if acc is None else add_mod(v, acc, cfg.field)

    def emit_masked(self) -> list[Entry]:
        cfg = self.cfg
        terms = [(1, self.personal_seed, TAG_PERSONAL)] if cfg.personal_mask else []
        terms += [(1 if self.id < j else -1,
                   dh_agree(self.keypair.sk, pk.residue, cfg.dh), TAG_PAIRWISE)
                  for j, pk in sorted(self.got.view(MsgKind.PUB_KEY).items())
                  if j != self.id]
        y = self._apply_masks(self.enc_w, terms)
        self.ops.add += cfg.m * len(terms)
        return [self._broadcast(MsgKind.MASKED_VECTOR, VectorPayload(y))]

    on_message = BaseClient.on_message  # own attribute: perfbench traces it

    def _classify(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(the contributors' public keys, dropped-after-setup): the second
        group finished key setup but never broadcast a masked vector."""
        pks = tuple(p.residue for p in self._held(
            MsgKind.PUB_KEY, self.contributors, MissingKeyShares,
            "contributors {} skipped setup"))
        dropped = tuple(sorted(
            self.got.view(MsgKind.PUB_KEY).keys() - set(self.contributors)))
        return pks, dropped

    def _final_out(self) -> list[Entry]:
        """Broadcast this client's share rows of the secrets to open: the
        DH key of each dropped peer, and each contributor's personal seed."""
        _, dropped = self._classify()
        overlap = set(self.contributors) & set(dropped)
        if overlap:
            raise SafetyViolation(
                f"client {self.id}: both secrets of {sorted(overlap)} requested")
        names = [(SECRET_DH_KEY, k) for k in dropped]
        bundles = self._held(MsgKind.KEY_SHARE, dropped, MissingKeyShares,
                             "no key shares from dropped peers {}")
        if self.cfg.personal_mask:
            names += [(SECRET_PERSONAL_SEED, i) for i in self.contributors]
            bundles += self._held(MsgKind.PERSONAL_SEED_SHARE,
                                  self.contributors, MissingKeyShares,
                                  "no seed shares from contributors {}")
        rows = [b.rows[self.id] for b in bundles]
        payload = UnmaskPayload(
            tuple((kind, target, len(row))
                  for (kind, target), row in zip(names, rows)),
            np.concatenate(rows) if rows else np.empty(0, dtype=np.uint64))
        entry = self._broadcast(MsgKind.UNMASK_SHARE, payload)
        return [entry] if rows else []

    def _open_secrets(self) -> tuple[int, ...]:
        """Every secret named by this client's own unmask entries, opened
        from its own and the other openers' share rows side by side in one
        interpolation.  The check that every opener names the same secrets
        runs with the opening, once per view of unmask payloads."""
        unmask = self.got.view(MsgKind.UNMASK_SHARE)
        names = unmask[self.id].names

        def open_rows(senders, payloads):
            for sender, payload in unmask.items():
                if payload.names != names:
                    raise UnmaskMismatch(
                        f"client {self.id}: unmask shares from {sender} name "
                        f"other secrets than its own")
            if not names:
                return ()
            if len(senders) < self.cfg.t:
                raise InsufficientSurvivors(
                    f"client {self.id}: {len(senders)} shares of each opened "
                    f"secret < t = {self.cfg.t}")
            widths = [self._secret_widths[kind] for kind, _, _ in names]
            return tuple(reconstruct_integer(
                tuple(1 + s for s in senders),
                np.stack([p.row for p in payloads]), self.cfg.t, widths,
                self.cfg.field))

        opened = self._shared("pw-open", unmask, open_rows)
        self.ops.inv += len(unmask) * len(names)
        return opened

    def finalize(self) -> AggregateResult:
        cfg = self.cfg
        if self.contributors is None:
            raise InsufficientContributors(f"client {self.id}: no contributor set")
        contributors = self.contributors
        pks, dropped = self._classify()
        v = self._masked_sum()
        opened = self._open_secrets()
        # entries name the dropped clients' keys, then the personal seeds
        keys, seeds = opened[:len(dropped)], opened[len(dropped):]

        def correction():
            terms = [(-1, s.to_bytes(32, "big"), TAG_PERSONAL) for s in seeds]
            terms += [(-1 if j < k else 1, dh_agree(a_k, pk_j, cfg.dh),
                       TAG_PAIRWISE)
                      for k, a_k in zip(dropped, keys)
                      for j, pk_j in zip(contributors, pks)]
            return self._apply_masks(np.zeros(cfg.m, dtype=np.uint64), terms)

        # the signed sum of every stream this survivor must remove, shared
        # by the survivors that derived the same inputs, as is its sum with
        # the masked vectors
        fix = self.ctx.cached(
            ("pw-correction", contributors, dropped, opened, pks), correction)
        v = self.ctx.derived(("pw-unmask",), (v, fix), lambda: (
            _read_only(add_mod(v, fix, cfg.field))))
        self.ops.add += cfg.m * (len(seeds) + len(dropped) * len(contributors))
        return self._result(v)
