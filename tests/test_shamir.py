from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secaggsim.errors import (
    BadPacking,
    BadThreshold,
    DuplicatePoint,
    NotEnoughShares,
    PointMismatch,
)
from secaggsim.field import FieldPrime
from secaggsim.oracle import brute_force_packed_consistency
from secaggsim.shamir import (
    Share,
    ShareSet,
    add_share_vectors,
    integer_chunks,
    interpolate_at,
    lagrange_basis,
    packed_reconstruct,
    packed_share,
    reconstruct_integer,
    reconstruct_vector,
    share_add,
    share_integer,
    share_vector,
    sss_reconstruct,
    sss_share,
)

F7 = FieldPrime(7)
F17 = FieldPrime(17)
F127 = FieldPrime(127)
M61F = FieldPrime()


def rng(seed=0):
    return np.random.default_rng(seed)


# --- plain sharing -------------------------------------------------------------


def test_t1_every_share_is_secret():
    ss = sss_share(9, t=1, n=4, rng=rng(), field=F17)
    assert all(s.y == 9 for s in ss.shares)


def test_reconstruct_known_polynomial():
    # f(x) = 5 + 2x + 3x^2 over F_17, shares are hand evaluations
    evals = [(x, (5 + 2 * x + 3 * x * x) % 17) for x in (1, 2, 3)]
    assert evals == [(1, 10), (2, 4), (3, 4)]
    ss = ShareSet([Share(x, y) for x, y in evals], t=3, field=F17)
    assert sss_reconstruct(ss) == 5


def test_every_t_subset_reconstructs():
    ss = sss_share(5, t=3, n=5, rng=rng(3), field=F17)
    for combo in combinations(ss.shares, 3):
        assert sss_reconstruct(ShareSet(list(combo), t=3, field=F17)) == 5


def test_t_subset_equals_all_n():
    ss = sss_share(123456, t=4, n=9, rng=rng(4), field=M61F)
    partial = ShareSet(ss.shares[:4], t=4, field=M61F)
    assert sss_reconstruct(partial) == sss_reconstruct(ss) == 123456


def test_share_errors():
    with pytest.raises(BadThreshold):
        sss_share(1, t=0, n=3, rng=rng(), field=F17)
    with pytest.raises(BadThreshold):
        sss_share(1, t=5, n=3, rng=rng(), field=F17)
    with pytest.raises(NotEnoughShares):
        sss_reconstruct(ShareSet([Share(1, 2)], t=2, field=F17))
    with pytest.raises(DuplicatePoint):
        sss_reconstruct(ShareSet([Share(1, 2), Share(1, 3)], t=2, field=F17))


def test_zero_secret_reconstructs_zero():
    ss = sss_share(0, t=3, n=6, rng=rng(5), field=F17)
    assert sss_reconstruct(ss) == 0


def test_share_determinism():
    a = sss_share(7, 3, 5, rng(42), F17)
    b = sss_share(7, 3, 5, rng(42), F17)
    assert a.shares == b.shares


# --- additive homomorphism -------------------------------------------------------


def test_add_identity_with_zero_shares():
    a = sss_share(11, 3, 5, rng(6), F17)
    z = sss_share(0, 3, 5, rng(7), F17)
    assert sss_reconstruct(share_add(a, z)) == 11


def test_add_two_secrets():
    a = sss_share(5, 3, 5, rng(8), F17)
    b = sss_share(9, 3, 5, rng(9), F17)
    assert sss_reconstruct(share_add(a, b)) == 14


def test_sum_over_five_clients():
    total = sss_share(1, 3, 5, rng(10), F17)
    for sec in (2, 3, 4, 5):
        total = share_add(total, sss_share(sec, 3, 5, rng(sec), F17))
    assert sss_reconstruct(total) == 15


def test_point_mismatch_detected():
    a = sss_share(1, 2, 3, rng(0), F17)
    b = sss_share(1, 2, 4, rng(0), F17)
    with pytest.raises(PointMismatch):
        share_add(a, ShareSet(b.shares[1:], t=2, field=F17))


@given(s1=st.integers(0, 16), s2=st.integers(0, 16), seed=st.integers(0, 99))
@settings(max_examples=40)
def test_homomorphism_property(s1, s2, seed):
    a = sss_share(s1, 3, 6, rng(seed), F17)
    b = sss_share(s2, 3, 6, rng(seed + 1000), F17)
    assert sss_reconstruct(share_add(a, b)) == (s1 + s2) % 17


# --- packed sharing ---------------------------------------------------------------


def test_packed_k1_reduces_to_plain_semantics():
    ss = packed_share([6], t=3, n=5, rng=rng(11), field=F17)
    assert ss.k == 1 and len(ss.shares) == 5
    assert packed_reconstruct(ss) == [6]
    # same reconstruction threshold as plain sharing: t shares suffice
    partial = ShareSet(ss.shares[:3], t=3, k=1, field=F17)
    assert packed_reconstruct(partial) == [6]


def test_packed_pair_any_three_of_four():
    ss = packed_share([10, 20], t=2, n=4, rng=rng(12), field=F127)
    for combo in combinations(ss.shares, 3):
        sub = ShareSet(list(combo), t=2, k=2, field=F127)
        assert packed_reconstruct(sub) == [10, 20]


def test_packed_single_share_reveals_nothing():
    # exhaustive over all degree-<=2 polynomials of F_127: one fixed share
    # is consistent with every candidate secret pair equally often
    ss = packed_share([10, 20], t=2, n=4, rng=rng(13), field=F127)
    hist = brute_force_packed_consistency([ss.shares[0]], t=2, k=2, field=F127)
    assert hist.min() == hist.max() == 1


def test_packed_zero_secrets():
    ss = packed_share([0, 0, 0], t=2, n=5, rng=rng(14), field=F127)
    assert packed_reconstruct(ss) == [0, 0, 0]


def test_packed_roundtrip_k4():
    secrets = [int(v) for v in rng(15).integers(0, 127, size=4)]
    ss = packed_share(secrets, t=3, n=8, rng=rng(16), field=F127)
    assert packed_reconstruct(ss) == secrets


def test_packed_sum_elementwise():
    a_sec = [3, 7]
    b_sec = [5, 100]
    a = packed_share(a_sec, 2, 5, rng(17), F127)
    b = packed_share(b_sec, 2, 5, rng(18), F127)
    assert packed_reconstruct(share_add(a, b)) == [8, 107 % 127]


def test_packed_requires_enough_shares():
    with pytest.raises(BadPacking):
        packed_share([1, 2, 3], t=3, n=4, rng=rng(), field=F127)
    ss = packed_share([1, 2], t=2, n=4, rng=rng(19), field=F127)
    with pytest.raises(NotEnoughShares):
        packed_reconstruct(ShareSet(ss.shares[:2], t=2, k=2, field=F127))


def test_share_points_must_lie_below_q():
    # over F_17, secrets at 1..3 and 15 holders at 4..18: the last point,
    # 18, is 1 mod 17, the first secret's own point
    with pytest.raises(ValueError, match="wrap"):
        packed_share([5, 6, 7], t=3, n=15, rng=rng(), field=F17)
    ss = packed_share([5, 6, 7], t=3, n=13, rng=rng(20), field=F17)
    assert packed_reconstruct(ss) == [5, 6, 7]
    # plain holders sit at 1..n
    with pytest.raises(ValueError, match="wrap"):
        sss_share(5, t=3, n=17, rng=rng(), field=F17)
    assert sss_reconstruct(sss_share(5, t=3, n=16, rng=rng(21),
                                     field=F17)) == 5


def test_interpolate_at_matches_direct_eval():
    pts = [(x, (3 + 4 * x + 2 * x ** 2) % 17) for x in (2, 5, 9)]
    for x in range(17):
        assert interpolate_at(pts, x, F17) == (3 + 4 * x + 2 * x ** 2) % 17


# --- vector sharing ----------------------------------------------------------------


def points(n, k):
    """share_vector's points: recipient j holds k+1+j."""
    return tuple(range(k + 1, k + n + 1))


def test_share_vector_chunk_count():
    ys = share_vector([1, 2, 3, 4], t=2, n=3, k=2, rng=rng(20), field=F127)
    assert ys.dtype == np.uint64 and ys.shape == (3, 2)


def test_share_vector_roundtrip():
    vec = [int(v) for v in rng(21).integers(0, F127.q, size=10)]
    ys = share_vector(vec, t=3, n=7, k=3, rng=rng(22), field=F127)
    xs = points(7, 3)
    assert reconstruct_vector(xs, ys, 3, 3, 10, F127).tolist() == vec
    # exactly t+k-1 recipients are enough
    assert reconstruct_vector(xs[:5], ys[:5], 3, 3, 10, F127).tolist() == vec
    with pytest.raises(NotEnoughShares):
        reconstruct_vector(xs[:4], ys[:4], 3, 3, 10, F127)
    # rows that do not hold chunk_count(10, 3) = 4 chunks do not line up
    with pytest.raises(PointMismatch):
        reconstruct_vector(xs, ys[:, :3], 3, 3, 10, F127)


def test_share_vector_add_then_reconstruct():
    a = [1, 2, 3, 4, 5]
    b = [10, 20, 30, 40, 50]
    c = [100, 0, 7, 0, 126]
    shared = [share_vector(v, 2, 5, 2, rng(23 + i), F127)
              for i, v in enumerate((a, b, c))]
    summed = np.stack([add_share_vectors([ys[j] for ys in shared], F127)
                       for j in range(5)])
    opened = reconstruct_vector(points(5, 2), summed, 2, 2, 5, F127)
    assert opened.tolist() == [(x + y + z) % 127 for x, y, z in zip(a, b, c)]


def test_share_vector_determinism():
    vec = [5, 6, 7]
    a = share_vector(vec, 2, 4, 2, rng(42), F127)
    b = share_vector(vec, 2, 4, 2, rng(42), F127)
    assert a.tolist() == b.tolist()


@given(seed=st.integers(0, 10 ** 6), t=st.integers(1, 4), extra=st.integers(0, 3),
       k=st.integers(1, 4), m=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_share_vector_roundtrip_property(seed, t, extra, k, m):
    n = t + k - 1 + extra
    g = rng(seed)
    vec = [int(v) for v in g.integers(0, M61F.q, size=m)]
    ys = share_vector(vec, t, n, k, g, M61F)
    assert reconstruct_vector(points(n, k), ys, t, k, m, M61F).tolist() == vec


def lagrange_rows_by_loop(q, pts, targets):
    """Reference: every basis entry as a product of Python-int factors,
    one inversion per factor, for targets that may be points."""
    rows = []
    for x in targets:
        row = []
        for j, pj in enumerate(pts):
            v = 1
            for i, pi in enumerate(pts):
                if i != j:
                    v = v * (x - pi) * pow(pj - pi, -1, q) % q
            row.append(v)
        rows.append(row)
    return rows


@st.composite
def basis_case(draw):
    field = draw(st.sampled_from([F7, F17, F127, M61F]))
    span = min(field.q, 10 ** 4)  # M61 points spread over a wide range
    pts = draw(st.lists(st.integers(0, span - 1), min_size=1,
                        max_size=min(field.q, 9), unique=True))
    targets = draw(st.lists(st.one_of(st.integers(0, span - 1),
                                      st.sampled_from(pts)),
                            min_size=1, max_size=6))
    return field.q, tuple(pts), tuple(targets)


@given(basis_case())
@settings(max_examples=300, deadline=None)
def test_lagrange_basis_matches_python_int_loop(case):
    # distinct points below q in any order and with gaps; a target that is
    # a point takes that point's unit row
    q, pts, targets = case
    rows = lagrange_basis(q, pts, targets)
    assert not rows.flags.writeable
    assert rows.tolist() == lagrange_rows_by_loop(q, pts, targets)


def share_vector_by_chunks(w, t, n, k, rng, field):
    """Reference: pack and share one k-wide chunk at a time in Python ints,
    drawing each chunk's t-1 anchors one element at a time."""
    q = field.q
    chunks = -(-len(w) // k) if len(w) else 1
    padded = list(w) + [0] * (chunks * k - len(w))
    # secrets at 1..k, shares at k+1..k+n; the first t-1 shares are anchors
    secret_pts = tuple(range(1, k + 1))
    share_pts = tuple(range(k + 1, k + n + 1))
    rows = lagrange_basis(q, secret_pts + share_pts[: t - 1],
                          share_pts[t - 1:]).tolist()
    per_recipient = [[] for _ in range(n)]
    for c in range(chunks):
        vals = padded[c * k: (c + 1) * k] + [field.rand(rng) for _ in range(t - 1)]
        for j in range(t - 1):
            per_recipient[j].append(vals[k + j])
        for j, row in enumerate(rows):
            per_recipient[t - 1 + j].append(
                sum(a * b for a, b in zip(row, vals)) % q)
    return per_recipient


@given(seed=st.integers(0, 10 ** 6), t=st.integers(1, 4), extra=st.integers(0, 3),
       k=st.integers(1, 4), m=st.integers(0, 40),
       field=st.sampled_from([F7, F17, F127, M61F]))
@settings(max_examples=80, deadline=None)
def test_share_vector_matches_per_chunk_loop(seed, t, extra, k, m, field):
    n = t + k - 1 + extra
    vec = [int(v) for v in rng(seed).integers(0, field.q, size=m)]
    g_fast, g_ref = rng(seed + 1), rng(seed + 1)
    if k + n >= field.q:
        # the last share point, k+n, would wrap onto a secret's point
        with pytest.raises(ValueError, match="wrap"):
            share_vector(vec, t, n, k, g_fast, field)
        return
    ys = share_vector(vec, t, n, k, g_fast, field)
    assert ys.tolist() == share_vector_by_chunks(
        vec, t, n, k, g_ref, field)
    # the batched anchor draw leaves the generator where the loop left it
    assert g_fast.bit_generator.state == g_ref.bit_generator.state


def test_share_vector_long_input_matches_per_chunk_loop():
    # 600 chunks in one product
    vec = [int(v) for v in rng(25).integers(0, M61F.q, size=3000)]
    ys = share_vector(vec, 4, 9, 5, rng(26), M61F)
    assert ys.tolist() == share_vector_by_chunks(
        vec, 4, 9, 5, rng(26), M61F)


# --- chunked integer sharing ---------------------------------------------------------


def share_integer_by_chunks(value, total_bits, t, n, rng, field):
    """Reference: one polynomial per chunk through the chunk at 0 and t-1
    anchors at 1..t-1, drawn one element at a time, evaluated at t..n by
    Lagrange's formula in Python ints; one (x, chunk shares) pair per
    recipient."""
    q = field.q
    bits = min(56, field.bit_width - 1)
    polys = [[c] + [field.rand(rng) for _ in range(t - 1)]
             for c in integer_chunks(value, total_bits, bits)]

    def at(vals, x):
        if x < t:
            return vals[x]
        y = 0
        for j, v in enumerate(vals):
            num = den = 1
            for i in range(t):
                if i != j:
                    num, den = num * (x - i) % q, den * (j - i) % q
            y += v * num * pow(den, -1, q)
        return y % q

    return [(x, tuple(at(vals, x) for vals in polys))
            for x in range(1, n + 1)]


@given(seed=st.integers(0, 10 ** 6), t=st.integers(1, 5), extra=st.integers(0, 4),
       total_bits=st.sampled_from([1, 9, 56, 57, 256, 2048]))
@settings(max_examples=40, deadline=None)
def test_share_integer_matches_lagrange_loop(seed, t, extra, total_bits):
    value = int.from_bytes(rng(seed).bytes(256), "big") % (1 << total_bits)
    n = t + extra
    g_fast, g_ref = rng(seed + 1), rng(seed + 1)
    rows = share_integer(value, total_bits, t, n, g_fast, M61F)
    assert [(x, tuple(r)) for x, r in enumerate(rows.tolist(), 1)] == \
        share_integer_by_chunks(value, total_bits, t, n, g_ref, M61F)
    assert g_fast.bit_generator.state == g_ref.bit_generator.state


def test_share_integer_roundtrip_small():
    rows = share_integer(0x1234, 16, t=2, n=4, rng=rng(30), field=M61F)
    assert reconstruct_integer([1, 2], rows[:2], 2, [16], M61F) == [0x1234]


def test_share_integer_roundtrip_wide():
    # 2048-bit scale secret, as used for DH keys
    secret = int.from_bytes(rng(31).bytes(255), "big")
    rows = share_integer(secret, 2040, t=3, n=5, rng=rng(32), field=M61F)
    assert reconstruct_integer([2, 3, 4], rows[1:4], 3, [2040], M61F) == [secret]


def test_reconstruct_integer_rejects_a_secret_wider_than_shared():
    # F_41 chunks are 5 bits wide, so a 256-bit seed takes 52 chunks whose
    # top one holds 1 bit.  Adding v to one chunk of every row adds v to
    # that opened chunk: 33 is no 5-bit chunk, and 2 overfills the top one.
    # Either is a typed failure, not a number that to_bytes(32) fails on.
    from secaggsim.errors import ProtocolError, SecretOutOfRange
    f41 = FieldPrime(41)
    rows = share_integer(0, 256, t=2, n=3, rng=rng(35), field=f41)[:2]
    assert reconstruct_integer([1, 2], rows, 2, [256], f41) == [0]
    for chunk, v in ((10, 33), (0, 2)):
        bad = rows.copy()
        bad[:, chunk] = (bad[:, chunk] + np.uint64(v)) % np.uint64(41)
        with pytest.raises(SecretOutOfRange, match="wider than 256 bits"):
            reconstruct_integer([1, 2], bad, 2, [256], f41)
    assert issubclass(SecretOutOfRange, ProtocolError)


@pytest.mark.parametrize("field", [M61F, FieldPrime(1019)])
@pytest.mark.parametrize("t", [2, 4])
def test_share_integer_side_by_side_equals_separate_calls(field, t):
    # 1019 draws anchors from 32-bit words, so an odd anchor count per
    # secret checks that one draw splits into the separate calls' draws
    n, widths = 7, [9, 256, 2048]
    g = rng(36)
    secrets = [int.from_bytes(g.bytes(256), "big") % (1 << w) for w in widths]
    g_one, g_each = rng(37), rng(37)
    rows = share_integer(secrets, widths, t, n, g_one, field)
    each = [share_integer(s, w, t, n, g_each, field)
            for s, w in zip(secrets, widths)]
    assert rows.tolist() == np.concatenate(each, axis=1).tolist()
    assert g_one.bit_generator.state == g_each.bit_generator.state
    assert reconstruct_integer(range(3, 3 + t), rows[2:2 + t], t, widths,
                               field) == secrets


def test_share_integer_too_few():
    rows = share_integer(99, 8, t=3, n=4, rng=rng(33), field=M61F)
    with pytest.raises(NotEnoughShares):
        reconstruct_integer([1, 2], rows[:2], 3, [8], M61F)


def test_reconstruct_integer_opens_mixed_widths_in_one_call():
    # 1-, 5- and 37-chunk secrets (56-bit chunks), shared independently
    # and opened side by side from the t lowest of all n points
    t, n, widths = 4, 7, [40, 256, 2048]
    g = rng(34)
    secrets = [int.from_bytes(g.bytes(256), "big") % (1 << w) for w in widths]
    rows = [share_integer(s, w, t, n, g, M61F) for s, w in zip(secrets, widths)]
    assert [r.shape[1] for r in rows] == [1, 5, 37]
    ys = np.concatenate(rows, axis=1)
    order = [5, 0, 6, 2, 3, 1, 4]  # out of order, more points than t
    xs = [i + 1 for i in order]
    assert reconstruct_integer(xs, ys[order], t, widths, M61F) == secrets
    assert reconstruct_integer(xs[:t], ys[order][:t], t, widths, M61F) == secrets
    with pytest.raises(NotEnoughShares):
        reconstruct_integer(xs[:t - 1], ys[order][:t - 1], t, widths, M61F)
    with pytest.raises(ValueError):
        reconstruct_integer(xs, ys[order], t, widths[:2], M61F)


# --- block sharing --------------------------------------------------------------


def generators(seed, count):
    return [rng(seed + i) for i in range(count)]


@pytest.mark.parametrize("field,t,n,k,m,clients", [
    (M61F, 3, 7, 4, 50, 5),      # nv at k > 1, last chunk padded
    (M61F, 6, 10, 5, 710, 2),    # lwe's sharing shape
    (F127, 2, 5, 2, 3, 1),       # one-client block
    (F17, 3, 7, 4, 9, 4),        # small field, points up to 12
])
def test_block_share_vector_equals_per_client_calls(field, t, n, k, m,
                                                    clients):
    g = rng(40)
    vecs = [g.integers(0, field.q, size=m, dtype=np.uint64)
            for _ in range(clients)]
    block_rngs, own_rngs = generators(41, clients), generators(41, clients)
    block = share_vector(list(zip(vecs, block_rngs)), t, n, k, field=field)
    own = [share_vector(v, t, n, k, r, field)
           for v, r in zip(vecs, own_rngs)]
    assert [b.tolist() for b in block] == [o.tolist() for o in own]
    assert [r.bit_generator.state for r in block_rngs] == \
        [r.bit_generator.state for r in own_rngs]


@pytest.mark.parametrize("field", [M61F, F17, FieldPrime(1019)])
@pytest.mark.parametrize("widths", [[9, 256], [9], 9])
def test_block_share_integer_equals_per_client_calls(field, widths):
    # pw's shape: a DH key and a personal seed per client, side by side
    t, n, clients = 26, 50, 21
    if field.q == 17:
        t, n, clients = 3, 7, 3
    g = rng(42)
    bits = [widths] if isinstance(widths, int) else widths
    values = [[int.from_bytes(g.bytes(32), "big") % (1 << w) for w in bits]
              for _ in range(clients)]
    if isinstance(widths, int):
        values = [v[0] for v in values]
    block_rngs, own_rngs = generators(43, clients), generators(43, clients)
    block = share_integer(list(zip(values, block_rngs)), widths, t, n,
                          field=field)
    own = [share_integer(v, widths, t, n, r, field)
           for v, r in zip(values, own_rngs)]
    assert [b.tolist() for b in block] == [o.tolist() for o in own]
    assert [r.bit_generator.state for r in block_rngs] == \
        [r.bit_generator.state for r in own_rngs]


def test_second_product_on_a_basis_does_not_split_it_again(monkeypatch):
    # A sharing basis is prepared once, by field.left_operand, and cached
    # read-only beside the basis, so a second sharing on the same points
    # prepares only its coefficients, as the right operand of the basis's
    # layout: 32-bit words when folded (inner dimension 6), limbs when
    # split into limbs of one width (inner dimension 20).
    import secaggsim.field as field_mod
    import secaggsim.shamir as shamir_mod

    log = []

    def spy(mod, name):
        real = getattr(mod, name)

        def logged(X, *args, **kwargs):
            log.append((name, X))
            return real(X, *args, **kwargs)
        monkeypatch.setattr(mod, name, logged)

    spy(shamir_mod, "left_operand")
    spy(field_mod, "split_limbs")
    spy(field_mod, "split_words")
    for t, n, k, right in ((4, 9, 3, "split_words"),
                           (20, 30, 1, "split_limbs")):
        pts, targets = tuple(range(1, k + t)), tuple(range(k + t, k + 1 + n))
        basis = lagrange_basis(M61F.q, pts, targets)
        coeffs = (right, (k + t - 1, -(-6 // k)))  # 6 coordinates in chunks
        shamir_mod._basis_operand.cache_clear()
        log.clear()
        first = share_vector(np.arange(6), t, n, k, rng(44), M61F)
        # the basis once, split into M's limbs, then the coefficients
        assert [name for name, _ in log] == ["left_operand", "split_limbs",
                                             right]
        assert log[0][1] is basis
        assert (log[-1][0], np.shape(log[-1][1])) == coeffs
        log.clear()
        again = share_vector(np.arange(6), t, n, k, rng(44), M61F)
        assert first.tolist() == again.tolist()
        assert [(name, np.shape(X)) for name, X in log] == [coeffs]
        left = shamir_mod._basis_operand(M61F, pts, targets)
        assert not left[0].flags.writeable
