import hashlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from secaggsim import masking
from secaggsim.errors import DimensionMismatch, InvalidPublicKey
from secaggsim.field import FieldPrime, add_mod, split_limbs
from secaggsim.masking import (
    DH_GROUP_2048,
    DH_GROUP_TEST,
    SPLIT_BLOCK,
    DhParams,
    LweMatrixOps,
    LweParams,
    SECRET_ETA,
    TAG_MATRIX,
    TAG_PAIRWISE,
    TAG_PERSONAL,
    dh_agree,
    dh_keygen,
    gaussian_error,
    lwe_mask,
    lwe_matrix,
    mat_vec_mod,
    stream_expand,
)

F7 = FieldPrime(7)
F17 = FieldPrime(17)
M61F = FieldPrime()


def rng(seed=0):
    return np.random.default_rng(seed)


# --- Diffie-Hellman ---------------------------------------------------------


def test_generator_as_public_key():
    # sk = 1 must yield pk = g; force it via a degenerate "rng" that
    # always produces 1 after the keygen's excess-bit shift
    order_bits = DH_GROUP_TEST.subgroup_order.bit_length()

    class One:
        def bytes(self, n):
            return (1 << (8 * n - order_bits)).to_bytes(n, "big")

    kp = dh_keygen(DH_GROUP_TEST, One())
    assert kp.sk == 1 and kp.pk == DH_GROUP_TEST.g


def test_test_group_subgroup_membership():
    p, order = DH_GROUP_TEST.p, DH_GROUP_TEST.subgroup_order
    for seed in range(40):
        kp = dh_keygen(DH_GROUP_TEST, rng(seed))
        assert pow(kp.pk, order, p) == 1


def test_keygen_determinism():
    a = dh_keygen(DH_GROUP_TEST, rng(5))
    b = dh_keygen(DH_GROUP_TEST, rng(5))
    assert (a.sk, a.pk) == (b.sk, b.pk)


def test_agreement_symmetry():
    for seed in range(20):
        a = dh_keygen(DH_GROUP_TEST, rng(seed))
        b = dh_keygen(DH_GROUP_TEST, rng(seed + 100))
        assert dh_agree(a.sk, b.pk, DH_GROUP_TEST) == \
            dh_agree(b.sk, a.pk, DH_GROUP_TEST)


def test_agreement_symmetry_production_group():
    a = dh_keygen(DH_GROUP_2048, rng(1))
    b = dh_keygen(DH_GROUP_2048, rng(2))
    assert dh_agree(a.sk, b.pk, DH_GROUP_2048) == \
        dh_agree(b.sk, a.pk, DH_GROUP_2048)


def test_forced_shared_value():
    # both secrets 1: shared secret is g itself
    import hashlib
    seed = dh_agree(1, DH_GROUP_TEST.g, DH_GROUP_TEST)
    expected = hashlib.sha256(
        DH_GROUP_TEST.g.to_bytes(DH_GROUP_TEST.residue_bytes, "big")).digest()
    assert seed == expected


def test_invalid_public_key_rejected():
    with pytest.raises(InvalidPublicKey):
        dh_agree(3, 1, DH_GROUP_TEST)
    # 2 generates the full group mod 1019, not the order-509 subgroup
    assert pow(2, DH_GROUP_TEST.subgroup_order, DH_GROUP_TEST.p) != 1
    with pytest.raises(InvalidPublicKey):
        dh_agree(3, 2, DH_GROUP_TEST)


def test_distinct_pairs_distinct_seeds():
    # 62-bit safe prime (p = 2q+1, both prime); g=4 generates the
    # order-q subgroup.  Big enough that seed collisions mean a bug.
    medium = DhParams(p=4611686018427394499, g=4,
                      subgroup_order=2305843009213697249)
    pairs = [dh_keygen(medium, rng(100 + i)) for i in range(46)]
    seeds = set()
    count = 0
    for (i, j) in combinations(range(46), 2):
        seeds.add(dh_agree(pairs[i].sk, pairs[j].pk, medium))
        count += 1
    assert count >= 1000
    assert len(seeds) == count


# --- mask streams ------------------------------------------------------------


def test_stream_count_zero():
    assert len(stream_expand(b"\x01" * 32, TAG_PAIRWISE, 0, F17)) == 0


def test_stream_determinism():
    a = stream_expand(b"\x02" * 32, TAG_PAIRWISE, 100, M61F)
    b = stream_expand(b"\x02" * 32, TAG_PAIRWISE, 100, M61F)
    assert np.array_equal(a, b)


def test_stream_domain_tags_differ():
    seed = b"\x03" * 32
    a = stream_expand(seed, b"pairwise", 50, M61F)
    b = stream_expand(seed, b"personal", 50, M61F)
    assert not np.array_equal(a, b)


def reference_stream(seed, tag, count, q):
    """The stream definition, element by element with Python ints: read
    the SHAKE-128 output 8 bytes at a time as a little-endian word, mask
    it to q.bit_length() bits, keep it if below q."""
    prefix = bytes([len(tag)]) + tag + seed
    mask = (1 << q.bit_length()) - 1
    out, pos, buf = [], 0, b""
    while len(out) < count:
        if pos + 8 > len(buf):
            buf = hashlib.shake_128(prefix).digest(2 * len(buf) + 64)
        word = int.from_bytes(buf[pos:pos + 8], "little") & mask
        if word < q:
            out.append(word)
        pos += 8
    return out


@pytest.mark.parametrize("field", [F7, F17, M61F, FieldPrime((1 << 63) - 25)])
@pytest.mark.parametrize("tag", [TAG_PAIRWISE, TAG_MATRIX, b""])
def test_stream_matches_reference_loop(field, tag):
    for count in (1, 2, 9, 130):
        seed = count.to_bytes(32, "big")
        assert stream_expand(seed, tag, count, field).tolist() == \
            reference_stream(seed, tag, count, field.q)


def test_stream_known_answer():
    # pins the definition itself, independent of both implementations
    assert stream_expand(bytes(32), TAG_PAIRWISE, 4, M61F).tolist() == [
        1446146576884976503, 1303077736324727481,
        1581199648854869895, 1860958607221166399]


@given(field=st.sampled_from([F7, F17, M61F]),
       seed=st.binary(max_size=40), a=st.integers(0, 400),
       b=st.integers(0, 400))
@settings(max_examples=80, deadline=None)
def test_stream_prefix_stable(field, seed, a, b):
    short, long = sorted((a, b))
    assert np.array_equal(stream_expand(seed, TAG_PAIRWISE, long, field)[:short],
                          stream_expand(seed, TAG_PAIRWISE, short, field))


def test_stream_refill_matches_reference(monkeypatch):
    # F17 keeps 17 of every 32 masked words, so some first reads fall
    # short and a longer digest is read
    cases = [(i.to_bytes(4, "big"), 1 + i % 3) for i in range(300)]
    expected = [reference_stream(seed, TAG_PERSONAL, count, 17)
                for seed, count in cases]
    shake = hashlib.shake_128
    reads = []

    class CountingXof:
        def __init__(self, data):
            self._xof = shake(data)

        def digest(self, length):
            reads.append(length)
            return self._xof.digest(length)

    monkeypatch.setattr(masking.hashlib, "shake_128", CountingXof)
    refilled = 0
    for (seed, count), want in zip(cases, expected):
        reads.clear()
        assert stream_expand(seed, TAG_PERSONAL, count, F17).tolist() == want
        refilled += len(reads) > 1
    assert refilled > 0


def per_seed_rows(seeds, tag, count, field):
    return [stream_expand(seed, tag, count, field).tolist() for seed in seeds]


@pytest.mark.parametrize("field", [F17, M61F])
@pytest.mark.parametrize("count", [0, 1, 9, 100])
def test_stream_batch_equals_per_seed_streams(field, count):
    # over F17 nearly every row holds a rejected word and is read again
    # one seed at a time; over M61 none does
    seeds = [i.to_bytes(32, "big") for i in range(70)]
    block = stream_expand(seeds, TAG_PAIRWISE, count, field)
    assert block.dtype == np.uint64 and block.shape == (70, count)
    assert block.tolist() == per_seed_rows(seeds, TAG_PAIRWISE, count, field)


def test_stream_batch_mixes_rejecting_and_clean_rows():
    # F7 masks words to 3 bits and rejects 7: a 3-word row is clean with
    # probability (7/8)^3, so these seeds give rows of both kinds
    seeds = [bytes([i]) for i in range(30)]
    prefix = bytes([len(TAG_PERSONAL)]) + TAG_PERSONAL
    clean = [all(w & 7 < 7 for w in np.frombuffer(
        hashlib.shake_128(prefix + s).digest(24), "<u8").tolist())
        for s in seeds]
    assert any(clean) and not all(clean)
    block = stream_expand(tuple(seeds), TAG_PERSONAL, 3, F7)
    assert block.tolist() == per_seed_rows(seeds, TAG_PERSONAL, 3, F7)


def test_stream_batch_of_no_seeds():
    assert stream_expand([], TAG_PAIRWISE, 5, F17).shape == (0, 5)
    assert stream_expand(iter([]), TAG_PAIRWISE, 0, M61F).shape == (0, 0)


def test_stream_tag_is_framed():
    a = stream_expand(b"ab", b"c", 16, M61F)
    b = stream_expand(b"a", b"bc", 16, M61F)
    assert not np.array_equal(a, b)


def test_stream_rejects_long_tag():
    with pytest.raises(ValueError):
        stream_expand(bytes(32), b"t" * 256, 1, M61F)


def test_stream_uniformity_chi_square():
    draws = stream_expand(b"\x04" * 32, TAG_PAIRWISE, 100_000, F17)
    counts = np.bincount(draws.astype(np.int64), minlength=17)
    chi2 = ((counts - len(draws) / 17) ** 2 / (len(draws) / 17)).sum()
    assert chi2 < stats.chi2.ppf(0.99, df=16)


# --- LWE ----------------------------------------------------------------------


def test_matrix_identical_across_clients():
    p = LweParams(n_lwe=5, sigma=1.0, matrix_seed=b"\x05" * 32)
    assert np.array_equal(lwe_matrix(p, 7, M61F), lwe_matrix(p, 7, M61F))


def test_matrix_is_the_stream_in_row_major_order():
    p = LweParams(n_lwe=3, sigma=1.0, matrix_seed=b"\x06" * 32)
    A = lwe_matrix(p, 2, F17)
    flat = stream_expand(b"\x06" * 32, TAG_MATRIX, 6, F17)
    assert np.array_equal(A.reshape(-1), flat)


def test_matrix_avalanche():
    base = LweParams(n_lwe=20, sigma=1.0, matrix_seed=b"\x07" * 32)
    tweak = LweParams(n_lwe=20, sigma=1.0,
                      matrix_seed=b"\x08" + b"\x07" * 31)
    a = lwe_matrix(base, 50, M61F)
    b = lwe_matrix(tweak, 50, M61F)
    assert (a != b).mean() >= 0.99


def test_gaussian_degenerate_sigma():
    e = gaussian_error(1e-6, 1000, rng(1), M61F)
    assert not e.any()


def test_gaussian_moments():
    e = gaussian_error(3.0, 100_000, rng(2), M61F)
    signed = np.where(e > M61F.q // 2, e.astype(np.int64) - M61F.q,
                      e.astype(np.int64))
    assert abs(signed.mean()) < 0.05
    assert abs(signed.std() - 3.0) < 0.15


def test_gaussian_negative_values_in_upper_half():
    e = gaussian_error(5.0, 10_000, rng(3), M61F)
    assert (e > M61F.q // 2).any()


def test_lwe_mask_identity_without_mask():
    A = lwe_matrix(LweParams(n_lwe=3, sigma=1.0, matrix_seed=b"\x09" * 32),
                   4, F17)
    w = np.array([1, 2, 3, 4], dtype=np.uint64)
    zero_s = np.zeros(3, dtype=np.uint64)
    zero_e = np.zeros(4, dtype=np.uint64)
    assert np.array_equal(lwe_mask(w, zero_s, zero_e, A, F17), w)


def test_lwe_mask_inverts():
    g = rng(4)
    A = lwe_matrix(LweParams(n_lwe=3, sigma=1.0, matrix_seed=b"\x0a" * 32),
                   4, F17)
    w = g.integers(0, 17, 4).astype(np.uint64)
    s = g.integers(0, 17, 3).astype(np.uint64)
    e = g.integers(0, 17, 4).astype(np.uint64)
    h = lwe_mask(w, s, e, A, F17)
    As = mat_vec_mod(A, s, F17)
    recovered = [(int(hi) - int(ai) - int(ei)) % 17
                 for hi, ai, ei in zip(h, As, e)]
    assert recovered == [int(v) for v in w]


def test_lwe_mask_three_client_sum():
    g = rng(5)
    params = LweParams(n_lwe=4, sigma=1.0, matrix_seed=b"\x0b" * 32)
    A = lwe_matrix(params, 5, M61F)
    ws = [g.integers(0, M61F.q, 5).astype(np.uint64) for _ in range(3)]
    ss = [g.integers(0, M61F.q, 4).astype(np.uint64) for _ in range(3)]
    es = [g.integers(0, 10, 5).astype(np.uint64) for _ in range(3)]
    hs = [lwe_mask(w, s, e, A, M61F) for w, s, e in zip(ws, ss, es)]
    qq = M61F.q
    h_sum = [(int(a) + int(b) + int(c)) % qq for a, b, c in zip(*hs)]
    s_sum = np.array([(int(a) + int(b) + int(c)) % qq for a, b, c in zip(*ss)],
                     dtype=np.uint64)
    As = mat_vec_mod(A, s_sum, M61F)
    lhs = [(h - int(a)) % qq for h, a in zip(h_sum, As)]
    rhs = [(int(a) + int(b) + int(c) + int(d) + int(e) + int(f)) % qq
           for a, b, c, d, e, f in zip(*ws, *es)]
    assert lhs == rhs


def test_lwe_linearity_exact():
    g = rng(6)
    params = LweParams(n_lwe=6, sigma=1.0, matrix_seed=b"\x0c" * 32)
    A = lwe_matrix(params, 8, M61F)
    w1, w2 = (g.integers(0, M61F.q, 8).astype(np.uint64) for _ in range(2))
    s1, s2 = (g.integers(0, M61F.q, 6).astype(np.uint64) for _ in range(2))
    e1, e2 = (g.integers(0, 50, 8).astype(np.uint64) for _ in range(2))
    left = add_mod(lwe_mask(w1, s1, e1, A, M61F),
                   lwe_mask(w2, s2, e2, A, M61F), M61F)
    right = lwe_mask(add_mod(w1, w2, M61F), add_mod(s1, s2, M61F),
                     add_mod(e1, e2, M61F), A, M61F)
    assert np.array_equal(left, right)


def test_lwe_mask_dimension_mismatch():
    A = lwe_matrix(LweParams(n_lwe=3, sigma=1.0, matrix_seed=b"\x0d" * 32),
                   4, F17)
    w = np.zeros(5, dtype=np.uint64)
    with pytest.raises(DimensionMismatch):
        lwe_mask(w, np.zeros(3, dtype=np.uint64),
                 np.zeros(5, dtype=np.uint64), A, F17)


@pytest.mark.parametrize("field,m,d", [(M61F, 37, 710), (M61F, 64, 13),
                                       (F17, 9, 5),
                                       (FieldPrime((1 << 63) - 25), 11, 40)])
def test_limb_matvec_matches_reference(field, m, d):
    g = rng(m + d)
    A = g.integers(0, field.q, size=(m, d)).astype(np.uint64)
    s = g.integers(0, field.q, size=d).astype(np.uint64)
    ops = LweMatrixOps(A, field)
    assert np.array_equal(ops.matvec(s), mat_vec_mod(A, s, field))


@pytest.mark.parametrize("field", [F17, M61F, FieldPrime((1 << 63) - 25)],
                         ids=["F17", "M61", "2^63-25"])
def test_stacked_matvec_is_one_matvec_per_secret(field):
    g = rng(field.q % 1000)
    m, d, k = 13, 21, 5
    A = g.integers(0, field.q, size=(m, d)).astype(np.uint64)
    S = g.integers(0, field.q, size=(k, d)).astype(np.uint64)
    ops = LweMatrixOps(A, field)
    out = ops.matvec(S)
    assert out.shape == (m, k)
    for j in range(k):
        assert np.array_equal(out[:, j], mat_vec_mod(A, S[j], field))
        one = ops.matvec(S[j])  # a single secret still gives a vector
        assert one.shape == (m,) and np.array_equal(one, out[:, j])


@pytest.mark.parametrize("field", [F17, M61F, FieldPrime((1 << 63) - 25)],
                         ids=["F17", "M61", "2^63-25"])
@pytest.mark.parametrize("m", [1, SPLIT_BLOCK - 1, SPLIT_BLOCK,
                               SPLIT_BLOCK + 1, 2 * SPLIT_BLOCK + 3])
def test_matvec_at_the_split_block_edges(field, m):
    g = rng(m)
    d = 7
    A = g.integers(0, field.q, size=(m, d)).astype(np.uint64)
    S = g.integers(0, field.q, size=(64, d)).astype(np.uint64)
    want = np.stack([mat_vec_mod(A, s, field) for s in S], axis=1)
    ops = LweMatrixOps(A, field)
    assert np.array_equal(ops.matvec(S[0]), want[:, 0])
    for k in (1, 5, 64):
        out = ops.matvec(S[:k])
        assert out.shape == (m, k) and np.array_equal(out, want[:, :k])


@pytest.mark.parametrize("field", [F17, M61F, FieldPrime((1 << 63) - 25)],
                         ids=["F17", "M61", "2^63-25"])
def test_blocked_limb_build_equals_one_split_of_the_transpose(field):
    m, d = 2 * SPLIT_BLOCK + 3, 11
    A = rng(d).integers(0, field.q, size=(m, d)).astype(np.uint64)
    ops = LweMatrixOps(A, field)
    a_bits = ops.bits[1]  # A^T's limb width, not the symmetric one
    assert np.array_equal(ops._limbs_T,
                          split_limbs(A.T, a_bits, field, axis=1))


def centered_rows(field, values) -> np.ndarray:
    """The signed integers of values as reduced uint64 rows."""
    return (np.array(values, dtype=object) % field.q).astype(np.uint64)


@given(field=st.sampled_from([F17, M61F, FieldPrime((1 << 63) - 25)]),
       m=st.integers(1, 20), d=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_matvec_of_small_summed_and_uniform_secrets(field, m, d, seed):
    # fresh secrets (0, +-eta), sums past one signed limb (n * eta with n
    # just past 2^bits / eta) and a uniform, corrupted opening, against
    # mat_vec_mod, with some all-(q-1) rows of A
    g = rng(seed)
    A = g.integers(0, field.q, size=(m, d), dtype=np.uint64)
    A[g.random(m) < 0.3] = field.q - 1
    ops = LweMatrixOps(A, field)
    n_eta = ((1 << ops.bits[0]) // SECRET_ETA + 1) * SECRET_ETA
    signs = g.choice([-1, 1], size=d)
    S = np.vstack([
        centered_rows(field, [[0] * d]),
        centered_rows(field, [signs * SECRET_ETA]),
        centered_rows(field, [g.integers(-SECRET_ETA, SECRET_ETA + 1, d)]),
        centered_rows(field, [signs * n_eta]),
        centered_rows(field, [g.integers(-n_eta, n_eta + 1, d)]),
        g.integers(0, field.q, size=(1, d), dtype=np.uint64),
    ])
    out = ops.matvec(S)
    for j, s in enumerate(S):
        want = mat_vec_mod(A, s, field)
        assert np.array_equal(out[:, j], want)
        assert np.array_equal(ops.matvec(s), want)


def test_matvec_rejects_a_wrong_width():
    ops = LweMatrixOps(np.ones((4, 3), dtype=np.uint64), F17)
    for bad in (np.zeros(4), np.zeros((2, 4)), np.zeros((1, 2, 3))):
        with pytest.raises(DimensionMismatch):
            ops.matvec(bad.astype(np.uint64))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_lwe_params_rejects_a_non_finite_sigma(sigma):
    # a nan or inf sigma casts every error entry to one constant, and the
    # round reported a nan or inf noise_sigma_effective
    with pytest.raises(ValueError, match="finite"):
        LweParams(sigma=sigma)
    with pytest.raises(ValueError, match="finite"):
        gaussian_error(sigma, 4, rng(0), M61F)


def test_lwe_params_validation():
    with pytest.raises(ValueError):
        LweParams(n_lwe=0)
    with pytest.raises(ValueError):
        LweParams(sigma=0.0)
