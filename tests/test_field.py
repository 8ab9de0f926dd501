import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secaggsim.errors import (
    DecodeRange,
    DimensionMismatch,
    NonFiniteInput,
    ZeroInverse,
)
from secaggsim.field import (
    DEFAULT_FIELD,
    M61,
    FieldPrime,
    FixedPointConfig,
    SUM_BLOCK,
    add_block_mod,
    add_mod,
    add_signed_mod,
    decode_vec,
    elems_to_bytes,
    encode_vec,
    field_arith,
    fp_decode,
    fp_encode,
    left_operand,
    limb_bits,
    limb_count,
    limb_product,
    matmul_mod,
    mod_inverse,
    mul_mod,
    mul_mod_m61,
    split_limbs,
    sub_mod,
    sum_mod,
)

F17 = FieldPrime(17)
F7 = FieldPrime(7)
P63 = (1 << 63) - 25  # the largest prime below 2^63
F63 = FieldPrime(P63)


def test_add_wraparound():
    assert field_arith(M61 - 1, 1, "add") == 0


def test_mul_sub_small_field():
    # direct modular arithmetic
    assert field_arith(3, 5, "mul", F17) == 15
    assert field_arith(2, 5, "sub", F17) == 14


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        field_arith(1, 2, "div", F17)


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        FieldPrime(15)
    with pytest.raises(ValueError):
        FieldPrime(1 << 64)


def test_modulus_at_or_above_2_63_rejected():
    # a uint64 sum of two elements of a field above 2^63 would wrap
    with pytest.raises(ValueError):
        FieldPrime((1 << 64) - 59)


def test_add_mod_exact_just_below_2_63():
    q = F63.q
    got = add_mod(np.array([q - 1, q - 1, 5], dtype=np.uint64),
                  np.array([q - 1, 1, q - 6], dtype=np.uint64), F63)
    assert got.tolist() == [q - 2, 0, q - 1]


@pytest.mark.parametrize("field", [F7, F17])
def test_mod_inverse_matches_brute_force(field):
    for a in range(1, field.q):
        expected = next(x for x in range(1, field.q) if a * x % field.q == 1)
        assert mod_inverse(a, field) == expected


def test_mod_inverse_identity_and_zero():
    assert mod_inverse(1) == 1
    assert mod_inverse(2, F7) == 4
    assert mod_inverse(3, F17) == 6
    with pytest.raises(ZeroInverse):
        mod_inverse(0, F17)


@given(a=st.integers(1, M61 - 1))
@settings(max_examples=50)
def test_inverse_property(a):
    f = DEFAULT_FIELD
    assert f.mul(a, f.inv(a)) == 1


@given(a=st.integers(0, M61 - 1), b=st.integers(0, M61 - 1),
       c=st.integers(0, M61 - 1))
@settings(max_examples=50)
def test_add_mul_associative_commutative(a, b, c):
    f = DEFAULT_FIELD
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@given(a=st.integers(0, M61 - 2), b=st.integers(0, M61 - 2))
@settings(max_examples=200)
def test_mersenne_vector_mul_matches_int(a, b):
    got = mul_mod_m61(np.array([a], dtype=np.uint64),
                      np.array([b], dtype=np.uint64))[0]
    assert int(got) == a * b % M61


def test_generic_mul_mod_small_field():
    a = np.arange(17, dtype=np.uint64)
    b = np.full(17, 5, dtype=np.uint64)
    assert list(mul_mod(a, b, F17)) == [i * 5 % 17 for i in range(17)]


# --- fixed point -------------------------------------------------------------


def test_fp_encode_examples():
    assert fp_encode(0.0) == 0
    assert fp_encode(1.5) == 98304  # round(1.5 * 2^16)
    assert fp_encode(-1.0) == M61 - 65536


def test_fp_roundtrip_quarter():
    assert fp_decode(fp_encode(0.25), 1) == 0.25


def test_fp_sum_of_two():
    cfg = FixedPointConfig()
    total = (fp_encode(1.5, cfg) + fp_encode(-2.0, cfg)) % M61
    assert abs(fp_decode(total, 2, cfg) - (-0.5)) <= 2 ** -16


def test_fp_sum_of_hundred_random():
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1, 1, size=100)
    cfg = FixedPointConfig()
    total = int(sum(fp_encode(float(x), cfg) for x in xs) % M61)
    assert abs(fp_decode(total, 100, cfg) - xs.sum()) <= 100 * 2 ** -17


@given(x=st.floats(-2.0 ** 20, 2.0 ** 20, allow_nan=False))
@settings(max_examples=100)
def test_fp_roundtrip_tolerance(x):
    assert abs(fp_decode(fp_encode(x), 1) - x) <= 2 ** -17


def test_fp_clipping_not_rejection():
    assert fp_encode(2.0 ** 30) == fp_encode(2.0 ** 20)


def test_fp_decode_range_guard():
    with pytest.raises(DecodeRange):
        fp_decode(M61 // 2, 1)


def test_fp_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(frac_bits=0)
    with pytest.raises(ValueError):
        FixedPointConfig().check_capacity(1 << 30, DEFAULT_FIELD)


@pytest.mark.parametrize("clip", [float("nan"), float("inf"), -float("inf")])
def test_fp_config_rejects_a_non_finite_clip(clip):
    # before, nan and inf were accepted here and RoundConfig then died in
    # round() with an untyped ValueError or OverflowError
    with pytest.raises(ValueError, match="finite"):
        FixedPointConfig(clip_magnitude=clip)


@pytest.mark.parametrize("clip", [1e15, 1e304, 2.0 ** 47])
def test_fp_config_rejects_codes_of_2_63_or_more(clip):
    # before, clip 1e15 encoded 1e15 to 2^61 - 4 through an undefined
    # float-to-int64 cast, and clip 1e304 made max_code raise an untyped
    # OverflowError; clip * 2^16 = 2^63 is the first clip refused
    with pytest.raises(ValueError, match="2\\^63"):
        encode_vec([clip], FixedPointConfig(16, clip))


def test_fp_config_just_below_2_63_encodes_exactly():
    clip = math.nextafter(2.0 ** 47, 0)  # encodes to 2^63 - 2^10
    cfg = FixedPointConfig(16, clip)
    assert cfg.max_code(1) == (1 << 63) - (1 << 10)
    for field in (DEFAULT_FIELD, F63):
        got = encode_vec([clip, -clip, 1.5], cfg, field).tolist()
        assert got == [encode_reference(x, cfg, field.q)
                       for x in (clip, -clip, 1.5)]


def test_sub_unit_clip_decodes():
    # the decode band is the largest code encode can emit, not int(clip)
    cfg = FixedPointConfig(clip_magnitude=0.5)
    assert cfg.max_code(3) == 3 * 32768
    assert decode_vec(encode_vec([0.25], cfg), 1, cfg).tolist() == [0.25]
    assert fp_decode(fp_encode(-0.5, cfg), 1, cfg) == -0.5
    assert FixedPointConfig().max_code(1) == (1 << 20) * (1 << 16)


def encode_reference(x: float, cfg: FixedPointConfig, q: int) -> int:
    """round_half_even(clip(x) * 2^f) mod q, in exact rationals."""
    clipped = min(max(Fraction(x), -Fraction(cfg.clip_magnitude)),
                  Fraction(cfg.clip_magnitude))
    return round(clipped * cfg.scale) % q


@st.composite
def codec_cases(draw):
    """(config, field, inputs): ±clip, -0.0, negatives that round to 0,
    halfway ties and any finite floats, under configs whose largest code
    lies below q (q added to negative codes) or not (the % path: F17 and
    F127 with the default clip)."""
    q = draw(st.sampled_from([17, 127, M61, P63]))
    default = FixedPointConfig()
    frac_bits = draw(st.integers(1, 24))
    clip = draw(st.sampled_from([default.clip_magnitude, 1.0, 0.75, 2.0 ** -3]))
    cfg = draw(st.sampled_from([default, FixedPointConfig(frac_bits, clip)]))
    scale = cfg.scale
    c = cfg.clip_magnitude
    specials = st.sampled_from([c, -c, -0.0, 0.0, -0.49 / scale, -0.5 / scale,
                                -2.0 ** -40])
    ties = st.integers(-4 * scale, 4 * scale).map(lambda k: (k + 0.5) / scale)
    floats = st.floats(allow_nan=False, allow_infinity=False)
    xs = draw(st.lists(st.one_of(specials, ties, floats), min_size=1,
                       max_size=20))
    return cfg, FieldPrime(q), xs


@given(case=codec_cases())
@settings(max_examples=300, deadline=None)
def test_encode_vec_matches_python_int_reference(case):
    cfg, field, xs = case
    got = encode_vec(xs, cfg, field)
    assert got.dtype == np.uint64
    assert got.tolist() == [encode_reference(x, cfg, field.q) for x in xs]


def test_encode_vec_takes_the_remainder_where_codes_reach_q():
    # with the default clip, F17's and F127's codes reach past q, so q
    # plus a negative code would not be reduced
    for q in (17, 127):
        cfg = FixedPointConfig()
        assert cfg.max_code(1) >= q
        xs = [-cfg.clip_magnitude, -1.0, -2.0 ** -16, 3.0, cfg.clip_magnitude]
        assert encode_vec(xs, cfg, FieldPrime(q)).tolist() == \
            [encode_reference(x, cfg, q) for x in xs]


INT64_EDGES = [-(1 << 63), -(1 << 63) + 1, -M61 - 1, -M61, -1, 0, 1, M61,
               M61 + 1, (1 << 62), (1 << 63) - 1]


@given(q=st.sampled_from([17, 127, M61, P63]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_add_signed_mod_matches_python_ints(q, data):
    # any int64 error, reduced operands at 0 and q - 1 among them
    m = data.draw(st.integers(1, 12))
    elems = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    a = data.draw(st.lists(elems, min_size=m, max_size=m))
    b = data.draw(st.lists(elems, min_size=m, max_size=m))
    e = data.draw(st.lists(st.one_of(st.sampled_from(INT64_EDGES),
                                     st.integers(-(1 << 63), (1 << 63) - 1)),
                           min_size=m, max_size=m))
    got = add_signed_mod(np.array(a, dtype=np.uint64),
                         np.array(b, dtype=np.uint64),
                         np.array(e, dtype=np.int64), FieldPrime(q))
    assert got.tolist() == [(x + y + z) % q for x, y, z in zip(a, b, e)]


@pytest.mark.parametrize("q", [17, M61, P63])
def test_add_and_sub_mod_match_python_ints(q):
    g = np.random.default_rng(q % 1000)
    edge = np.array([0, 1, q - 2, q - 1], dtype=np.uint64)
    a = np.concatenate([np.repeat(edge, 4),
                        g.integers(0, q, 200, dtype=np.uint64)])
    b = np.concatenate([np.tile(edge, 4),
                        g.integers(0, q, 200, dtype=np.uint64)])
    pairs = list(zip(a.tolist(), b.tolist()))
    assert add_mod(a, b, FieldPrime(q)).tolist() == \
        [(x + y) % q for x, y in pairs]
    assert sub_mod(a, b, FieldPrime(q)).tolist() == \
        [(x - y) % q for x, y in pairs]


def test_vector_codec_matches_scalar():
    xs = [0.0, 1.5, -1.0, 0.25, -3.75]
    enc = encode_vec(xs)
    assert [int(v) for v in enc] == [fp_encode(x) for x in xs]
    dec = decode_vec(enc, 1)
    assert np.allclose(dec, xs, atol=2 ** -17)


def test_vector_decode_range_guard():
    with pytest.raises(DecodeRange):
        decode_vec(np.array([M61 // 2], dtype=np.uint64), 1)


def test_decode_band_wider_than_the_field_is_typed():
    # one default encoding spans 2^36 codes a side, far beyond q = 41: the
    # config's bands overlap, which is checked before any element is read
    with pytest.raises(DecodeRange, match="overflow q=41"):
        fp_decode(5, 1, FixedPointConfig(), FieldPrime(41))
    with pytest.raises(DecodeRange, match="overflow q=41"):
        decode_vec(np.zeros(3, dtype=np.uint64), 1, FixedPointConfig(),
                   FieldPrime(41))


@pytest.mark.parametrize("bad", [-1, M61, 1 << 64])
def test_decode_int_outside_the_field_is_typed(bad):
    with pytest.raises(DecodeRange, match="outside"):
        fp_decode(bad)
    with pytest.raises(DecodeRange, match="outside"):
        decode_vec([0, bad])
    with pytest.raises(DecodeRange, match="outside"):
        decode_vec(np.array([bad], dtype=object))


def test_wire_format_roundtrip():
    v = np.array([0, 1, M61 - 1, 12345678901234567], dtype=np.uint64)
    blob = elems_to_bytes(v)
    assert blob == b"".join(int(x).to_bytes(8, "big") for x in v.tolist())
    assert blob[8:16] == b"\x00" * 7 + b"\x01"  # big-endian one


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(NonFiniteInput):
        fp_encode(bad)
    with pytest.raises(NonFiniteInput):
        encode_vec([0.5, bad, 1.0])


# --- stacked modular sums ---------------------------------------------------------

SUM_FIELDS = [F7, F17, DEFAULT_FIELD, F63]
# one row, either side of a 64-row block, and two full blocks plus two rows
SUM_ROWS = [1, 63, 64, 65, 130]


def sum_reference(rows, q):
    return [sum(col) % q for col in zip(*rows)]


@given(field=st.sampled_from(SUM_FIELDS), rows=st.sampled_from(SUM_ROWS),
       m=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_sum_mod_matches_python_ints(field, rows, m, seed):
    g = np.random.default_rng(seed)
    vs = [g.integers(0, field.q, size=m, dtype=np.uint64)
          for _ in range(rows)]
    want = sum_reference([v.tolist() for v in vs], field.q)
    assert sum_mod(vs, field).tolist() == want
    # a generator is read once, lazily, with the same result
    assert sum_mod((v for v in vs), field).tolist() == want


@pytest.mark.parametrize("field", SUM_FIELDS)
@pytest.mark.parametrize("rows", SUM_ROWS)
def test_sum_mod_all_top_elements(field, rows):
    # q - 1 in every row fills both 32-bit halves as far as q allows
    q = field.q
    vs = (np.full(3, q - 1, dtype=np.uint64) for _ in range(rows))
    assert sum_mod(vs, field).tolist() == [rows * (q - 1) % q] * 3


@pytest.mark.parametrize("rows", [1, 63, SUM_BLOCK])
@pytest.mark.parametrize("fill", ["random", "top", "q"])
def test_m61_block_join_equals_the_generic_join(rows, fill):
    # M61 joins the two 32-bit half sums by a 61-bit rotation; the generic
    # join multiplies the high sum by 2^32 mod q.  A row may hold q itself
    # (a negated zero stream) as well as q - 1.
    q = M61
    block = {"random": np.random.default_rng(rows).integers(
                 0, q, size=(rows, 5), dtype=np.uint64),
             "top": np.full((rows, 5), q - 1, dtype=np.uint64),
             "q": np.full((rows, 5), q, dtype=np.uint64)}[fill]
    acc = np.arange(5, dtype=np.uint64) * np.uint64(q // 5)
    low = (block & np.uint64(0xFFFFFFFF)).sum(axis=0, dtype=np.uint64)
    high = (block >> np.uint64(32)).sum(axis=0, dtype=np.uint64)
    generic = add_mod(mul_mod(high % np.uint64(q), np.uint64((1 << 32) % q),
                              DEFAULT_FIELD), low % np.uint64(q),
                      DEFAULT_FIELD)
    got = add_block_mod(acc, block, DEFAULT_FIELD).tolist()
    assert got == add_mod(acc, generic, DEFAULT_FIELD).tolist()
    assert got == [(a + sum(col)) % q for a, col in
                   zip(acc.tolist(), zip(*block.tolist()))]


def test_sum_mod_of_nothing_is_a_value_error():
    with pytest.raises(ValueError):
        sum_mod([], F17)

    def empty():
        yield from ()

    # inside a generator a leaked StopIteration would be a RuntimeError
    def wrapped():
        yield sum_mod(empty(), F17)

    with pytest.raises(ValueError):
        next(wrapped())


# --- exact modular matrix product -------------------------------------------------


def matmul_reference(M, V, q):
    """Schoolbook product in Python ints."""
    cols = list(zip(*V))
    return [[sum(a * b for a, b in zip(row, col)) % q for col in cols]
            for row in M]


def random_matrix(g, q, rows, cols):
    return g.integers(0, q, size=(rows, cols), dtype=np.uint64)


# (rows, inner, cols), from a 1x1x1 product up; the inner dimensions span
# five limb widths.
SHAPES = [(1, 1, 1), (2, 5, 3), (3, 1, 700), (4, 3, 300), (5, 10, 2000),
          (3, 100, 40), (2, 1000, 3), (2, 5000, 2)]


@pytest.mark.parametrize("field", [F7, F17, DEFAULT_FIELD, F63])
@pytest.mark.parametrize("shape", SHAPES)
def test_matmul_mod_matches_python_ints(field, shape):
    r, d, c = shape
    g = np.random.default_rng(r * 7919 + d * 31 + c)
    M = random_matrix(g, field.q, r, d)
    V = random_matrix(g, field.q, d, c)
    got = matmul_mod(M, V, field)
    assert got.dtype == np.uint64 and got.shape == (r, c)
    assert got.tolist() == matmul_reference(M.tolist(), V.tolist(), field.q)


def test_mul_mod_by_scalar_above_2_32():
    # the Python-int fallback must not multiply numpy uint64 scalars
    q = F63.q
    got = mul_mod(np.array([q - 1, 2], dtype=np.uint64), np.uint64(q - 1), F63)
    assert got.tolist() == [1, q - 2]


def test_matmul_mod_extreme_operands():
    # all-(q-1) operands maximize every limb and every weight-class sum;
    # inner 700 splits M61 into 3 limbs, inner 5000 into 4
    for field in (DEFAULT_FIELD, F63):
        q = field.q
        for inner in (700, 5000):
            M = np.full((3, inner), q - 1, dtype=np.uint64)
            V = np.full((inner, 4), q - 1, dtype=np.uint64)
            assert matmul_mod(M, V, field).tolist() == [[inner % q] * 4] * 3


@pytest.mark.parametrize("bits, classes", [(12, 11), (15, 9)])
def test_m61_limb_product_folds_many_weight_classes(bits, classes):
    # narrow limbs give more than seven weight classes, so the rotated
    # classes are folded as they are added
    count = -(-DEFAULT_FIELD.bit_width // bits)
    assert 2 * count - 1 == classes
    g = np.random.default_rng(bits)
    for M, V in ((np.full((3, 7), M61 - 1, dtype=np.uint64),
                  np.full((7, 5), M61 - 1, dtype=np.uint64)),
                 (random_matrix(g, M61, 4, 9), random_matrix(g, M61, 9, 6))):
        got = limb_product(split_limbs(M, bits, DEFAULT_FIELD),
                           split_limbs(V, bits, DEFAULT_FIELD, axis=1),
                           (bits, bits), DEFAULT_FIELD)
        assert got.tolist() == matmul_reference(M.tolist(), V.tolist(), M61)


def test_m61_limb_product_folds_wide_weight_classes():
    # An inner dimension near 2^29 gives 12-bit limbs and weight-class sums
    # near 2^55.  Oversized limbs at inner dimension 1 give such sums
    # cheaply; these eleven classes, rotated, add up past 2^64.
    la = [11980259, 28190134, 34580119, 63816645, 51320468, 35694289]
    lb = [22202282, 22863082, 37253994, 28450972, 61983551, 214539]
    a, b = (sum(limb << (12 * i) for i, limb in enumerate(ls))
            for ls in (la, lb))
    got = limb_product(np.array(la, dtype=np.float64).reshape(6, 1),
                       np.array(lb, dtype=np.float64).reshape(1, 6),
                       (12, 12), DEFAULT_FIELD)
    assert got.tolist() == [[a * b % M61]]


@given(data=st.data(), q=st.sampled_from([17, M61, P63]),
       edge=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_limb_product_with_per_operand_widths_matches_python_ints(
        data, q, edge, seed):
    # Limbs of any width pair that keeps the product exact, a free number of
    # signed left limbs and the field's count of right limbs, at the edge of
    # their widths or anywhere in them, against a Python-int loop over the
    # integers that the limbs stand for.
    field = FieldPrime(q)
    r, d, c = (data.draw(st.integers(1, n)) for n in (4, 40, 4))
    budget = 53 - d.bit_length()  # d * 2^m_bits * 2^v_bits <= 2^53
    v_bits = data.draw(st.integers(1, min(budget - 1, field.bit_width)))
    m_bits = data.draw(st.integers(1, budget - v_bits))
    count_m, count_v = data.draw(st.integers(1, 6)), limb_count(v_bits, field)
    m_top, v_top = (1 << m_bits) - 1, (1 << v_bits) - 1
    g = np.random.default_rng(seed)
    if edge:
        M = g.choice([-m_top, m_top], size=(count_m, r, d))
        V = np.full((d, count_v, c), v_top)
    else:
        M = g.integers(-m_top, m_top + 1, size=(count_m, r, d))
        V = g.integers(0, v_top + 1, size=(d, count_v, c))
    got = limb_product(M.astype(np.float64),
                       V.astype(np.float64).reshape(d, count_v * c),
                       (m_bits, v_bits), field)
    Mi = [[sum(int(M[i, a, b]) << (m_bits * i) for i in range(count_m))
           for b in range(d)] for a in range(r)]
    Vi = [[sum(int(V[a, j, b]) << (v_bits * j) for j in range(count_v))
           for b in range(c)] for a in range(d)]
    assert got.tolist() == matmul_reference(Mi, Vi, q)


def test_matmul_mod_accepts_int_sequences():
    M = [[1, 2, 3]]
    V = [(4,), (5,), (6,)]
    assert matmul_mod(M, V, F17).tolist() == [[32 % 17]]


def test_matmul_mod_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        matmul_mod(np.zeros((2, 3), dtype=np.uint64),
                   np.zeros((4, 2), dtype=np.uint64), F17)


def test_limb_widths_cover_the_shapes():
    widths = {limb_bits(d, DEFAULT_FIELD) for _, d, _ in SHAPES}
    assert widths == {26, 25, 24, 23, 21, 20}
    assert limb_bits(1000, F7) == F7.bit_width


def test_folded_layout_where_it_takes_fewer_pairs():
    # M61 and 2^63-25 fold every inner dimension up to 16: 2 words by 4
    # limbs of 16 bits or more, 8 limb-pair products where one width takes
    # 9.  From 17 on the folded side would need 15-bit limbs, 10 pairs.
    # Fields below 2^32 keep one limb a side, 1 pair, and never fold.
    for field in (DEFAULT_FIELD, F63):
        for d in (1, 2, 5, 10, 15, 16, 17, 26, 100, 700, 5000):
            limbs, bits, folded = left_operand(np.zeros((2, d), np.uint64),
                                               field)
            assert folded == (d <= 16)
            assert limbs.shape[2] == (2 * d if folded else d)
            if folded:
                assert bits[0] >= 16 and len(limbs) == 4
                assert bits[1] == field.bit_width  # one limb per word
    for field in (F7, F17, FieldPrime(127)):
        assert not any(left_operand(np.zeros((1, d), np.uint64), field)[2]
                       for d in (1, 10, 16, 700))


@given(q=st.sampled_from([7, 17, 127, M61, P63]),
       d=st.sampled_from([1, 2, 15, 16, 17, 26, 700]),
       r=st.integers(1, 3), c=st.integers(1, 3),
       fill=st.sampled_from(["uniform", "top", "edges"]),
       nested=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_matmul_mod_on_both_layouts_matches_python_ints(q, d, r, c, fill,
                                                        nested, seed):
    # Inner dimensions on both sides of the folded layout's rule (16 and
    # 17 for M61 and 2^63-25) and far past it, single rows and columns,
    # all-(q-1) operands, 0 and q-1 mixed with uniform elements, and
    # nested-int inputs, against an independent Python-int product.
    field = FieldPrime(q)
    g = np.random.default_rng(seed)
    M, V = (g.integers(0, q, size=shape, dtype=np.uint64)
            for shape in ((r, d), (d, c)))
    if fill == "top":
        M[:], V[:] = q - 1, q - 1
    elif fill == "edges":
        for X in (M, V):
            X[g.random(X.shape) < 0.5] = q - 1
            X[g.random(X.shape) < 0.2] = 0
    Ml, Vl = M.tolist(), V.tolist()
    want = [[sum(Ml[i][k] * Vl[k][j] for k in range(d)) % q
             for j in range(c)] for i in range(r)]
    got = matmul_mod(Ml, Vl, field) if nested else matmul_mod(M, V, field)
    assert got.dtype == np.uint64 and got.tolist() == want
