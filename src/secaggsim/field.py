"""Prime-field arithmetic over F_q and fixed-point encoding of real vectors.

Scalars are plain Python ints in [0, q); vectors are numpy uint64 arrays.
The default modulus is the Mersenne prime 2^61 - 1, which keeps every
element in one machine word and leaves headroom so sums over hundreds of
clients (clip 2^20, 16 fractional bits) never wrap.  Every exact matrix
product mod q goes through one kernel, matmul_mod: float64 limbs, one
BLAS matmul, and a recombination that for 2^61 - 1 is a 61-bit rotation
per weight class (2^61 = 1 mod q) into one uint64 accumulator.  Its
operands take one of two layouts, whichever needs fewer limb-pair
products: both split into limbs of one width, or folded, with V read as
its two 32-bit words and the high word's weight 2^32 folded into M's
limbs, so that each of M's limbs gives one weight class (for 2^61 - 1,
every inner dimension up to 16).

Small primes (7, 17, 127, ...) are supported for exhaustive tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecodeRange, DimensionMismatch, NonFiniteInput, ZeroInverse

M61 = (1 << 61) - 1  # 2^61 - 1, prime

_MASK31 = (1 << 31) - 1
_MASK30 = (1 << 30) - 1

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for word-sized moduli."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldPrime:
    """A prime modulus q together with its wire width.

    Field elements serialize as 8-byte big-endian unsigned integers, so q
    must fit in 64 bits; q < 2^63 so the sum of two reduced elements never
    wraps a uint64.
    """

    q: int = M61

    def __post_init__(self):
        if self.q >= (1 << 63):
            raise ValueError("modulus must be below 2^63 so uint64 sums never wrap")
        if not is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")

    @property
    def bit_width(self) -> int:
        return (self.q - 1).bit_length()

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b + self.q) % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat (q prime)."""
        if a % self.q == 0:
            raise ZeroInverse("0 has no inverse")
        return pow(a, self.q - 2, self.q)

    def rand(self, rng) -> int:
        """Uniform element of [0, q) from a numpy Generator."""
        return int(rng.integers(0, self.q, dtype=np.uint64))


DEFAULT_FIELD = FieldPrime(M61)


def field_arith(a: int, b: int, op: str, field: FieldPrime = DEFAULT_FIELD) -> int:
    """Dispatch add/sub/mul on reduced scalars."""
    if op == "add":
        return field.add(a, b)
    if op == "sub":
        return field.sub(a, b)
    if op == "mul":
        return field.mul(a, b)
    raise ValueError(f"unknown op {op!r}")


def mod_inverse(a: int, field: FieldPrime = DEFAULT_FIELD) -> int:
    return field.inv(a)


# --- vectorized modular arithmetic (numpy uint64) --------------------------


def _as_u64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.uint64)


def _subtract_q_once(s: np.ndarray, q: np.uint64) -> np.ndarray:
    """s, less q where s >= q, in place: the smaller of s and s - q, as
    s - q wraps past s exactly where s < q.  Branch-free, so it costs the
    same whatever share of s is reduced (a masked subtract is several
    times slower on a random mix)."""
    return np.minimum(s, s - q, out=s)


def add_mod(a, b, field: FieldPrime) -> np.ndarray:
    """(a + b) mod q elementwise; operands must already be reduced."""
    s = _as_u64(a) + _as_u64(b)  # < 2^64 since q < 2^63
    return _subtract_q_once(s, np.uint64(field.q))


def sub_mod(a, b, field: FieldPrime) -> np.ndarray:
    """(a - b) mod q elementwise; operands must already be reduced.  a - b
    wraps where a < b, and adding q then brings it below a - b."""
    d = _as_u64(a) - _as_u64(b)
    return np.minimum(d, d + np.uint64(field.q), out=d)


def add_signed_mod(a, b, e: np.ndarray, field: FieldPrime) -> np.ndarray:
    """(a + b + e) mod q elementwise, for reduced uint64 a and b and any
    int64 e.  For M61 this is one pass with one fold: e equals
    (e >> 61) * 2^61 + (e & q), with an arithmetic shift in [-4, 3], and
    2^61 = 1 (mod q), so a + b + (e & q) + (e >> 61) + q is congruent to
    the sum, lies in [0, 4q] and is reduced by one 61-bit fold and one
    conditional subtract.  Other moduli reduce e mod q first."""
    if field.q != M61:
        e = (e % np.int64(field.q)).astype(np.uint64)
        return add_mod(add_mod(a, b, field), e, field)
    q = np.uint64(M61)
    s = _as_u64(a) + _as_u64(b)
    s += (e & np.int64(M61)).view(np.uint64)
    top = e >> np.int64(61)
    top += np.int64(M61)
    s += top.view(np.uint64)
    high = s >> np.uint64(61)
    s &= q
    s += high
    return _subtract_q_once(s, q)


def mul_mod_m61(a, b) -> np.ndarray:
    """Exact (a*b) mod 2^61-1 on uint64 arrays, operands < 2^61.

    Schoolbook 31/30-bit split; 2^61 = 1 (mod M61) folds the high halves:
    a*b = ah*bh*2^62 + (ah*bl + al*bh)*2^31 + al*bl, and cross*2^31 is
    re-split so every intermediate stays below 2^64.
    """
    a = _as_u64(a)
    b = _as_u64(b)
    ah = a >> np.uint64(31)
    al = a & np.uint64(_MASK31)
    bh = b >> np.uint64(31)
    bl = b & np.uint64(_MASK31)
    cross = ah * bl + al * bh  # < 2^62
    t = (
        (ah * bh << np.uint64(1))
        + (cross >> np.uint64(30))
        + ((cross & np.uint64(_MASK30)) << np.uint64(31))
        + al * bl
    )  # < 2^63 + eps
    m = np.uint64(M61)
    t = (t >> np.uint64(61)) + (t & m)
    t = (t >> np.uint64(61)) + (t & m)
    return _subtract_q_once(t, m)


def rotate_m61(x: np.ndarray, s: int) -> np.ndarray:
    """x * 2^s mod 2^61 - 1, in place, for uint64 x below 2^61 and
    0 <= s < 61: since 2^61 = 1 (mod q), it is the 61-bit rotation of x
    left by s (an element of q itself stays q)."""
    high = x >> np.uint64(61 - s)
    x <<= np.uint64(s)
    x &= np.uint64(M61)
    x |= high
    return x


def mul_mod(a, b, field: FieldPrime) -> np.ndarray:
    """Elementwise (a*b) mod q with a fast path per modulus size."""
    if field.q == M61:
        return mul_mod_m61(a, b)
    if field.q < (1 << 32):
        # products fit in uint64
        return (_as_u64(a) * _as_u64(b)) % np.uint64(field.q)
    # astype yields Python ints; numpy integer scalars would wrap
    a_obj = _as_u64(a).astype(object)
    b_obj = _as_u64(b).astype(object)
    return ((a_obj * b_obj) % field.q).astype(np.uint64)


SUM_BLOCK = 64  # rows per stacked block of sum_mod


def sum_mod(vectors, field: FieldPrime) -> np.ndarray:
    """Sum an iterable of reduced uint64 vectors mod q.  The vectors are
    read lazily into one reused block of SUM_BLOCK rows, so one block
    and one temporary of its size are held at once."""
    acc = block = None
    rows = 0
    for v in vectors:
        if block is None:
            block = np.empty((SUM_BLOCK, *np.shape(v)), dtype=np.uint64)
        block[rows] = v
        rows += 1
        if rows == SUM_BLOCK:
            acc = add_block_mod(acc, block, field)
            rows = 0
    if block is None:
        raise ValueError("sum_mod needs at least one vector")
    return add_block_mod(acc, block[:rows], field) if rows else acc


def add_block_mod(acc, block: np.ndarray, field: FieldPrime) -> np.ndarray:
    """acc (or zero, if None) plus the column sums of block, mod q.

    block has at most SUM_BLOCK rows of words below 2^63, which need not
    be reduced: a row may hold q itself.  The low and high 32-bit halves
    of the rows are summed apart, which is exact in uint64 (each sum of
    SUM_BLOCK halves stays below 2^38), and joined as high * 2^32 + low
    mod q.  For M61 both sums are already below q, and the join is one
    61-bit rotation of high."""
    q = np.uint64(field.q)
    low = (block & np.uint64(0xFFFFFFFF)).sum(axis=0, dtype=np.uint64)
    high = (block >> np.uint64(32)).sum(axis=0, dtype=np.uint64)
    if field.q == M61:
        part = add_mod(rotate_m61(high, 32), low, field)
    else:
        low %= q
        high %= q
        part = add_mod(mul_mod(high, np.uint64((1 << 32) % field.q), field),
                       low, field)
    return part if acc is None else add_mod(acc, part, field)


# --- exact modular matrix product ---------------------------------------------

WORD = 32  # bits of each word of V in the folded layout


def limb_bits(inner: int, field: FieldPrime, other: int | None = None) -> int:
    """Widest limb for which a float64 dot product of `inner` pairs of
    limbs stays exact: inner * (2^bits - 1) * (2^other - 1) < 2^53, with
    other = bits when it is not given.  That holds whenever bits + other
    is at most 53 - ceil(log2(inner))."""
    budget = 53 - (max(inner, 1) - 1).bit_length()
    return min(budget // 2 if other is None else budget - other,
               field.bit_width)


def limb_count(bits: int, field: FieldPrime) -> int:
    """Number of bits-wide limbs that hold a reduced element."""
    return -(-field.bit_width // bits)


def split_limbs(X, bits: int, field: FieldPrime, axis: int = 0) -> np.ndarray:
    """The bits-wide limbs of a reduced (r x c) matrix, lowest first, as
    float64: one (limbs x r x c) array for axis 0, the left operand of
    limb_product, or one (r x limbs*c) matrix, limb i in columns i*c to
    (i+1)*c, for axis 1, the right operand."""
    X = _as_u64(X)
    r, c = X.shape
    count = limb_count(bits, field)
    out = np.empty((count, r, c) if axis == 0 else (r, count, c))
    write_limbs(X, bits, out if axis == 0 else out.swapaxes(0, 1))
    return out if axis == 0 else out.reshape(r, count * c)


def split_words(V) -> np.ndarray:
    """A reduced (d x c) matrix read as its 32-bit words, as the (2d x c)
    float64 right operand of the folded layout: the low words in the
    first d rows, the high words in the last d.  One little-endian uint32
    view, with no shift and no mask."""
    words = np.ascontiguousarray(V, dtype="<u8").view("<u4")
    return np.concatenate((words[:, 0::2], words[:, 1::2]), dtype=np.float64)


def split_signed(X, bits: int, field: FieldPrime) -> np.ndarray:
    """The signed bits-wide limbs of a reduced (r x c) matrix read
    centered, in (-q/2, q/2): each element's sign times the limbs of its
    magnitude, as a left operand of limb_product with as few limbs as the
    largest magnitude needs (at least one).  Small values take one limb
    however wide q is."""
    X = _as_u64(X)
    neg = X > np.uint64(field.q // 2)
    mag = np.where(neg, np.uint64(field.q) - X, X)
    count = max(1, -(-int(mag.max(initial=0)).bit_length() // bits))
    limbs = np.empty((count, *X.shape))
    write_limbs(mag, bits, limbs)
    np.negative(limbs, out=limbs, where=neg)
    return limbs


def write_limbs(X: np.ndarray, bits: int, limbs: np.ndarray) -> None:
    """Write the bits-wide limbs of a reduced uint64 matrix X into
    limbs[0], limbs[1], ..., lowest first.  limbs is any (count x r x c)
    float64 array or view, so a caller can split a matrix in blocks
    straight into its place in a larger one."""
    mask = np.uint64((1 << bits) - 1)
    for i in range(len(limbs)):
        limbs[i] = (X >> np.uint64(bits * i)) & mask


def _weight_class(P: np.ndarray, pairs, field: FieldPrime, reduced: bool,
                  signed: bool) -> np.ndarray:
    """The sum of one weight's limb-pair products P[i, :, j], in [0, q) as
    uint64: reduced mod q unless every class sum is below q in magnitude,
    else lifted by q where negative, if the left limbs are signed.  Each
    float64 block is converted as the sum reads it, so no integer copy of
    P is ever made."""
    (i, j), *rest = pairs
    part = P[i, :, j].astype(np.int64)
    for i, j in rest:
        np.add(part, P[i, :, j], out=part, dtype=np.int64, casting="unsafe")
    q = np.int64(field.q)
    if not reduced:
        np.remainder(part, q, out=part)
    elif signed:
        part += (part >> np.int64(63)) & q  # q plus each negative sum
    return part.view(np.uint64)


def limb_product(M_limbs: np.ndarray, V_limbs: np.ndarray, bits,
                 field: FieldPrime) -> np.ndarray:
    """(M @ V) mod q from M's limbs, a (count x r x d) array as split_limbs
    or split_signed gives it, and split_limbs(V, axis=1), or their folded
    forms (see left_operand).

    bits is the pair of limb widths (M's, V's).  M's limbs may be
    negative, each of magnitude below 2^bits; V's count is the one that
    holds a reduced element (one, for split_words's words at V's width
    field.bit_width).  One BLAS matmul forms every
    limb-pair product M_i @ V_j exactly; the products of equal weight
    w = bits_M * i + bits_V * j are summed as int64 (below 2^59 in
    magnitude) and scaled by 2^w.  For M61, 2^61 = 1 (mod q) makes that
    scaling a 61-bit rotation, and up to seven rotated classes share one
    uint64 accumulator that is folded once at the end (more classes fold
    as they go).  Other moduli multiply each class by 2^w mod q.
    """
    m_bits, v_bits = bits
    d = V_limbs.shape[0]
    count_m, count_v = len(M_limbs), limb_count(v_bits, field)
    P = (M_limbs.reshape(-1, d) @ V_limbs).reshape(
        count_m, -1, count_v, V_limbs.shape[1] // count_v)
    weights: dict[int, list] = {}
    for i in range(count_m):
        for j in range(count_v):
            weights.setdefault(m_bits * i + v_bits * j, []).append((i, j))
    # every class sum is below q in magnitude
    reduced = (max(map(len, weights.values())) << 53) <= field.q
    signed = bool(M_limbs.min(initial=0) < 0)
    classes = ((w, _weight_class(P, weights[w], field, reduced, signed))
               for w in sorted(weights))
    if field.q == M61:
        q, top = np.uint64(M61), np.uint64(61)
        fold_each = len(weights) > 7  # eight classes near 2^61 would wrap
        _, acc = next(classes)  # weight 0 needs no rotation
        for w, part in classes:
            acc += rotate_m61(part, w % 61)  # part < 2^61
            if fold_each:
                high = acc >> top
                acc &= q
                acc += high
        high = acc >> top
        acc &= q
        acc += high
        return _subtract_q_once(acc, q)
    acc = None
    for w, part in classes:
        if w:
            part = mul_mod(part, np.uint64(pow(2, w, field.q)), field)
        acc = part if acc is None else add_mod(acc, part, field)
    return acc


def left_operand(M, field: FieldPrime) -> tuple[np.ndarray, tuple, bool]:
    """The left operand of M @ V for a reduced M (r x d), as left_product
    takes it: (M's limbs, the widths (M's, V's), folded).

    Of two layouts, the one with fewer limb-pair products is taken, the
    folded one on a tie: for M61, every d <= 16.
    - Equal: M and V split into limbs of one width, limb_bits(d); every
      pair M_i @ V_j is a block of the matmul, summed by weight class.
    - Folded: V is read as its two 32-bit words (split_words), and the
      high word's weight is folded into M as [M | 2^32 M mod q], split
      into limbs as wide as 2d products by a word leave exact (16 bits
      at d = 10).  Each of M's limbs gives one weight class whole: 2
      words by 4 limbs is 8 pairs for M61, where the equal split takes 9.
    """
    M = _as_u64(M)
    d = M.shape[1]
    bits = limb_bits(d, field)
    fold = limb_bits(2 * d, field, WORD)
    if fold < 1 or 2 * limb_count(fold, field) > limb_count(bits, field) ** 2:
        return split_limbs(M, bits, field), (bits, bits), False
    folded = np.hstack([M, M])
    if field.q == M61:
        rotate_m61(folded[:, d:], WORD)
    else:
        folded[:, d:] = mul_mod(M, np.uint64((1 << WORD) % field.q), field)
    return split_limbs(folded, fold, field), (fold, field.bit_width), True


def left_product(left, V, field: FieldPrime) -> np.ndarray:
    """(M @ V) mod q for M's left_operand and a reduced V (d x c)."""
    limbs, bits, folded = left
    V = split_words(V) if folded else split_limbs(V, bits[1], field, axis=1)
    return limb_product(limbs, V, bits, field)


def matmul_mod(M, V, field: FieldPrime) -> np.ndarray:
    """Exact (M @ V) mod q as a uint64 array, for reduced M (r x d) and
    V (d x c) given as uint64 arrays or nested sequences of ints."""
    r, d, d2, c = len(M), len(M[0]), len(V), len(V[0])
    if d != d2:
        raise DimensionMismatch(f"cannot multiply {r}x{d} by {d2}x{c}")
    return left_product(left_operand(M, field), V, field)


# --- wire format ------------------------------------------------------------


def elems_to_bytes(v) -> bytes:
    """Serialize field elements as 8-byte big-endian words (bit-exact)."""
    return _as_u64(v).astype(">u8").tobytes()


# --- fixed-point codec ------------------------------------------------------


@dataclass(frozen=True)
class FixedPointConfig:
    """Real <-> field codec: x maps to round(x * 2^frac_bits) mod q.

    Inputs beyond clip_magnitude are clipped, not rejected: gradient
    vectors can carry outliers and aggregation should not abort.
    Negative values occupy the upper half of the field, with an ambiguous
    middle band left as a decode guard.
    """

    frac_bits: int = 16
    clip_magnitude: float = float(1 << 20)

    def __post_init__(self):
        if self.frac_bits < 1:
            raise ValueError("frac_bits must be >= 1")
        if not 0 < self.clip_magnitude < math.inf:
            raise ValueError("clip_magnitude must be positive and finite")
        # codes are int64, and no field below 2^63 holds a larger one;
        # clip * 2^f is exact, so it rounds to 2^63 only from 2^63 up
        if self.clip_magnitude >= math.ldexp(1.0, 63 - self.frac_bits):
            raise ValueError(
                f"clip {self.clip_magnitude} at {self.frac_bits} fractional "
                "bits encodes to 2^63 or more")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    def max_code(self, summand_count: int) -> int:
        """Largest magnitude a sum of summand_count encodings can reach:
        each encodes to at most round(clip * 2^f)."""
        return summand_count * round(self.clip_magnitude * self.scale)

    def check_capacity(self, summand_count: int, field: FieldPrime) -> None:
        """Require 2 * n * clip * 2^f < q so n-client sums never wrap."""
        bound = 2 * self.max_code(summand_count)
        if bound >= field.q:
            raise ValueError(
                f"field too small: {summand_count} summands at clip "
                f"{self.clip_magnitude} need 2*n*clip*2^f < q"
            )


def fp_encode(x: float, cfg: FixedPointConfig = FixedPointConfig(),
              field: FieldPrime = DEFAULT_FIELD) -> int:
    return int(encode_vec([x], cfg, field)[0])


def fp_decode(e: int, summand_count: int = 1,
              cfg: FixedPointConfig = FixedPointConfig(),
              field: FieldPrime = DEFAULT_FIELD) -> float:
    return float(decode_vec([e], summand_count, cfg, field)[0])


def encode_vec(x, cfg: FixedPointConfig = FixedPointConfig(),
               field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NonFiniteInput("vector holds NaN or infinite entries")
    x = np.clip(x, -cfg.clip_magnitude, cfg.clip_magnitude)
    scaled = np.rint(x * cfg.scale).astype(np.int64)
    if cfg.max_code(1) < field.q:
        # every code lies in (-q, q): q plus each negative one reduces it
        scaled += (scaled >> np.int64(63)) & np.int64(field.q)
        return scaled.view(np.uint64)
    return (scaled % np.int64(field.q)).astype(np.uint64)


def decode_vec(e, summand_count: int = 1,
               cfg: FixedPointConfig = FixedPointConfig(),
               field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    """The reals that the reduced elements e encode, for a sum of
    summand_count encodings.  Raises DecodeRange if the config's positive
    and negative bands overlap mod q, if an input other than a uint64
    array holds an integer outside [0, q), or if an element falls in the
    middle band.  A uint64 array is taken as reduced and read once."""
    pos_max = cfg.max_code(summand_count)
    if 2 * pos_max >= field.q:
        raise DecodeRange(
            f"{summand_count} summands at clip {cfg.clip_magnitude} and "
            f"{cfg.frac_bits} fractional bits overflow q={field.q}")
    if not (isinstance(e, np.ndarray) and e.dtype == np.uint64):
        e = np.asarray(e)
        if e.size and (e.min() < 0 or e.max() >= field.q):
            raise DecodeRange(f"element outside [0, q={field.q})")
        e = e.astype(np.uint64)
    neg_min = field.q - pos_max
    if np.any((e > np.uint64(pos_max)) & (e < np.uint64(neg_min))):
        raise DecodeRange("vector has elements in the ambiguous middle band")
    signed = e.astype(np.int64)
    signed = np.where(e >= np.uint64(neg_min), signed - np.int64(field.q), signed)
    return signed / float(cfg.scale)
