"""Prime-field arithmetic over F_q and fixed-point encoding of real vectors.

Scalars are plain Python ints in [0, q); vectors are numpy uint64 arrays.
The default modulus is the Mersenne prime 2^61 - 1, which keeps every
element in one machine word and leaves headroom so sums over hundreds of
clients (clip 2^20, 16 fractional bits) never wrap.  Every exact matrix
product mod q goes through one kernel, matmul_mod: float64 limbs, one
BLAS matmul, and a recombination that for 2^61 - 1 is a 61-bit rotation
per weight class (2^61 = 1 mod q) into one uint64 accumulator.

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


def add_mod(a, b, field: FieldPrime) -> np.ndarray:
    """(a + b) mod q elementwise; operands must already be reduced."""
    s = _as_u64(a) + _as_u64(b)  # < 2^64 since q < 2^63
    np.subtract(s, np.uint64(field.q), out=s, where=s >= np.uint64(field.q))
    return s


def sub_mod(a, b, field: FieldPrime) -> np.ndarray:
    a = _as_u64(a)
    b = _as_u64(b)
    return np.where(a >= b, a - b, a + np.uint64(field.q) - b)


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
    np.subtract(t, m, out=t, where=t >= m)
    return t


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
            acc = _add_block_mod(acc, block, field)
            rows = 0
    if block is None:
        raise ValueError("sum_mod needs at least one vector")
    return _add_block_mod(acc, block[:rows], field) if rows else acc


def _add_block_mod(acc, block: np.ndarray, field: FieldPrime) -> np.ndarray:
    """acc (or zero, if None) plus the column sums of block, mod q.  The
    low and high 32-bit halves of the rows are summed apart, which is
    exact in uint64 for any q < 2^63 (each sum of SUM_BLOCK halves stays
    below 2^38), and joined as high * 2^32 + low mod q."""
    q = np.uint64(field.q)
    low = (block & np.uint64(0xFFFFFFFF)).sum(axis=0, dtype=np.uint64) % q
    high = (block >> np.uint64(32)).sum(axis=0, dtype=np.uint64) % q
    part = add_mod(mul_mod(high, np.uint64((1 << 32) % field.q), field),
                   low, field)
    return part if acc is None else add_mod(acc, part, field)


# --- exact modular matrix product ---------------------------------------------

def limb_bits(inner: int, field: FieldPrime) -> int:
    """Widest limb for which a float64 dot product of `inner` pairs of
    limbs stays exact: inner * (2^bits - 1)^2 < 2^53."""
    return min((53 - max(inner, 1).bit_length()) // 2, field.bit_width)


def limb_count(bits: int, field: FieldPrime) -> int:
    """Number of bits-wide limbs that hold a reduced element."""
    return -(-field.bit_width // bits)


def split_limbs(X, bits: int, field: FieldPrime, axis: int = 0) -> np.ndarray:
    """The bits-wide limbs of a reduced (r x c) matrix, lowest first, as
    one float64 matrix: stacked down the rows (limbs*r x c) for axis 0,
    the left operand of limb_product, or across the columns (r x limbs*c,
    limb i in columns i*c to (i+1)*c) for axis 1, the right operand."""
    X = _as_u64(X)
    r, c = X.shape
    count = limb_count(bits, field)
    out = np.empty((count, r, c) if axis == 0 else (r, count, c))
    write_limbs(X, bits, out if axis == 0 else out.swapaxes(0, 1))
    return out.reshape(count * r, c) if axis == 0 else out.reshape(r, count * c)


def write_limbs(X: np.ndarray, bits: int, limbs: np.ndarray) -> None:
    """Write the bits-wide limbs of a reduced uint64 matrix X into
    limbs[0], limbs[1], ..., lowest first.  limbs is any (count x r x c)
    float64 array or view, so a caller can split a matrix in blocks
    straight into its place in a larger one."""
    mask = np.uint64((1 << bits) - 1)
    for i in range(len(limbs)):
        limbs[i] = (X >> np.uint64(bits * i)) & mask


def _weight_class(P: np.ndarray, w: int, count: int) -> np.ndarray:
    """Sum of the limb-pair products of weight w, as uint64.  Each float64
    block is converted as the sum reads it, so no uint64 copy of P is
    ever made."""
    lo, hi = max(0, w - count + 1), min(w, count - 1)
    part = P[lo, :, w - lo].astype(np.uint64)
    for i in range(lo + 1, hi + 1):
        np.add(part, P[i, :, w - i], out=part, dtype=np.uint64,
               casting="unsafe")
    return part


def limb_product(M_limbs: np.ndarray, V_limbs: np.ndarray, bits: int,
                 field: FieldPrime) -> np.ndarray:
    """(M @ V) mod q from split_limbs(M, axis=0) and split_limbs(V, axis=1).

    One BLAS matmul forms every limb-pair product M_i @ V_j exactly; the
    products of equal weight w = i + j are summed (fewer than 2^59) and
    scaled by 2^(bits*w).  For M61, 2^61 = 1 (mod q) makes that scaling a
    61-bit rotation, and up to seven rotated classes share one uint64
    accumulator that is folded once at the end (more classes fold as they
    go).  Other moduli multiply each class by 2^(bits*w) mod q.
    """
    count = limb_count(bits, field)
    r = M_limbs.shape[0] // count
    c = V_limbs.shape[1] // count
    P = (M_limbs @ V_limbs).reshape(count, r, count, c)
    classes = (_weight_class(P, w, count) for w in range(2 * count - 1))
    if field.q == M61:
        q, top = np.uint64(M61), np.uint64(61)
        fold_each = 2 * count - 1 > 7  # eight classes near 2^61 would wrap
        acc = next(classes)  # weight 0 needs no rotation
        for w, part in enumerate(classes, 1):
            # part < 2^61, so its 61-bit rotation by s is part * 2^s mod q
            # (or q itself, for a part of q)
            s = bits * w % 61
            high = part >> np.uint64(61 - s)
            part <<= np.uint64(s)
            part &= q
            part |= high
            acc += part
            if fold_each:
                high = acc >> top
                acc &= q
                acc += high
        high = acc >> top
        acc &= q
        acc += high
        np.subtract(acc, q, out=acc, where=acc >= q)
        return acc
    reduced = (count << 53) <= field.q  # every weight-class sum is below q
    acc = None
    for w, part in enumerate(classes):
        if not reduced:
            part %= np.uint64(field.q)
        if w:
            part = mul_mod(part, np.uint64(pow(2, bits * w, field.q)), field)
        acc = part if acc is None else add_mod(acc, part, field)
    return acc


def matmul_mod(M, V, field: FieldPrime) -> np.ndarray:
    """Exact (M @ V) mod q as a uint64 array, for reduced M (r x d) and
    V (d x c) given as uint64 arrays or nested sequences of ints."""
    r, d, d2, c = len(M), len(M[0]), len(V), len(V[0])
    if d != d2:
        raise DimensionMismatch(f"cannot multiply {r}x{d} by {d2}x{c}")
    bits = limb_bits(d, field)
    return limb_product(split_limbs(M, bits, field),
                        split_limbs(V, bits, field, axis=1), bits, field)


# --- wire format ------------------------------------------------------------


def elems_to_bytes(v) -> bytes:
    """Serialize field elements as 8-byte big-endian words (bit-exact)."""
    return _as_u64(v).astype(">u8").tobytes()


def bytes_to_elems(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=">u8").astype(np.uint64)


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
        if self.clip_magnitude <= 0:
            raise ValueError("clip_magnitude must be positive")

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
    if not math.isfinite(x):
        raise NonFiniteInput(f"cannot encode {x}")
    x = min(max(x, -cfg.clip_magnitude), cfg.clip_magnitude)
    return round(x * cfg.scale) % field.q


def fp_decode(e: int, summand_count: int = 1,
              cfg: FixedPointConfig = FixedPointConfig(),
              field: FieldPrime = DEFAULT_FIELD) -> float:
    pos_max = cfg.max_code(summand_count)
    neg_min = field.q - pos_max
    if e <= pos_max:
        signed = e
    elif e >= neg_min:
        signed = e - field.q
    else:
        raise DecodeRange(f"element {e} outside +/-{pos_max} band")
    return signed / cfg.scale


def encode_vec(x, cfg: FixedPointConfig = FixedPointConfig(),
               field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NonFiniteInput("vector holds NaN or infinite entries")
    x = np.clip(x, -cfg.clip_magnitude, cfg.clip_magnitude)
    scaled = np.rint(x * cfg.scale).astype(np.int64)
    return (scaled % np.int64(field.q)).astype(np.uint64)


def decode_vec(e, summand_count: int = 1,
               cfg: FixedPointConfig = FixedPointConfig(),
               field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    e = _as_u64(e)
    pos_max = cfg.max_code(summand_count)
    neg_min = field.q - pos_max
    if np.any((e > np.uint64(pos_max)) & (e < np.uint64(neg_min))):
        raise DecodeRange("vector has elements in the ambiguous middle band")
    signed = e.astype(np.int64)
    signed = np.where(e >= np.uint64(neg_min), signed - np.int64(field.q), signed)
    return signed / float(cfg.scale)
