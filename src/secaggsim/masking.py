"""Key agreement, deterministic mask streams, and LWE masking primitives.

The mask PRNG is one SHAKE-128 read per stream, with rejection of words
at or above q, so that two parties holding the same seed derive
bit-identical masks (required for pairwise cancellation and for the
metered wire format).  Length-prefixed domain tags ("pairwise",
"personal", "A-matrix") keep the streams of one seed from ever colliding.

The Diffie-Hellman production profile is the 2048-bit MODP safe-prime
group with g=2; a toy profile (p=1019) exists only so subgroup membership
can be checked exhaustively in tests.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidPublicKey
from .field import (DEFAULT_FIELD, FieldPrime, add_mod, limb_bits,
                    limb_count, limb_product, split_signed, write_limbs)
from .field import mul_mod  # noqa: F401 -- perfbench's tracer wraps it here

# RFC 3526 group 14 (2048-bit MODP).  p = 7 mod 8, so g=2 generates the
# prime-order subgroup of size (p-1)/2.
_MODP_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)


@dataclass(frozen=True)
class DhParams:
    """Cyclic-group parameters: g generates the order-subgroup_order
    subgroup of Z_p*."""

    p: int
    g: int
    subgroup_order: int

    @property
    def residue_bytes(self) -> int:
        """Fixed serialization width of group residues."""
        return (self.p.bit_length() + 7) // 8


DH_GROUP_2048 = DhParams(p=_MODP_2048, g=2, subgroup_order=(_MODP_2048 - 1) // 2)

# 1019 = 2*509 + 1 (both prime); 4 = 2^2 is a QR, hence has order 509.
DH_GROUP_TEST = DhParams(p=1019, g=4, subgroup_order=509)


@dataclass(frozen=True)
class KeyPair:
    sk: int
    pk: int


def dh_keygen(params: DhParams, rng) -> KeyPair:
    """Uniform secret in [1, subgroup_order); pk = g^sk mod p."""
    order = params.subgroup_order
    nbytes = (order.bit_length() + 7) // 8
    excess = nbytes * 8 - order.bit_length()
    while True:
        v = int.from_bytes(rng.bytes(nbytes), "big") >> excess
        if 1 <= v < order:
            return KeyPair(sk=v, pk=pow(params.g, v, params.p))


def dh_agree(sk: int, peer_pk: int, params: DhParams) -> bytes:
    """Shared 32-byte mask seed: SHA-256 of the fixed-width big-endian
    encoding of peer_pk^sk mod p.  Symmetric in the two parties."""
    if not 1 < peer_pk < params.p or pow(peer_pk, params.subgroup_order, params.p) != 1:
        raise InvalidPublicKey(f"residue {peer_pk} not in the prime-order subgroup")
    shared = pow(peer_pk, sk, params.p)
    return hashlib.sha256(shared.to_bytes(params.residue_bytes, "big")).digest()


# --- deterministic mask streams ----------------------------------------------

TAG_PAIRWISE = b"pairwise"
TAG_PERSONAL = b"personal"
TAG_MATRIX = b"A-matrix"


def stream_expand(seed, domain_tag: bytes, count: int,
                  field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    """Expand a seed into `count` uniform field elements, or a sequence of
    seeds into the rows of one (len(seeds) x count) uint64 block.

    The stream is the SHAKE-128 output of len(tag) as one byte || tag ||
    seed, read as little-endian 64-bit words.  Each word is masked to
    q.bit_length() bits; words below q are the elements, in order, and the
    rest are rejected (as in the ExpandA step of FIPS 203).  SHAKE output
    is prefix-consistent, so element i never depends on `count`.

    A sequence of seeds reads each digest at exactly `count` words into
    its row of one block, which is masked and checked against q once; a
    row that holds a rejected word is read again through the one-seed
    path, so every row equals that seed's own stream.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if len(domain_tag) > 255:
        raise ValueError("domain tag must be at most 255 bytes")
    prefix = bytes([len(domain_tag)]) + domain_tag
    if isinstance(seed, (bytes, bytearray)):
        return _expand_one(hashlib.shake_128(prefix + seed), count, field)
    seeds = list(seed)
    q = field.q
    mask = np.uint64((1 << q.bit_length()) - 1)
    block = np.frombuffer(b"".join(
        hashlib.shake_128(prefix + s).digest(8 * count) for s in seeds),
        "<u8").reshape(len(seeds), count) & mask
    if block.size and block.max() >= np.uint64(q):
        for i in np.flatnonzero((block >= np.uint64(q)).any(axis=1)):
            block[i] = _expand_one(hashlib.shake_128(prefix + seeds[i]),
                                   count, field)
    return block


def _expand_one(xof, count: int, field: FieldPrime) -> np.ndarray:
    """The first `count` elements of one stream's XOF.

    One digest covers the expected rejections plus three standard
    deviations; a shortfall reads a longer digest and keeps only its new
    words.  At most two count-sized buffers are live at once: the digest
    and its masked words, then those words and the result.
    """
    q = field.q
    bits = q.bit_length()
    accept = q / (1 << bits)  # probability that a masked word is kept
    mask, bound = np.uint64((1 << bits) - 1), np.uint64(q)
    out = np.empty(0, dtype=np.uint64)
    read = 0  # words consumed so far
    while len(out) < count:
        need = count - len(out)
        more = math.ceil((need + 3 * math.sqrt(need * (1 - accept))) / accept)
        words = np.frombuffer(xof.digest(8 * (read + more)), "<u8")[read:] & mask
        read += more
        if words.max() >= bound:  # no copy when nothing is rejected
            words = words[words < bound]
        out = np.concatenate([out, words]) if len(out) else words
    return out[:count]


# --- LWE masking --------------------------------------------------------------


@dataclass(frozen=True)
class LweParams:
    """Dimensions and noise level for LWE masking.

    n_lwe is the secret length; 710 is the floor the security analysis
    assumes, but smaller values are accepted for desk-scale tests.  sigma
    is the Gaussian parameter of the error, in integer units of the
    encoded (field) domain.  The secret's entries are small: centered
    binomial with eta = SECRET_ETA (18), whose variance, 9, is the
    default sigma^2.  LWE with a secret drawn from the error distribution
    is as hard as with a uniform one (Applebaum, Cash, Peikert & Sahai,
    CRYPTO 2009); no security level is claimed for any parameter set
    here.  The public matrix is never transmitted: all parties regenerate
    it from matrix_seed.
    """

    n_lwe: int = 710
    sigma: float = 3.0
    matrix_seed: bytes = bytes(32)

    def __post_init__(self):
        if self.n_lwe < 1:
            raise ValueError("n_lwe must be >= 1")
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")


def lwe_matrix(params: LweParams, m: int,
               field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    """The public m x n_lwe matrix, expanded row-major from matrix_seed.

    Identical across all clients holding the same seed.
    """
    flat = stream_expand(params.matrix_seed, TAG_MATRIX, m * params.n_lwe, field)
    return flat.reshape(m, params.n_lwe)


def gaussian_draws(sigma: float, m: int, rng) -> np.ndarray:
    """The m int64 draws of the error: N(0, sigma^2), rounded to the
    nearest integer (half to even), from one draw of rng.

    This is a rounded N(0, sigma^2), not an exact discrete Gaussian; the
    differential-privacy fidelity gap is documented, sigma stays
    configurable.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    return np.rint(rng.normal(0.0, sigma, size=m)).astype(np.int64)


def gaussian_error(sigma: float, m: int, rng,
                   field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    """gaussian_draws mapped into F_q: negative draws land in the upper
    half of the field."""
    return (gaussian_draws(sigma, m, rng) % np.int64(field.q)).astype(
        np.uint64)


# The secret's entries are centered binomial with this eta, in [-eta, eta]:
# a module constant, not derived from sigma, which tests set near 0.
SECRET_ETA = 18


def small_secret(n_lwe: int, rng,
                 field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    """An LWE secret of n_lwe centered-binomial entries with eta =
    SECRET_ETA (Binomial(2 eta, 1/2) - eta, variance eta / 2), mapped into
    F_q as gaussian_error's draws are, from one draw of rng."""
    draws = rng.binomial(2 * SECRET_ETA, 0.5, size=n_lwe) - SECRET_ETA
    return (draws % np.int64(field.q)).astype(np.uint64)


def mat_vec_mod(A: np.ndarray, s: np.ndarray,
                field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    """Reference exact A @ s mod q using Python integers.

    Independent of the limb-decomposition fast path; kept as the oracle
    side of the dual-route check.
    """
    m, d = A.shape
    if len(s) != d:
        raise DimensionMismatch(f"matrix is {m}x{d}, vector has {len(s)}")
    q = field.q
    s_int = [int(v) for v in s]
    out = np.empty(m, dtype=np.uint64)
    for i in range(m):
        row = A[i]
        out[i] = sum(int(a) * b for a, b in zip(row, s_int)) % q
    return out


def lwe_mask(w: np.ndarray, s: np.ndarray, e: np.ndarray, A: np.ndarray,
             field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    """h = w + A.s + e (mod q)."""
    m, d = A.shape
    if len(w) != m or len(e) != m or len(s) != d:
        raise DimensionMismatch(
            f"A is {m}x{d}, w has {len(w)}, e has {len(e)}, s has {len(s)}")
    h = add_mod(w, mat_vec_mod(A, s, field), field)
    return add_mod(h, e, field)


# Rows of A per block of the limb build.  One block's limbs stay in cache
# while they are written, so A is read in row order; splitting A.T whole
# would read it column by column, at about twice the cost.
SPLIT_BLOCK = 128


class LweMatrixOps:
    """Exact modular products of a fixed public m x n_lwe matrix A.

    A is split once, SPLIT_BLOCK rows at a time, into the two limbs of its
    transpose (31 and 30 bits for M61): one (n_lwe x 2m) float64 matrix,
    laid out as split_limbs(A.T, axis=1) would give it.  A stack of k
    secrets, the rows of a k x n_lwe matrix S, is split on each call into
    signed limbs as wide as that leaves exact (12 bits at n_lwe = 710 for
    M61), as many as its centered values need: one for small secrets and
    their sums, more for a uniform one (five for M61).
    field.limb_product, the kernel of field.matmul_mod, then forms
    S.A^T = (A.S^T)^T in one BLAS matmul however many secrets it covers.
    A^T's limbs are the right-hand operand because BLAS runs this wide,
    short product about twice as fast as the same FLOPs in the
    (limbs*m x n_lwe) @ (n_lwe x limbs*k) orientation.
    `matvec(s)` takes one secret (shape n_lwe, returns A.s, length m) or
    a stack of k secrets (shape k x n_lwe, returns an m x k transposed
    view whose column j, A.s_j, is contiguous).  Bit-identical to
    mat_vec_mod, column by column.
    """

    def __init__(self, A: np.ndarray, field: FieldPrime = DEFAULT_FIELD):
        A = np.asarray(A, dtype=np.uint64)
        self.field = field
        self.shape = m, d = A.shape
        # A^T in limbs of half q's width, narrower only where n_lwe leaves
        # no room beside them for a secret limb of one bit
        a_bits = min(-(-field.bit_width // 2), limb_bits(d, field, 1))
        self.bits = (limb_bits(d, field, a_bits), a_bits)  # secret's, A^T's
        count = limb_count(a_bits, field)
        limbs = np.empty((d, count, m))
        for r in range(0, m, SPLIT_BLOCK):
            write_limbs(A[r:r + SPLIT_BLOCK].T, a_bits,
                        limbs[:, :, r:r + SPLIT_BLOCK].swapaxes(0, 1))
        self._limbs_T = limbs.reshape(d, count * m)

    def matvec(self, s: np.ndarray) -> np.ndarray:
        m, d = self.shape
        S = np.asarray(s)
        if S.ndim not in (1, 2) or S.shape[-1] != d:
            raise DimensionMismatch(
                f"matrix is {m}x{d}, secrets have shape {S.shape}")
        s_limbs = split_signed(S.reshape(-1, d), self.bits[0], self.field)
        out = limb_product(s_limbs, self._limbs_T, self.bits, self.field)
        return out[0] if S.ndim == 1 else out.T


# One big matrix at a time is plenty: the simulator shares a single matrix
# across all clients of a round, and rebuilding small test matrices is cheap.
_OPS_CACHE: dict[tuple, LweMatrixOps] = {}
_OPS_CACHE_SMALL_LIMIT = 1 << 22  # elements


def lwe_matrix_ops(params: LweParams, m: int,
                   field: FieldPrime = DEFAULT_FIELD) -> LweMatrixOps:
    """Shared, cached matvec handle for the public matrix."""
    key = (params.matrix_seed, m, params.n_lwe, field.q)
    ops = _OPS_CACHE.get(key)
    if ops is None:
        if m * params.n_lwe > _OPS_CACHE_SMALL_LIMIT:
            _OPS_CACHE.clear()
        elif len(_OPS_CACHE) >= 8:
            _OPS_CACHE.pop(next(iter(_OPS_CACHE)))
        ops = LweMatrixOps(lwe_matrix(params, m, field), field)
        _OPS_CACHE[key] = ops
    return ops
