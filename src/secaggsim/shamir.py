"""t-out-of-n Shamir secret sharing, additive homomorphism, and packing.

One routine shares every secret.  It embeds k secrets at the points
first..first+k-1 of a degree-(t+k-2) polynomial whose randomness is
anchored by t-1 uniform values, and holder j's share is the value at the
fixed point first+k+j.  Packed sharing (Franklin & Yung) puts its k
secrets at 1..k, so holder j sits at k+1+j; plain sharing is the same
routine with its one secret at 0, so holder j sits at j+1.  Every point
must lie below q.  Fixed consecutive share points (rather than random
ones) cost nothing in secrecy and make homomorphic addition's
point-matching precondition trivial.

Reconstruction needs t shares (plain) or t+k-1 shares (packed: t+k-1
points determine a degree-(t+k-2) polynomial).  Lagrange basis rows are
cached per point set; sharing and reconstruction both read them.

Vectors and wide integers share to one form, an (n x chunks) uint64
matrix whose row j is recipient j's share of every chunk, at the point
set by the holder.  Sharing and reconstruction are each one product by
field's matmul_mod kernel, and the scalar APIs wrap both cores.  A
sharing basis is prepared once, as field.left_operand lays it out, and
cached with the basis.  Both products have an inner dimension of
t+k-1 <= n points, so on 2^61 - 1 every product of a round of at most
16 clients takes the folded layout.  share_vector and
share_integer also share a block of clients' inputs in one product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BadPacking,
    BadThreshold,
    DuplicatePoint,
    NotEnoughShares,
    PointMismatch,
    SecretOutOfRange,
)
from .field import (DEFAULT_FIELD, FieldPrime, add_mod, left_operand,
                    left_product, matmul_mod, sum_mod)


@dataclass(frozen=True)
class Share:
    """One polynomial evaluation (x, f(x)); x is never 0 or a packed
    secret embedding point."""

    x: int
    y: int


@dataclass
class ShareSet:
    """Shares of one secret (k=1) or one packed block of k secrets."""

    shares: list[Share]
    t: int
    k: int = 1
    field: FieldPrime = DEFAULT_FIELD

    def xs(self) -> tuple[int, ...]:
        return tuple(s.x for s in self.shares)


@lru_cache(maxsize=512)
def lagrange_basis(q: int, pts: tuple[int, ...], targets: tuple[int, ...]):
    """Rows of Lagrange basis coefficients, as a read-only uint64 matrix:
    row r satisfies f(targets[r]) = sum_j row[j] * f(pts[j]) for any poly
    of degree < len(pts).

    Barycentric form from exact integer numerators: one inversion per
    point for its weight, and per target the exact product of x - p over
    every point, which each entry divides by its own x - p.  Cached per
    point set; safe for concurrent readers.
    """
    ws = [pow(math.prod(pj - pi for pi in pts if pi != pj) % q, q - 2, q)
          for pj in pts]
    rows = []
    for x in targets:
        full = math.prod(x - p for p in pts)
        if full == 0:  # x is one of the points
            rows.append([int(x == p) for p in pts])
        else:
            rows.append([full // (x - p) % q * w % q
                         for p, w in zip(pts, ws)])
    return _frozen(rows, len(pts))


def _frozen(rows, width: int) -> np.ndarray:
    out = np.array(rows, dtype=np.uint64).reshape(len(rows), width)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=512)
def _basis_operand(field: FieldPrime, pts: tuple[int, ...],
                   targets: tuple[int, ...]) -> tuple:
    """lagrange_basis(field.q, pts, targets) as field.left_operand
    prepares it, once, cached beside the basis with its limbs read-only.
    Only sharing bases take it: every sharing of a round reuses its
    basis, while survivors share one opening per view, whose points change
    with the dropouts."""
    left = left_operand(lagrange_basis(field.q, pts, targets), field)
    left[0].flags.writeable = False
    return left


def _interpolate(xs: tuple[int, ...], ys, targets: tuple[int, ...],
                 field: FieldPrime, need: int = 0) -> np.ndarray:
    """Values at `targets` of the polynomials through the points xs: ys
    has one row per point and one column per polynomial.  With need > 0,
    at least `need` points are required and the `need` lowest are used."""
    if len(xs) < need:
        raise NotEnoughShares(f"{len(xs)} shares < {need} needed")
    if len(set(xs)) != len(xs):
        raise DuplicatePoint(f"repeated evaluation point in {xs}")
    if need:
        picked = sorted(range(len(xs)), key=xs.__getitem__)[:need]
        xs = tuple(xs[i] for i in picked)
        ys = np.asarray(ys, dtype=np.uint64)[picked]
    return matmul_mod(lagrange_basis(field.q, xs, targets), ys, field)


def interpolate_at(points, x: int, field: FieldPrime = DEFAULT_FIELD) -> int:
    """Evaluate the interpolating polynomial through (x_i, y_i) at x."""
    return int(_interpolate(tuple(p[0] for p in points),
                            [[p[1]] for p in points], (x,), field)[0, 0])


def _shares(blocks: list[np.ndarray], t: int, n: int, rngs,
            field: FieldPrime, first: int) -> list[np.ndarray]:
    """Share each column of every reduced (k x chunks) matrix of blocks on
    one polynomial through its k secrets at the points first..first+k-1.

    The t-1 anchors of every chunk of blocks[i] are drawn from rngs[i]
    chunk by chunk and are the shares at the next t-1 points; the other
    shares follow by interpolation through the secrets and anchors, for
    every block's columns side by side in one product.  Returns one
    (n x chunks) matrix per block, each its own array, so a matrix that
    is never sent does not outlive the block; row j holds the shares at
    point first+k+j.
    """
    k = blocks[0].shape[0]
    if t < 1 or t > n:
        raise BadThreshold(f"need 0 < t <= n, got t={t}, n={n}")
    if n < t + k - 1:
        raise BadPacking(f"packing k={k} needs n >= t+k-1, got n={n}, t={t}")
    if first + k + n > field.q:
        raise ValueError(f"share points up to {first + k + n - 1} "
                         f"wrap mod q={field.q}")
    ends = np.cumsum([b.shape[1] for b in blocks]).tolist()
    spans = [slice(end - b.shape[1], end) for b, end in zip(blocks, ends)]
    coeffs = np.empty((k + t - 1, ends[-1]), dtype=np.uint64)
    for b, rng, cols in zip(blocks, rngs, spans, strict=True):
        coeffs[:k, cols] = b
        coeffs[k:, cols] = rng.integers(0, field.q, size=(b.shape[1], t - 1),
                                        dtype=np.uint64).T
    at = first + k + t - 1
    outs = [np.empty((n, b.shape[1]), dtype=np.uint64) for b in blocks]
    rest = left_product(_basis_operand(field, tuple(range(first, at)),
                                       tuple(range(at, first + k + n))),
                        coeffs, field)
    for out, cols in zip(outs, spans):
        out[:t - 1] = coeffs[k:, cols]
        out[t - 1:] = rest[:, cols]
    return outs


# --- plain Shamir ------------------------------------------------------------


def sss_share(secret: int, t: int, n: int, rng,
              field: FieldPrime = DEFAULT_FIELD) -> ShareSet:
    """Split secret into n shares of a degree-(t-1) polynomial with
    f(0) = secret; the shares at 1..t-1 are drawn uniformly from rng."""
    ys = _shares([np.array([[secret % field.q]], dtype=np.uint64)], t, n,
                 [rng], field, 0)[0][:, 0].tolist()
    return ShareSet([Share(x, y) for x, y in enumerate(ys, 1)],
                    t=t, k=1, field=field)


def sss_reconstruct(share_set: ShareSet) -> int:
    """Lagrange-interpolate f(0) from the t lowest of >= t plain shares."""
    if share_set.k != 1:
        raise ValueError("use packed_reconstruct for k > 1")
    ys = [[s.y] for s in share_set.shares]
    return int(_interpolate(share_set.xs(), ys, (0,), share_set.field,
                            need=share_set.t)[0, 0])


def share_add(a: ShareSet, b: ShareSet) -> ShareSet:
    """Pointwise share addition; reconstructing the result yields the sum
    of the underlying secrets."""
    if a.xs() != b.xs() or a.t != b.t or a.k != b.k or a.field.q != b.field.q:
        raise PointMismatch("share sets do not line up")
    ys = add_mod([s.y for s in a.shares], [s.y for s in b.shares], a.field)
    shares = [Share(x, y) for x, y in zip(a.xs(), ys.tolist())]
    return ShareSet(shares, t=a.t, k=a.k, field=a.field)


# --- packed Shamir ------------------------------------------------------------


def packed_share(secrets: list[int], t: int, n: int, rng,
                 field: FieldPrime = DEFAULT_FIELD) -> ShareSet:
    """Embed k secrets in one polynomial; any t+k-1 shares reconstruct,
    any t-1 reveal nothing."""
    k = len(secrets)
    blocks = np.array([[s % field.q] for s in secrets], dtype=np.uint64)
    ys = _shares([blocks], t, n, [rng], field, 1)[0][:, 0].tolist()
    return ShareSet([Share(x, y) for x, y in enumerate(ys, k + 1)],
                    t=t, k=k, field=field)


def packed_reconstruct(share_set: ShareSet) -> list[int]:
    """Recover the k packed secrets from >= t+k-1 shares."""
    t, k = share_set.t, share_set.k
    ys = [[s.y] for s in share_set.shares]
    return _interpolate(share_set.xs(), ys, tuple(range(1, k + 1)),
                        share_set.field, need=t + k - 1)[:, 0].tolist()


# --- packed sharing of whole vectors -----------------------------------------


def share_vector(w, t: int, n: int, k: int, rng=None,
                 field: FieldPrime = DEFAULT_FIELD):
    """Chunk w into chunk_count(len(w), k) packed blocks and share each;
    the last is zero-padded.

    Returns an (n x chunks) uint64 matrix: row j holds recipient j's
    share of every chunk, all at the evaluation point x = k + 1 + j.
    With rng None, w is a sequence of (vector, rng) pairs instead, all
    shared in one product with each pair's anchors drawn from its own
    rng in turn; returns one matrix per pair, each equal to what that
    pair's own call would return.
    """
    pairs = [(w, rng)] if rng is not None else w
    blocks = []
    for vec, _ in pairs:
        vec = np.asarray(vec, dtype=np.uint64)
        m = len(vec)
        chunks = chunk_count(m, k)
        padded = np.zeros(chunks * k, dtype=np.uint64)
        np.remainder(vec, np.uint64(field.q), out=padded[:m])
        blocks.append(padded.reshape(chunks, k).T)
    rows = _shares(blocks, t, n, [r for _, r in pairs], field, 1)
    return rows[0] if rng is not None else rows


def add_share_vectors(rows, field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    """Sum of share rows held at one point; reconstructing the sums
    yields the sum of the shared vectors."""
    return sum_mod(rows, field)


def reconstruct_vector(xs, ys, t: int, k: int, vec_len: int,
                       field: FieldPrime = DEFAULT_FIELD) -> np.ndarray:
    """Recover a share_vector input from the t+k-1 lowest points of xs;
    ys holds one share row per point."""
    ys = np.asarray(ys, dtype=np.uint64)
    if ys.shape[1:] != (chunk_count(vec_len, k),):
        raise PointMismatch(
            f"share rows of shape {ys.shape} for {vec_len} coords at k={k}")
    blocks = _interpolate(tuple(xs), ys, tuple(range(1, k + 1)), field,
                          need=t + k - 1)
    return blocks.T.reshape(-1)[:vec_len]


# --- chunked sharing of wide integers (keys, seeds) ---------------------------


def chunk_count(total: int, width: int) -> int:
    """Chunks (at least one) of `width` bits or coordinates that hold a
    total-bit integer or a total-long vector; depends only on the sizes,
    so every party agrees on the layout."""
    return max(1, -(-total // width))


def integer_chunks(value: int, total_bits: int, chunk_bits: int) -> list[int]:
    """Big-endian fixed-width decomposition into chunk_count chunks."""
    n_chunks = chunk_count(total_bits, chunk_bits)
    mask = (1 << chunk_bits) - 1
    return [(value >> (chunk_bits * (n_chunks - 1 - i))) & mask
            for i in range(n_chunks)]


def chunks_to_integer(chunks: list[int], total_bits: int,
                      chunk_bits: int) -> int:
    """Inverse of integer_chunks.  Chunks opened from a corrupted share
    row can be wider than chunk_bits or join to more than total_bits;
    either raises SecretOutOfRange."""
    value = 0
    for c in chunks:
        value = (value << chunk_bits) + c
    if max(chunks) >> chunk_bits or value >> total_bits:
        raise SecretOutOfRange(
            f"opened secret is wider than {total_bits} bits")
    return value


def chunk_bits_for(field: FieldPrime) -> int:
    # each chunk must stay below q; wide fields take 7-byte (56-bit) chunks
    return min(56, field.bit_width - 1)


def share_integer(values, widths, t: int, n: int, rng=None,
                  field: FieldPrime = DEFAULT_FIELD):
    """Shamir-share a wide integer chunk by chunk, or several side by side.

    values and widths are one integer and its total bits, or sequences of
    them, as reconstruct_integer takes.  Every chunk of every secret is
    shared in one product, with the anchors drawn secret by secret in
    order, as separate calls would draw them.  Returns an (n x chunks)
    uint64 matrix: row j holds recipient j's shares of every chunk, the
    secrets' chunks side by side, all at the evaluation point x = j + 1.
    With rng None, values is a sequence of (values, rng) pairs instead,
    each of the given widths, all shared in one product; returns one
    matrix per pair, each equal to what that pair's own call would
    return.
    """
    pairs = [(values, rng)] if rng is not None else values
    if isinstance(widths, int):
        pairs = [([v], r) for v, r in pairs]
        widths = [widths]
    bits = chunk_bits_for(field)
    blocks = [np.array([[c for v, w in zip(vs, widths, strict=True)
                         for c in integer_chunks(v, w, bits)]],
                       dtype=np.uint64) for vs, _ in pairs]
    rows = _shares(blocks, t, n, [r for _, r in pairs], field, 0)
    return rows[0] if rng is not None else rows


def reconstruct_integer(xs, ys, t: int, widths,
                        field: FieldPrime = DEFAULT_FIELD) -> list[int]:
    """Open several share_integer secrets in one interpolation.

    ys has one row per point of xs: the shares at that point of secrets
    of total_bits widths[0], widths[1], ..., side by side.  The t lowest
    points give every chunk; returns one integer per width.
    """
    bits = chunk_bits_for(field)
    counts = [chunk_count(w, bits) for w in widths]
    chunks = _interpolate(tuple(xs), ys, (0,), field, need=t)[0].tolist()
    if len(chunks) != sum(counts):
        raise ValueError(f"{len(chunks)} chunk shares for widths {widths}")
    out, at = [], 0
    for w, c in zip(widths, counts):
        out.append(chunks_to_integer(chunks[at:at + c], w, bits))
        at += c
    return out
