"""Independent references: plaintext aggregation, exhaustive secrecy
checks, and a synthetic training loop driven by any aggregation backend.

Nothing here reuses the protocol-side reconstruction paths; these are the
second route in every dual-route check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyContributors, FieldTooLarge
from .field import FieldPrime
from .protocol.rounds import ROUND_FNS, RoundConfig
from .shamir import Share

_BRUTE_FORCE_LIMIT = 10_000_000


def plaintext_aggregate(vectors, contributors=None) -> np.ndarray:
    """Arithmetic mean over the contributor set, compensated summation
    per coordinate (math.fsum) so oracle error stays below test tolerances."""
    if contributors is None:
        contributors = range(len(vectors))
    chosen = [np.asarray(vectors[i], dtype=np.float64) for i in contributors]
    if not chosen:
        raise EmptyContributors("mean over an empty contributor set")
    dim = len(chosen[0])
    return np.array([
        math.fsum(v[j] for v in chosen) / len(chosen) for j in range(dim)
    ])


def brute_force_share_consistency(fixed_shares: list[Share], t: int,
                                  field: FieldPrime) -> dict[int, int]:
    """For each candidate secret, count degree-<=t-1 polynomials with
    f(0)=secret matching the fixed shares, by full enumeration.

    Flat histograms are the secrecy property made assertable: with at
    most t-1 shares fixed, every candidate secret stays equally likely.
    """
    q = field.q
    if q ** t > _BRUTE_FORCE_LIMIT:
        raise FieldTooLarge(f"q^t = {q ** t} exceeds enumeration budget")
    xs = [s.x for s in fixed_shares]
    ys = [s.y for s in fixed_shares]
    hist = {s: 0 for s in range(q)}
    coeffs = [0] * t

    def recurse(i: int):
        if i == t:
            for x, y in zip(xs, ys):
                acc = 0
                for c in reversed(coeffs):
                    acc = (acc * x + c) % q
                if acc != y:
                    return
            hist[coeffs[0]] += 1
            return
        for v in range(q):
            coeffs[i] = v
            recurse(i + 1)

    recurse(0)
    return hist


def brute_force_packed_consistency(fixed_shares: list[Share], t: int, k: int,
                                   field: FieldPrime) -> np.ndarray:
    """Exhaustive packed-secrecy check for k=2: enumerate every polynomial
    of degree <= t+k-2, keep those matching the fixed shares, histogram the
    secret pair (f(1), f(2)).  Vectorized enumeration, still blind."""
    if k != 2:
        raise ValueError("histogram indexing implemented for k=2")
    q = field.q
    deg = t + k - 1  # number of coefficients
    if q ** deg > _BRUTE_FORCE_LIMIT:
        raise FieldTooLarge(f"q^(t+k-1) = {q ** deg} exceeds enumeration budget")
    grids = np.meshgrid(*[np.arange(q, dtype=np.int64)] * (deg - 1),
                        indexing="ij")
    highs = [g.ravel() for g in grids]  # coefficients a_1..a_{deg-1}

    def eval_at(x: int, a0: int) -> np.ndarray:
        acc = np.zeros_like(highs[0])
        for c in reversed(highs):
            acc = (acc * x + c) % q
        return (acc * x + a0) % q

    hist = np.zeros((q, q), dtype=np.int64)
    for a0 in range(q):
        ok = np.ones_like(highs[0], dtype=bool)
        for s in fixed_shares:
            ok &= eval_at(s.x, a0) == s.y
        s1 = eval_at(1, a0)[ok]
        s2 = eval_at(2, a0)[ok]
        np.add.at(hist, (s1, s2), 1)
    return hist


# each protocol's last opening stage and its final stage, by label
_LAST_STAGES = {"nv": ("input_shares", "aggregate_shares"),
                "lwe": ("masked_vector", "sum_shares"),
                "pw": ("masked_vector", "unmask_shares")}


def expected_outcome(cfg: RoundConfig, schedule) -> tuple[str | None,
                                                         tuple[int, ...]]:
    """(the failure type name or None, the contributors) that one round
    of cfg ends with under a stage-atomic DropoutSchedule, from the
    schedule alone.  The contributors C are the clients alive through the
    last opening stage, the survivors L those that never drop.  No C is
    InsufficientContributors.  Too few survivors to open is
    InsufficientSurvivors: fewer than max(1, t+k-1) for nv and lwe; for
    pw fewer than t where a secret is opened (with personal masks, or the
    DH key of a client that dropped at the masked vector), and none
    otherwise.  Else the round succeeds with C; an lwe round may still end
    in DecodeRange, which its noise decides."""
    opening, final = _LAST_STAGES[cfg.protocol]
    drops = schedule.stages
    contributors = tuple(i for i in range(cfg.n)
                         if drops.get(i, final) == final)
    if cfg.protocol != "pw":
        need = max(1, cfg.t + cfg.k - 1)
    else:
        need = cfg.t if cfg.personal_mask or opening in drops.values() else 1
    if not contributors:
        return "InsufficientContributors", contributors
    if sum(i not in drops for i in range(cfg.n)) < need:
        return "InsufficientSurvivors", contributors
    return None, contributors


@dataclass(frozen=True)
class TrajectoryConfig:
    """Desk-scale synthetic task: per-client quadratic loss
    0.5*||w - target_c||^2, so the local gradient step is
    w - eta*(w - target_c)."""

    n: int = 10
    rounds: int = 5
    d: int = 20
    eta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.d > 100 or self.rounds > 20:
            raise ValueError("trajectory oracle is desk-scale: d<=100, rounds<=20")


def mini_training_trajectory(cfg: TrajectoryConfig, aggregation: str,
                             round_cfg: RoundConfig | None = None,
                             master_seed: int = 0) -> list[np.ndarray]:
    """Run the model-averaging loop with the chosen aggregation backend
    replacing the averaging step; returns the shared model per round.

    aggregation is "plaintext" or one of the protocol names; protocol
    rounds run dropout-free on a private bus.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    targets = [rng.uniform(-1.0, 1.0, size=cfg.d) for _ in range(cfg.n)]
    w = np.zeros(cfg.d)
    bus = None
    if aggregation != "plaintext":
        if round_cfg is None:
            round_cfg = RoundConfig(protocol=aggregation, n=cfg.n, m=cfg.d)
        from .simnet import MessageBus  # local import: oracle stays usable alone
        bus = MessageBus(round_cfg, master_seed)
    history = []
    for _ in range(cfg.rounds):
        locals_ = [w - cfg.eta * (w - targets[c]) for c in range(cfg.n)]
        if aggregation == "plaintext":
            w = plaintext_aggregate(locals_)
        else:
            result = ROUND_FNS[aggregation](locals_, round_cfg, bus)
            w = result.average
            bus.next_round()
        history.append(np.array(w))
    return history
