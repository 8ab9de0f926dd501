import math
from itertools import combinations

import numpy as np
import pytest

from secaggsim.errors import EmptyContributors, FieldTooLarge, SecAggError
from secaggsim.field import FieldPrime
from secaggsim.masking import DH_GROUP_TEST, LweParams
from secaggsim.oracle import (
    TrajectoryConfig,
    brute_force_share_consistency,
    expected_outcome,
    mini_training_trajectory,
    plaintext_aggregate,
)
from secaggsim.protocol import ROUND_FNS, RoundConfig
from secaggsim.shamir import Share, sss_share
from secaggsim.simnet import DropoutSchedule, MessageBus

F17 = FieldPrime(17)
F7 = FieldPrime(7)


def test_single_vector_is_its_own_mean():
    v = np.array([1.0, -2.0, 3.5])
    assert np.array_equal(plaintext_aggregate([v]), v)


def test_symmetric_pair():
    out = plaintext_aggregate([np.array([1.0, 1.0]), np.array([3.0, 3.0])])
    assert np.array_equal(out, np.array([2.0, 2.0]))


def test_mean_matches_compensated_recomputation():
    rng = np.random.default_rng(0)
    vecs = [rng.uniform(-1, 1, 8) for _ in range(100)]
    out = plaintext_aggregate(vecs)
    recomputed = np.array([math.fsum(v[j] for v in vecs) / 100
                           for j in range(8)])
    assert np.max(np.abs(out - recomputed)) < 1e-12


def test_empty_contributors_rejected():
    with pytest.raises(EmptyContributors):
        plaintext_aggregate([np.array([1.0])], contributors=[])


def test_two_fixed_shares_flat_histogram():
    shares = sss_share(5, 3, 5, np.random.default_rng(1), F17).shares
    for pair in combinations(shares, 2):
        hist = brute_force_share_consistency(list(pair), 3, F17)
        assert set(hist.values()) == {1}


def test_no_fixed_shares_counts_q_to_t_minus_1():
    hist = brute_force_share_consistency([], 3, F17)
    assert set(hist.values()) == {17 ** 2}


def test_one_share_q7_t2_flat():
    hist = brute_force_share_consistency([Share(1, 3)], 2, F7)
    assert set(hist.values()) == {1}


def test_enumeration_budget_guard():
    with pytest.raises(FieldTooLarge):
        brute_force_share_consistency([], 5, FieldPrime(127))


def test_trajectory_nv_matches_plaintext():
    cfg = TrajectoryConfig(n=6, rounds=4, d=10, eta=0.3, seed=2)
    base = mini_training_trajectory(cfg, "plaintext")
    nv = mini_training_trajectory(cfg, "nv")
    for r, (a, b) in enumerate(zip(base, nv), 1):
        assert np.max(np.abs(a - b)) <= r * 2 ** -15


def test_trajectory_pw_close_to_nv():
    cfg = TrajectoryConfig(n=5, rounds=3, d=6, eta=0.2, seed=3)
    rc = RoundConfig(protocol="pw", n=5, m=6, dh=DH_GROUP_TEST)
    pw = mini_training_trajectory(cfg, "pw", round_cfg=rc)
    nv = mini_training_trajectory(cfg, "nv")
    for a, b in zip(pw, nv):
        assert np.max(np.abs(a - b)) <= 2 ** -15 * 3


def test_trajectory_lwe_degenerate_noise():
    cfg = TrajectoryConfig(n=5, rounds=3, d=6, eta=0.2, seed=4)
    rc = RoundConfig(protocol="lwe", n=5, m=6,
                     lwe=LweParams(n_lwe=16, sigma=1e-6))
    lwe = mini_training_trajectory(cfg, "lwe", round_cfg=rc)
    base = mini_training_trajectory(cfg, "plaintext")
    for a, b in zip(lwe, base):
        assert np.max(np.abs(a - b)) <= 1e-3


def test_trajectory_desk_scale_guard():
    with pytest.raises(ValueError):
        TrajectoryConfig(d=200)


NV5 = RoundConfig(protocol="nv", n=5, m=2, k=1)  # t = 3: 3 summed shares
PW5 = RoundConfig(protocol="pw", n=5, m=2, dh=DH_GROUP_TEST,
                  personal_mask=False)         # t = 3, opens only keys
OUTCOME_CASES = [
    (NV5, {}, None, (0, 1, 2, 3, 4)),
    (NV5, {1: "aggregate_shares", 2: "input_shares"}, None, (0, 1, 3, 4)),
    (NV5, {0: "aggregate_shares", 1: "aggregate_shares", 2: "input_shares"},
     "InsufficientSurvivors", (0, 1, 3, 4)),
    (NV5, dict.fromkeys(range(5), "input_shares"),
     "InsufficientContributors", ()),
    # no DH key to open: one survivor finishes
    (PW5, {0: "setup", 1: "unmask_shares", 2: "unmask_shares",
           3: "unmask_shares"}, None, (1, 2, 3, 4)),
    # client 0's key must be opened from t shares
    (PW5, {0: "masked_vector", 1: "unmask_shares", 2: "unmask_shares",
           3: "unmask_shares"}, "InsufficientSurvivors", (1, 2, 3, 4)),
]


@pytest.mark.parametrize("cfg,drops,failure,contributors", OUTCOME_CASES)
def test_expected_outcome_matches_a_round_on_the_schedule(
        cfg, drops, failure, contributors):
    schedule = DropoutSchedule(stages=drops)
    assert expected_outcome(cfg, schedule) == (failure, contributors)
    bus = MessageBus(cfg, master_seed=1, schedule=schedule)
    inputs = [np.full(cfg.m, 0.1 * i) for i in range(cfg.n)]
    try:
        result = ROUND_FNS[cfg.protocol](inputs, cfg, bus)
    except SecAggError as exc:
        assert type(exc).__name__ == failure
    else:
        assert failure is None and result.contributors == contributors
