"""Correctness gate and deterministic record of one benchmark round.

Both run outside the timed interval.  The gate recomputes the expected
aggregate from the public seed derivation instead of keeping a
transcript: run_simulation draws client i's input as the first
uniform(-1, 1, m) draw of the generator seeded with
`simnet.client_seed(master_seed, i)`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from secaggsim import encode_vec
from secaggsim.oracle import plaintext_aggregate
from secaggsim.simnet import (
    client_seed,
    meter_expectations,
    metrics_match_expectations,
)

# An lwe average is off by the summed rounded-Gaussian noise plus the
# fixed-point rounding of each input; 8 sigma per coordinate is never
# reached by chance at these sizes.
LWE_TAIL_SIGMAS = 8.0


def regenerate_inputs(rc, master_seed: int) -> list[np.ndarray]:
    return [np.random.Generator(np.random.PCG64(client_seed(master_seed, i)))
            .uniform(-1.0, 1.0, size=rc.m)
            for i in range(rc.n)]


def check_round(report, rc, master_seed: int) -> list[str]:
    """Problems found in one finished round; empty when it is correct."""
    if report.failure is not None:
        return [f"typed failure: {report.failure}"]
    res = report.result
    problems = []
    expected = tuple(i for i in range(rc.n) if i not in report.schedule.stages)
    if tuple(res.contributors) != expected:
        problems.append(f"contributors {res.contributors} != {expected}")
    inputs = regenerate_inputs(rc, master_seed)
    if rc.protocol == "lwe":
        n_c = len(res.contributors)
        want = plaintext_aggregate(inputs, res.contributors)
        tol = ((LWE_TAIL_SIGMAS * rc.lwe.sigma * np.sqrt(n_c) + n_c)
               / (rc.fp.scale * n_c))
        err = float(np.max(np.abs(np.asarray(res.average) - want)))
        if not err <= tol:
            problems.append(f"lwe average off by {err:.3g} > {tol:.3g}")
    else:
        q = np.uint64(rc.field.q)
        want = np.zeros(rc.m, dtype=np.uint64)
        for i in res.contributors:
            want = (want + encode_vec(inputs[i], rc.fp, rc.field)) % q
        if not np.array_equal(np.asarray(res.field_sum, dtype=np.uint64), want):
            problems.append("field_sum differs from the exact mod-q sum")
    if not report.schedule.stages and not metrics_match_expectations(
            report.metrics, meter_expectations(rc)):
        problems.append("meters differ from meter_expectations")
    if not report.metrics.conservation_holds():
        problems.append("bytes sent != delivered + addressed to dropped")
    return problems


def round_record(report, rc) -> dict:
    """The round's values that must not depend on timing or host."""
    metr = report.metrics
    client_bytes = sum(v["bytes_sent"] for v in metr.per_client.values())
    res = report.result
    return {
        "bytes_per_client": client_bytes / rc.n,
        "messages_per_round": metr.total_messages,
        "field_ops": metr.total_field_ops,
        "contributors": None if res is None else list(res.contributors),
        "field_sum_sha256": None if res is None else hashlib.sha256(
            np.asarray(res.field_sum, dtype="<u8").tobytes()).hexdigest(),
    }
