"""The benchmark's workloads, its seed derivations and its cold set-up.

Importing this module imports nothing from secaggsim or numpy, so the
orchestrating process and the set-up probes can load it cheaply; the
program is imported inside `cold_setup`, where its cost is part of the
set-up time.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NO_DROPOUT = "uniform"  # the policy is irrelevant at rate 0


@dataclass(frozen=True)
class Workload:
    """One aggregation-round shape.  `predicted` names the span (or, for
    a bare layer name, the layer) expected to dominate a round's self
    time; `setup_predicted` the same for the set-up phase."""

    name: str
    protocol: str
    n: int
    m: int
    why: str
    predicted: str
    dropout_rate: float = 0.0
    dropout_stage: str = NO_DROPOUT
    n_lwe: int | None = None         # lwe only
    sigma: float | None = None       # lwe only
    setup_predicted: str | None = None


WORKLOADS = {w.name: w for w in (
    Workload(
        name="nv-bulk", protocol="nv", n=10, m=10_000,
        why="long packed share vectors: Shamir share/reconstruct dominate, "
            "masking never runs",
        predicted="shamir"),
    Workload(
        name="lwe-bulk", protocol="lwe", n=10, m=5_000, n_lwe=710, sigma=3.0,
        why="the only cold set-up (LWE matrix expansion) and the only "
            "LWE mat-vec; largest memory footprint",
        predicted="masking.matvec", setup_predicted="masking.stream_expand"),
    Workload(
        name="pw-n50-recover", protocol="pw", n=50, m=100,
        dropout_rate=0.3, dropout_stage="masked_vector",
        why="many short mask streams, many scalar reconstructions and "
            "~10.8k metered messages; DH is cheap here",
        predicted="masking.stream_expand"),
)}


def use_checkout_source() -> None:
    """Import secaggsim from this checkout's src/ and nowhere else."""
    if not (SRC / "secaggsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no secaggsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _digest(*parts) -> bytes:
    text = "|".join(str(p) for p in ("secaggsim-bench",) + parts)
    return hashlib.sha256(text.encode()).digest()


def round_seed(name: str, seed: int, index: int) -> int:
    """Master seed of round `index` of a run; fits the simulator's
    8-byte seed field."""
    return int.from_bytes(_digest(name, seed, "round", index)[:8], "big")


def matrix_seed(name: str, seed: int) -> bytes:
    """LWE public-matrix seed of a run, fixed for all its rounds so the
    matrix is expanded once, in set-up."""
    return _digest(name, seed, "A-matrix")


def round_config(wl: Workload, seed: int):
    from secaggsim import DH_GROUP_TEST, LweParams, RoundConfig

    kwargs = {}
    if wl.protocol == "lwe":
        kwargs["lwe"] = LweParams(n_lwe=wl.n_lwe, sigma=wl.sigma,
                                  matrix_seed=matrix_seed(wl.name, seed))
    if wl.protocol == "pw":
        kwargs["dh"] = DH_GROUP_TEST
    return RoundConfig(protocol=wl.protocol, n=wl.n, m=wl.m,
                       planned_dropouts=int(wl.dropout_rate * wl.n), **kwargs)


def sim_config(wl: Workload, rc, master_seed: int):
    from secaggsim import SimConfig

    return SimConfig(round_cfg=rc, master_seed=master_seed,
                     dropout_rate=wl.dropout_rate,
                     dropout_stage_policy=wl.dropout_stage)


def cold_setup(wl: Workload, seed: int):
    """Bring a fresh interpreter to the point where rounds can run: import
    the program, build the round configuration and, for lwe, expand the
    public matrix.  Returns (RoundConfig, seconds).  Only the first call
    in an interpreter is cold."""
    start = time.perf_counter()
    from secaggsim.masking import lwe_matrix_ops

    rc = round_config(wl, seed)
    if wl.protocol == "lwe":
        lwe_matrix_ops(rc.lwe, rc.m, rc.field)
    return rc, time.perf_counter() - start
