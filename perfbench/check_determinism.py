"""Check that each workload's deterministic section depends only on its seed.

    python3 perfbench/check_determinism.py [--seed N] [WORKLOAD ...]

Runs each workload (all by default) twice with seed N and once with seed
N+1, each in a fresh interpreter with a one-second measurement, and
compares the `deterministic` lines they print.  The two runs with one
seed must agree exactly; the other seed must leave the metered bytes,
message count and field-op count unchanged.  Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEED_FREE = ("bytes_per_client", "messages_per_round", "field_ops")


def deterministic_section(name: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{name} seed {seed}: run.py exited {out.returncode}")
    for line in out.stdout.splitlines():
        if line.startswith("deterministic "):
            return json.loads(line.split(" ", 1)[1])
    raise SystemExit(f"{name} seed {seed}: no deterministic section")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workload", nargs="*", help="default: every workload")
    args = ap.parse_args()
    unknown = set(args.workload) - set(workloads.WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")
    status = 0
    for name in args.workload or workloads.WORKLOADS:
        first = deterministic_section(name, args.seed)
        again = deterministic_section(name, args.seed)
        other = deterministic_section(name, args.seed + 1)
        problems = [] if first == again else ["same seed, different section"]
        problems += [f"{key} changes with the seed" for key in SEED_FREE
                     if first[key] != other[key]]
        print(f"{name}: " + ("; ".join(problems) or "ok") + " "
              + json.dumps({k: first[k] for k in SEED_FREE}))
        status = status or bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
