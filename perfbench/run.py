"""Closed-loop benchmark of secaggsim aggregation rounds.

Run from the repository root:

    python3 perfbench/run.py --workload nv-bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one caller: rounds run one after another through the public
API (`RoundConfig`, `SimConfig`, `run_simulation`, `lwe_matrix_ops`), each
with a one-round `SimConfig` whose master seed is derived from `--seed`.
A first round warms caches and is checked but not timed; timed rounds
follow until `--seconds` have passed.  Every round is checked against an
oracle outside the timed interval.

With `--trace 0` the last output line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics, taken
from a separate set of traced rounds (see spans.py).  `--workload all`
runs every workload in a fresh interpreter, one after another.

Exit status is 0 only when every round was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans
import workloads

BENCHMARK_JSON = workloads.ROOT / "BENCHMARK.json"
HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_TIMED_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
CHILD_TIMEOUT_S = 170
ALL_TIMEOUT_S = 900


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def single_thread_blas() -> int:
    """Run numeric libraries on one thread; must run before numpy is
    imported.  On a few shared cores a second BLAS thread makes the LWE
    mat-vec wait on whichever core the host lends out last, which spreads
    round times far more than it saves."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return 1


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    if not (workloads.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=workloads.ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_record(seed: int, blas_threads: int) -> dict:
    import platform

    import numpy

    return {"nproc": nproc(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": blas_threads, "git_commit": git_commit(),
            "workload_seed": seed}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(correct, attempted, failed, values: dict, units: dict) -> str:
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(values) ^ set(units))} differ "
            "from BENCHMARK.json")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    })


def setup_probe(wl, seed: int) -> float:
    """One cold set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), wl.name,
         str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"perfbench: set-up probe exited {out.returncode}")
    return float(out.stdout.split()[-1])


class Runner:
    """Runs and checks the rounds of one workload in this interpreter."""

    def __init__(self, wl, seed: int, rc):
        import gate
        from secaggsim import run_simulation

        self.wl, self.seed, self.rc = wl, seed, rc
        self._gate = gate
        self._run = run_simulation
        self.attempted = 0
        self.failed = 0
        self.next_index = 0
        self.records: list[dict] = []

    def one(self, tracer=None) -> float:
        """Run, time and check one round; returns its seconds."""
        index = self.next_index
        self.next_index += 1
        master = workloads.round_seed(self.wl.name, self.seed, index)
        sim = workloads.sim_config(self.wl, self.rc, master)
        start = time.perf_counter()
        try:
            if tracer is None:
                report = self._run(sim)
            else:
                report = tracer.root(spans.ROUND, self._run, sim)
        except Exception:  # a crash is a failed round; keep measuring
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            problems, record = ["raised"], None
        else:
            elapsed = time.perf_counter() - start
            problems = self._gate.check_round(report, self.rc, master)
            record = self._gate.round_record(report, self.rc)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"round {index} (master seed {master}) failed: "
                  + "; ".join(problems))
        self.records.append(record)
        return elapsed

    def loop(self, seconds: float, minimum: int, tracer=None) -> list[float]:
        """Closed loop: the next round starts when the previous one and
        its check are done, until `seconds` have passed."""
        times = []
        start = time.perf_counter()
        while len(times) < minimum or time.perf_counter() - start < seconds:
            times.append(self.one(tracer))
        return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(wl, seed: int, seconds: float, trace: bool) -> int:
    workloads.use_checkout_source()
    blas_threads = single_thread_blas()
    units = declared_metrics(trace)
    # this interpreter's own cold set-up is one more sample
    probes = 0 if trace else (1 if wl.protocol == "lwe" else 7)
    setup_samples = [setup_probe(wl, seed) for _ in range(probes)]
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        rc, _ = tracer.root(spans.SETUP, workloads.cold_setup, wl, seed)
        tracer.uninstall()
    else:
        rc, own_setup = workloads.cold_setup(wl, seed)
        setup_samples.append(own_setup)
    print("host " + json.dumps(host_record(seed, blas_threads)))
    print(f"workload {wl.name}: {wl.protocol} n={wl.n} m={wl.m} "
          f"dropout={wl.dropout_rate}@{wl.dropout_stage} -- {wl.why}")

    runner = Runner(wl, seed, rc)
    warm = runner.one()
    print("deterministic " + json.dumps(runner.records[0], sort_keys=True))
    print(f"warm-up round: {warm:.4f} s (checked, not timed)")
    if trace:
        values = traced_metrics(runner, wl, tracer, seconds)
    else:
        values = timed_metrics(runner, seconds, setup_samples)
    correct = runner.failed == 0
    result = result_line(correct, runner.attempted, runner.failed, values,
                         units)
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"fail_ratio = {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} rounds)")
    print(result)
    return 0 if correct else 1


def timed_metrics(runner, seconds, setup_samples) -> dict:
    times = runner.loop(seconds, MIN_TIMED_ROUNDS)
    records = [r for r in runner.records[1:] if r is not None] or [{}]
    round_s = statistics.median(times)
    lo, hi = quartiles(times)
    values = {
        "round_s": round_s,
        "coords_per_s": runner.rc.n * runner.rc.m / round_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bytes_per_client": statistics.fmean(
            r.get("bytes_per_client", 0) for r in records),
        "messages_per_round": statistics.fmean(
            r.get("messages_per_round", 0) for r in records),
    }
    print(f"round_s: median of {len(times)} timed rounds, quartiles "
          f"{lo:.4f}..{hi:.4f} s")
    print(f"setup_s: median of {len(setup_samples)} cold set-ups "
          f"{[round(s, 4) for s in setup_samples]}")
    return values


def traced_metrics(runner, wl, tracer, seconds) -> dict:
    from secaggsim.shamir import lagrange_basis

    untraced = runner.loop(seconds / 2, MIN_TRACE_ROUNDS)
    before = lagrange_basis.cache_info()
    first = len(runner.records)
    tracer.install()
    try:
        traced = runner.loop(seconds / 2, MIN_TRACE_ROUNDS, tracer)
    finally:
        tracer.uninstall()
    after = lagrange_basis.cache_info()
    done = [r for r in runner.records[first:] if r is not None]
    values, breakdown = spans.summarize(
        tracer, len(traced),
        statistics.fmean(r["messages_per_round"] for r in done) if done else 0.0,
        after.hits - before.hits, after.misses - before.misses)
    values["trace.overhead"] = (statistics.median(traced)
                                / statistics.median(untraced))
    print(f"traced {len(traced)} rounds after {len(untraced)} untraced; "
          f"{len(tracer.spans)} spans kept in memory")
    for phase, predicted in (("round", wl.predicted),
                             ("setup", wl.setup_predicted)):
        self_s = breakdown[f"{phase}_self_s"]
        if not predicted or not self_s:
            continue
        found, share = spans.dominant(self_s, predicted)
        verdict = "agrees" if found == predicted else "DISAGREES"
        print(f"dominant in {phase}: found {found} ({share:.1%} of self "
              f"time), predicted {predicted}: {verdict}")
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
        print(f"  {phase} self time: " + ", ".join(
            f"{k} {v:.4f} s" for k, v in top))
    return values


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh interpreter, one at a time, so caches and
    peak memory never carry over."""
    status = 0
    attempted = failed = 0
    metrics = {}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=ALL_TIMEOUT_S, check=False)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        status = status or out.returncode
        try:
            result = json.loads(out.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            status = status or 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for key, val in result["metrics"].items():
            metrics[f"{name}/{key}"] = val
    print(json.dumps({"correct": status == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(workloads.WORKLOADS[args.workload], args.seed,
                        args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
