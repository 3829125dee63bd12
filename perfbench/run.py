"""Benchmark of the localchar library on the acceptance workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see worker.py for their inputs):

  rank1_twists        criterion 3, verify_rank_one_twists on the p=7, N=5
                      pair: the closed-form path (Gauss sums, MulChar.eval,
                      log_principal, CycNumber) does nearly all the work.
  coset_products      criterion 4, the rank-2 twisting-pair catalog streamed
                      into verify_coset_products on the p=11, N=7 pair: the
                      catalog and the compositum norms do the work.
  oracle_consistency  criterion 2, epsilon_oracle_consistency with
                      oracle_sum: the numpy oracle kernel and its grid cache
                      do the work, and memory is at stake.

One caller in a closed loop, jobs=1: repetitions of the workload run one
after another, each in a fresh process so that every cache is paid as a
command-line user pays it, while another one still fits into --seconds;
at least two run.  Before them, five set-up-only processes and the
untimed negative control run.  Every repetition's outputs are checked by
worker.py against the digests recorded from the reference commit, and the
negative control must fail; any failure makes the run incorrect and the
exit code 1.

--trace 0 reports the end-to-end metrics of untraced repetitions:
throughput over all of them, the median set-up time over all set-ups of
the run, and the peak memory.  The run record also holds the per-instance
latency percentiles with their sample count.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians), with trace_overhead_frac,
the traced over the untraced median work time, minus 1.

The last stdout line is the result object; the line before it, also
written to perfbench/out/, is the run record (machine, versions, counts,
sample sizes).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("rank1_twists", "coset_products", "oracle_consistency")
SETUP_PROBES = 5
# throughput spans at least this many processes
MIN_REPETITIONS = 2
DEADLINE_S = 170.0
# fixed hash seed: set iteration order, and with it timing, repeats
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

UNITS = {"throughput_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def child(args, deadline):
    """Run one worker process; returns (result or None, launch time)."""
    t = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=CHILD_ENV)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker {args} timed out", file=sys.stderr)
        return None, t
    if proc.returncode != 0 or not stdout.strip():
        print(f"worker {args} exited with {proc.returncode}", file=sys.stderr)
        return None, t
    return json.loads(stdout.strip().splitlines()[-1]), t


def git_sha():
    """The checked-out commit, read from .git without leaving the tree."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def percentiles(samples):
    """Median, p90 and p99 of the latencies, with the sample count, which
    tells the percentiles with ten samples beyond them (p99 needs 1000)."""
    if len(samples) < 2:
        return {"p50_ms": None, "p90_ms": None, "p99_ms": None,
                "samples": len(samples)}
    cuts = statistics.quantiles(samples, n=100)
    return {"p50_ms": statistics.median(samples), "p90_ms": cuts[89],
            "p99_ms": cuts[98], "samples": len(samples)}


def bench(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns (result object, run record)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    with open(HERE / "expected.json") as fh:
        expected_n = json.load(fh)[workload][size]["instances"]
    args = [workload, str(seed)]
    problems = []

    probe, _ = child(args + ["probe", size], deadline)
    probe = probe and probe["probe"]
    if not probe or probe["pairs"] != 40 or probe["failing"] == 0:
        problems.append(f"negative control did not fail: {probe}")

    setups = []
    for _ in range(SETUP_PROBES):
        res, t = child(args + ["setup", size], deadline)
        if res is None:
            problems.append("set-up failed")
            break
        setups.append(res["setup_done"] - t)

    modes = ["run", "trace"] if trace else ["run"]
    reps = {m: [] for m in modes}
    attempted = failed = 0
    t0 = time.monotonic()
    longest = 0.0
    while not problems:
        mode = modes[sum(map(len, reps.values())) % len(modes)]
        res, t = child(args + [mode, size], deadline)
        longest = max(longest, time.monotonic() - t)
        if res is None:
            attempted += expected_n
            failed += expected_n
            problems.append(f"{mode} repetition crashed")
            break
        reps[mode].append(res)
        setups.append(res["setup_done"] - t)
        attempted += res["instances"]
        failed += res["failed"]
        problems += res["problems"]
        now = time.monotonic()
        done = sum(map(len, reps.values()))
        if (all(reps.values()) and done >= MIN_REPETITIONS
                and now - t0 + longest > seconds or now + longest > deadline):
            break

    plain = reps["run"]
    latency = percentiles([x for r in plain for x in r["latencies_ms"]])
    metrics = {}
    if trace:
        traced = reps.get("trace", [])
        for key in (traced[0]["layers"] if traced else {}):
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        if traced and plain:
            metrics["trace_overhead_frac"] = (
                statistics.median(r["work_s"] for r in traced)
                / statistics.median(r["work_s"] for r in plain) - 1)
    elif plain:
        metrics = {
            "throughput_per_s": (sum(r["instances"] for r in plain)
                                 / sum(r["work_s"] for r in plain)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["rss_mb"] for r in plain),
        }
    correct = not problems and failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed if attempted else 1,
              "metrics": {k: {"value": v, "unit": unit(k)}
                          for k, v in metrics.items()}}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "git_sha": git_sha(), "jobs": 1, "closed_loop_callers": 1,
        "repetitions": {m: len(r) for m, r in reps.items()},
        "instances_per_repetition": [r["instances"] for m in modes
                                     for r in reps[m]],
        "work_s_per_repetition": [r["work_s"] for m in modes
                                  for r in reps[m]],
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else None,
        "setup_samples": len(setups),
        "instance_latency": latency,
        "negative_control": probe, "problems": problems,
        "wall_s": time.monotonic() - start,
    }
    return result, record


def unit(metric):
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith(".calls") or metric == "oracle.terms":
        return "count"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "ratio"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "localchar" / "__init__.py").is_file():
        print("no localchar sources under src/: run from the repository root",
              file=sys.stderr)
        return 2
    result, record = bench(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
