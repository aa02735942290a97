#!/usr/bin/env python3
"""Borg-replay benchmark.

Builds the replay_bench binary from ../src into .bench_build/replaybench,
runs one workload for about --seconds seconds and prints, as the last line
of stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 replaybench/run.py --workload steady_paper --seed 1 --seconds 20 --trace 0

--trace 0 times untraced `exp::run_replay` calls and reports the end-to-end
metrics; --trace 1 replays traced and reports the per-layer metrics. Metric
names and units come from BENCHMARK.json at the repo root. Every replay runs
in a fresh process, one after another; README.md explains the metrics.

A run replays distinct slices of one workload, slice i with sub-seed
1000 * seed + i. A replay is a failed operation when it did not complete,
left a trace job non-terminal, over-committed the EPC at a sampler tick,
disagrees with the digest recorded for the default seed in digests.json,
or when the traced and untraced replays of one slice disagree.
`--record-digests` rewrites the workload's entry in digests.json from a
clean default-seed run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "replaybench"
BINARY = BUILD / "replay_bench"
SPANS = BUILD / "spans"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
SUB_SEED_STRIDE = 1000
SETUP_REPS = 9           # set-up timings per untraced process (median kept)
PROCESS_TIMEOUT_S = 120  # one replay; the slowest takes a few seconds
RUN_LIMIT_S = 120        # no new slice starts past this, whatever --seconds


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("replaybench: orchestrator sources (src/) not found")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1)), "--target", "replay_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log("replaybench: build failed:", " ".join(step))
            return False
    return BINARY.is_file()


def workloads():
    """name -> (slices, traced slices), as replay_bench defines them."""
    out = subprocess.run([str(BINARY), "workloads"], capture_output=True,
                         text=True, check=True).stdout
    table = {}
    for line in out.splitlines():
        name, slices, traced = line.split()
        table[name] = (int(slices), int(traced))
    return table


def replay(mode, workload, sub_seed, *extra):
    """One replay in a fresh process: its JSON record, or None if it failed."""
    cmd = [str(BINARY), mode, "--workload", workload, "--seed", str(sub_seed),
           *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"replaybench: {mode} replay of sub-seed {sub_seed} timed out")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"replaybench: {mode} replay of sub-seed {sub_seed} exited "
            f"{proc.returncode}: {proc.stderr.strip()}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """The replays of one benchmark run, keyed by sub-seed, and the gate."""

    def __init__(self, workload, recorded):
        self.workload = workload
        self.recorded = recorded  # sub-seed -> digest (default seed only)
        self.untraced = {}
        self.traced = {}
        self.attempted = 0
        self.failed = 0

    def add(self, mode, sub_seed, *extra):
        record = replay(mode, self.workload, sub_seed, *extra)
        self.attempted += 1
        found = self.problems(sub_seed, record)
        if record is not None:
            (self.untraced if mode == "untraced" else self.traced)[
                sub_seed] = record
        if found:
            self.failed += 1
            log(f"replaybench: {self.workload} sub-seed {sub_seed} {mode}: "
                + "; ".join(found))

    def problems(self, sub_seed, record):
        if record is None:
            return ["replay process failed"]
        out = []
        if not record["completed"]:
            out.append("replay did not complete before its deadline")
        if not (record["terminal"] == record["jobs"] ==
                record["expected_jobs"]):
            out.append(f"{record['terminal']} of {record['expected_jobs']} "
                       "trace jobs terminal")
        if record.get("epc_overcommits", 0):
            out.append(f"EPC over-committed at {record['epc_overcommits']} "
                       "sampler ticks")
        if record.get("spans_written") is False:
            out.append("span file not written")
        expected = self.recorded.get(str(sub_seed))
        if expected is not None and record["digest"] != expected:
            out.append(f"digest {record['digest']} != recorded {expected}")
        # The traced and untraced replays of one slice must agree exactly.
        for other in (self.untraced.get(sub_seed), self.traced.get(sub_seed)):
            if other is not None and other["digest"] != record["digest"]:
                out.append(f"digest {record['digest']} != {other['pass']} "
                           f"digest {other['digest']}")
        return out


def mean(values):
    values = list(values)
    return sum(values) / len(values)


def end_to_end(run, n_slices):
    every = list(run.untraced.values())
    # Virtual-time outputs cover the fixed first slices only, so they are a
    # pure function of the seed; host-time metrics use every slice timed.
    fixed = [run.untraced[s] for s in sorted(run.untraced)[:n_slices]]
    replay_s = sum(r["replay_s"] for r in every)
    return {
        "replay_s": replay_s / len(every),
        "jobs_per_s": sum(r["terminal"] for r in every) / replay_s,
        "setup_s": statistics.median(r["setup_s"] for r in every),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in every),
        "sim_makespan_s": mean(r["sim_makespan_s"] for r in fixed),
        "sim_turnaround_mean_s": mean(r["sim_turnaround_mean_s"]
                                      for r in fixed),
    }


def per_layer(run, names):
    traced = list(run.traced.values())
    paired = [s for s in run.traced if s in run.untraced]
    traced_s = sum(r["traced_s"] for r in traced)
    derived = {
        "sched.sim_wait_p50_s": mean(r["sim_wait_p50_s"] for r in traced),
        "sched.sim_wait_p95_s": mean(r["sim_wait_p95_s"] for r in traced),
        "trace.replay_s": traced_s / len(traced),
        # Over the slices whose untraced replay succeeded too.
        "trace.overhead_ratio":
            sum(run.traced[s]["traced_s"] for s in paired) /
            sum(run.untraced[s]["replay_s"] for s in paired)
            if paired else 0.0,
    }
    return {name: derived[name] if name in derived
            else mean(r[name] for r in traced) for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json for --workload from this "
                             "(default-seed, untraced) run")
    args = parser.parse_args()

    if not build():
        return 1
    spec = json.loads(SPEC.read_text())
    table = workloads()
    if args.workload not in table:
        log(f"replaybench: unknown workload {args.workload!r}; "
            f"known: {', '.join(table)}")
        return 2
    n_slices, n_traced = table[args.workload]
    first = SUB_SEED_STRIDE * args.seed
    all_recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    recorded = {}
    if args.seed == DEFAULT_SEED and not args.record_digests:
        if args.workload not in all_recorded:
            log(f"replaybench: no recorded digests for {args.workload}")
            return 1
        recorded = all_recorded[args.workload]
    run = Run(args.workload, recorded)

    start = time.monotonic()
    if args.trace:
        # Per-layer counts must repeat exactly, so the traced set is fixed:
        # the first slices, each replayed untraced and then traced.
        SPANS.mkdir(parents=True, exist_ok=True)
        for i in range(n_traced):
            run.add("untraced", first + i, "--setup-reps", "1")
            run.add("traced", first + i, "--spans",
                    str(SPANS / f"{args.workload}-{i}.json"))
    else:
        # The first n_slices always run; more run while the next one still
        # fits in --seconds, so host time averages over the whole budget.
        budget = min(args.seconds, RUN_LIMIT_S)
        done = 0
        while True:
            run.add("untraced", first + done, "--setup-reps", str(SETUP_REPS))
            done += 1
            per_slice = (time.monotonic() - start) / done
            if done >= n_slices and per_slice * (done + 1) > budget:
                break
        # The gate's traced pass, after the timed replays.
        run.add("traced", first)

    if args.record_digests:
        if args.seed != DEFAULT_SEED or args.trace or run.failed:
            log("replaybench: record digests from a clean --trace 0 run of "
                "the default seed")
            return 1
        all_recorded[args.workload] = {
            str(s): r["digest"] for s, r in sorted(run.untraced.items())}
        DIGESTS.write_text(json.dumps(all_recorded, indent=2, sort_keys=True)
                           + "\n")

    if not run.untraced or (args.trace and not run.traced):
        log("replaybench: no replay succeeded")
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(run, [m["name"] for m in wanted]) if args.trace \
        else end_to_end(run, n_slices)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
