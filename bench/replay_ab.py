#!/usr/bin/env python3
"""Alternating A/B comparison of two replay_bench builds on the same slices.

Runs `--pairs` pairs of runs, one by the parent's replay_bench and one by
the change's. A run replays the slices 1000 * seed + i, i < --slices (as
replaybench/run.py numbers them), each untraced in a fresh process, and
its value of each metric is what run.py reports: the mean replay_s,
the terminal jobs over the summed replay time (jobs_per_s), and the
median setup_s and peak_rss_mib, with run.py's SETUP_REPS set-up
timings per process. Within a pair the two builds take turns
slice by slice, and the side that goes first alternates from pair to
pair, so a drifting host load falls on both sides alike. Every slice must produce the same replay
digest on both sides: any mismatch (or a failed or incomplete replay)
makes the script exit 1, since a perf change may not move a replay
outcome.

For each run metric (replay_s, jobs_per_s, setup_s, peak_rss_mib) it
prints each side's median and quartiles over the runs, the number of
pairs the change wins (ties count for neither side), the median of the
per-pair change/parent ratios, and whether the claim rule holds: the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range. The last stdout line is one
JSON object with the same figures.

  python3 bench/replay_ab.py \\
      --parent ../parent/.bench_build/replaybench/replay_bench \\
      --change .bench_build/replaybench/replay_bench \\
      --workload steady_paper --seed 1 --pairs 10 --slices 40

Build each binary from its own checkout, e.g. with one
`python3 replaybench/run.py --workload steady_paper --seconds 1` per
checkout. Forty slices per run keep the parent's spread near 10 % on
steady_paper; ten are too noisy to separate a 15 % gain. This is a
measuring tool, not a test: its verdict depends on the host's load, so
nothing in the test suite runs it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in replaybench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "replaybench"))
from run import PROCESS_TIMEOUT_S, SETUP_REPS, SUB_SEED_STRIDE  # noqa: E402

# The run metrics compared, and whether lower is better.
METRICS = {
    "replay_s": True,
    "setup_s": True,
    "peak_rss_mib": True,
    "jobs_per_s": False,
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def replay(binary, workload, sub_seed):
    """One untraced replay in a fresh process: its JSON record."""
    cmd = [binary, "untraced", "--workload", workload, "--seed",
           str(sub_seed), "--setup-reps", str(SETUP_REPS)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{binary} sub-seed {sub_seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not record["completed"]:
        raise RuntimeError(f"{binary} sub-seed {sub_seed}: replay did not "
                           "complete")
    return record


def run_value(records, metric):
    """A run's value of `metric`, as replaybench/run.py computes it."""
    if metric == "jobs_per_s":
        return (sum(r["terminal"] for r in records) /
                sum(r["replay_s"] for r in records))
    if metric == "replay_s":
        return statistics.mean(r[metric] for r in records)
    return statistics.median(r[metric] for r in records)


def quartiles(values):
    """(q1, median, q3) by the inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the parent commit's replay_bench binary")
    parser.add_argument("--change", required=True,
                        help="the change's replay_bench binary")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--slices", type=int, default=40,
                        help="slices replayed per run")
    args = parser.parse_args()
    if args.pairs < 1 or args.slices < 1:
        parser.error("--pairs and --slices must be >= 1")

    runs = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            records = {"parent": [], "change": []}
            for k in range(args.slices):
                sub_seed = SUB_SEED_STRIDE * args.seed + k
                for side, binary in order:
                    records[side].append(replay(binary, args.workload,
                                                sub_seed))
                a, b = records["parent"][-1], records["change"][-1]
                if a["digest"] != b["digest"]:
                    log(f"replay_ab: sub-seed {sub_seed}: parent digest "
                        f"{a['digest']} != change digest {b['digest']}")
                    return 1
            for side in runs:
                runs[side].append({m: run_value(records[side], m)
                                   for m in METRICS})
            x = runs["parent"][-1]["replay_s"]
            y = runs["change"][-1]["replay_s"]
            log(f"pair {i + 1:3d} ({order[0][0]} first): replay_s parent "
                f"{x:.6g} change {y:.6g} ratio {y / x:.3f}")
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        log(f"replay_ab: {error}")
        return 1

    summary = {"workload": args.workload, "seed": args.seed,
               "pairs": args.pairs, "slices": args.slices, "metrics": {}}
    for metric, lower_is_better in METRICS.items():
        parent = [run[metric] for run in runs["parent"]]
        change = [run[metric] for run in runs["change"]]
        wins = sum((y < x) == lower_is_better
                   for x, y in zip(parent, change) if x != y)
        losses = sum(x != y for x, y in zip(parent, change)) - wins
        p = quartiles(parent)
        c = quartiles(change)
        gap = p[1] - c[1] if lower_is_better else c[1] - p[1]
        ratio = statistics.median(y / x for x, y in zip(parent, change))
        holds = wins * 10 >= 9 * args.pairs and gap > p[2] - p[0]
        summary["metrics"][metric] = {
            "parent": {"q1": p[0], "median": p[1], "q3": p[2]},
            "change": {"q1": c[0], "median": c[1], "q3": c[2]},
            "change_wins": wins,
            "parent_wins": losses,
            "median_ratio": ratio,
            "parent_iqr": p[2] - p[0],
            "claim_holds": holds,
        }
        log(f"{metric}: parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}], change "
            f"{c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]; change better in {wins}, "
            f"worse in {losses} of {args.pairs}; median ratio {ratio:.3f}; "
            f"claim {'holds' if holds else 'does not hold'}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
