#!/usr/bin/env python3
"""End-to-end replay curve: wall time and peak RSS of `experiment_cli --jobs N`.

Runs one fresh experiment_cli process per (N, run), times it with the host
wall clock and reads the child's peak RSS from os.wait4, then merges one row
per N into a JSON file. Rows are keyed by (label, jobs): re-running a label
replaces its rows and keeps every other label's, so one file can hold the
rows of two builds measured on the same machine.

  python3 bench/e2e_curve.py --cli build/examples/experiment_cli \\
      --label change --jobs 663,3000,10000 --runs 3
  python3 bench/e2e_curve.py --cli build/examples/experiment_cli \\
      --label change --jobs 30000 --runs 1

Like experiment_cli itself, exits 1 when a replay did not complete (or a
run failed); the rows are written either way. With the default options a
30k-job slice overloads the paper cluster and stops at the 24 h virtual
deadline, so its row reads "completed": false on every build.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time


def run_once(argv):
    """One process: (wall seconds, peak RSS MiB, exit code, stdout)."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout


def completed(stdout):
    """The CLI's summary table reports `completed | yes` for a full replay."""
    for line in stdout.decode().splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 2 and cells[0] == "completed":
            return cells[1] == "yes"
    return False


def measure(cli, label, jobs, runs):
    walls, rss, digests, ok = [], [], set(), True
    for _ in range(runs):
        wall, peak, code, stdout = run_once([cli, "--jobs", str(jobs)])
        walls.append(round(wall, 4))
        rss.append(round(peak, 1))
        digests.add(hashlib.sha256(stdout).hexdigest())
        ok = ok and code == 0 and completed(stdout)
    row = {
        "label": label,
        "jobs": jobs,
        "runs": runs,
        "wall_s": walls,
        "wall_s_median": round(statistics.median(walls), 4),
        "wall_s_min": min(walls),
        "wall_s_max": max(walls),
        "peak_rss_mib": max(rss),
        "completed": ok,
        # One digest when every run printed the same bytes; compare it
        # across labels to check two builds produce identical output.
        "stdout_sha256": sorted(digests),
    }
    print(f"{label:>10} N={jobs:<6} median {row['wall_s_median']:9.3f} s  "
          f"[{row['wall_s_min']:.3f}, {row['wall_s_max']:.3f}]  "
          f"rss {row['peak_rss_mib']:6.1f} MiB  completed={ok}", flush=True)
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", required=True, help="experiment_cli binary")
    parser.add_argument("--label", required=True,
                        help="row label, e.g. the build or commit measured")
    parser.add_argument("--jobs", default="663,3000,10000,30000",
                        help="comma-separated slice sizes N")
    parser.add_argument("--runs", type=int, default=3,
                        help="processes per N (spread = min/max of these)")
    parser.add_argument("--out", default="BENCH_e2e.json")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    jobs = [int(n) for n in args.jobs.split(",")]

    rows = [measure(args.cli, args.label, n, args.runs) for n in jobs]
    # Linux folds the spawning process's own peak RSS into a child's
    # ru_maxrss at exec, so no row can read below this interpreter's.
    _, rss_floor, _, _ = run_once(["true"])

    old = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            old = json.load(f)
    replaced = {(r["label"], r["jobs"]) for r in rows}
    kept = [r for r in old.get("rows", [])
            if (r["label"], r["jobs"]) not in replaced]
    doc = {
        **old,
        "bench": "e2e_curve",
        "command": "experiment_cli --jobs N (defaults otherwise)",
        "metrics": {"wall_s": "host wall clock per process, s",
                    "peak_rss_mib": "max wait4 ru_maxrss over runs, MiB; "
                                    "never below host.rss_floor_mib"},
        "host": {"system": platform.system(), "machine": platform.machine(),
                 "cpus": os.cpu_count(),
                 "rss_floor_mib": round(rss_floor, 1)},
        "rows": sorted(kept + rows, key=lambda r: (r["jobs"], r["label"])),
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")

    # Re-parse what was written: the file must load and every new row must
    # have completed its replay.
    with open(args.out) as f:
        written = json.load(f)
    mine = [r for r in written["rows"] if (r["label"], r["jobs"]) in replaced]
    if len(mine) != len(rows) or not all(r["completed"] for r in mine):
        print("e2e_curve: a replay failed or did not complete", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
