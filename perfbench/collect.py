"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workload groups --workload lfunc --seeds 1729,23,1-8 \
        [--seconds 40] [--trace 0] [--label NAME] [--out FILE]

For every workload and metric this prints the median, the quartiles of
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median, which
the benchmark's bounds are set against.  `--out` writes the summary, with the
machine facts and every run's values, as JSON (see BASELINE.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str):
    """'1729,23,1-8' -> [1729, 23, 1, 2, ..., 8]"""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def one_run(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="")
    ap.add_argument("--out")
    args = ap.parse_args()
    summary = {"label": args.label, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            details, result = one_run(workload, seed, args.seconds, args.trace)
            summary["machine"] = details["machine"]
            runs.append({"seed": seed, "inputs": details["inputs"], "passes": details["passes"],
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "per_command_s": details["per_command_s"],
                         "per_job_s": details["per_job_s"], "wall_raw_s": details["wall_raw_s"],
                         "speed_scale": details["speed_scale"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} passes={details['passes']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items() if not k.startswith("cmd.")),
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            metrics[name] = summarize(values) if len(values) > 1 else {"median": values[0]}
            if len(values) > 1:
                m = metrics[name]
                print(f"  {name:42s} median {m['median']:.4g}  q1 {m['q1']:.4g}  q3 {m['q3']:.4g}  "
                      f"spread {'-' if m['spread'] is None else format(m['spread'], '.3f')}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary["workloads"][workload] = {"fail_frac": failed / attempted, "metrics": metrics, "runs": runs}
        print(f"  fail_frac {failed}/{attempted}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
