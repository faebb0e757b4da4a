"""classfield benchmark runner.

    python3 perfbench/run.py --workload {groups,minpoly,lfunc} [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Every job runs in its own fresh interpreter, one at a time
(a closed loop with one client), because a CLI user pays for a new process on
every command.  Every job's output is checked by `workloads.check`.

Every time is scaled to the speed of a reference machine: a timer inside each
job process times `reference.work()` every 25 ms, and the job's times, less
those samples, are multiplied by `reference.REFERENCE_S` over their mean, so
that the drift of a shared host's speed does not show as a change of the
program.

--trace 0 runs the workload's job list once, then keeps cycling through it one
job at a time while that job's last duration still fits in `--seconds`, and
reports the end-to-end metrics:

  wall_s       sum over the jobs of the median scaled job time (import
               excluded)
  setup_s      median scaled time from spawning an interpreter until
               classfield.cli is imported, over all spawns of the run (at
               least 21)
  peak_rss_mb  largest peak RSS of any job process

--trace 1 makes one untraced and one traced pass and reports the per-layer
metrics of `layers.LAYER_METRICS`, including `trace_overhead_s` (traced minus
untraced job time) and the untraced per-command times `cmd.<command>_s`, both
scaled; the layers' own times are unscaled seconds inside the traced jobs.

The last stdout line is the result object; the line before it holds the
details: machine facts, inputs, per-job outcomes, per-command times, the
unscaled `wall_raw_s` and the median scale factor `speed_scale`.
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
from collections import defaultdict
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

JOB_SCRIPT = os.path.join(HERE, "job.py")
JOB_TIMEOUT_S = 100
MIN_SETUP_SAMPLES = 21


def machine_facts() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import mpmath

    try:
        sympy = version("sympy")
    except PackageNotFoundError:
        sympy = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "machine": platform.machine(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "sympy": sympy,
    }


def spawn(spec: dict) -> dict:
    """Run job.py on `spec`; `ran` says whether it reported back."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    env.pop("CLASSFIELD_LOG", None)
    # an installed package imports from bytecode; the untimed probe writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, JOB_SCRIPT, json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ran": False, "detail": f"timed out after {JOB_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        return {"ran": False, "detail": err[-1] if err else f"exit code {proc.returncode}"}
    report = json.loads(lines[-1])
    report["ran"] = True
    report["setup_s"] = report["t_import"] - t_spawn - report["setup_gauge_s"]
    return report


def execute(job: dict, trace: bool) -> dict:
    rep = spawn({**job, "trace": trace})
    rec = {"job": workloads.describe(job), "command": job["command"], "ok": False, "extra": {}}
    if "scale" in rep:
        rec["scale"] = rep["scale"]
        rec["setup_s"] = rep["setup_s"] * rep["scale"]
    if "job_s" in rep:
        rec["raw_job_s"] = rep["job_s"]
        rec["job_s"] = rep["job_s"] * rep["scale"]
    if "trace" in rep:
        rec["trace"] = rep["trace"]
    if "maxrss_kb" in rep:
        rec["rss_mb"] = rep["maxrss_kb"] / 1024
    if not rep["ran"]:
        rec["detail"] = rep["detail"]
    elif rep["rc"] != 0:
        rec["detail"] = f"exit code {rep['rc']}"
    else:
        rec["ok"], rec["detail"], rec["extra"] = workloads.check(job, rep["output"])
    return rec


def job_times(records: List[dict], key: str = "job_s") -> Dict[Tuple[str, str], float]:
    """Median job time per (command, job) over its runs."""
    samples = defaultdict(list)
    for r in records:
        if key in r:
            samples[(r["command"], r["job"])].append(r[key])
    return {k: statistics.median(v) for k, v in samples.items()}


def per_command(times: Dict[Tuple[str, str], float]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for (command, _), t in times.items():
        out[command] += t
    return dict(out)


def measure(jobs: List[dict], seconds: float, trace: bool) -> Tuple[Dict[str, float], List[dict], dict]:
    """(metrics, job records, details) of one run of `jobs`."""
    warm = spawn({"command": "probe"})  # fills bytecode caches; not timed
    if not warm["ran"]:
        raise RuntimeError(f"cannot start a job: {warm['detail']}")
    records: List[dict] = []
    took = [0.0] * len(jobs)  # the last duration of each job, spawn included
    t_begin = time.monotonic()
    n = 0
    # one full pass, then (untraced) one job at a time while it still fits
    while n < len(jobs) or not trace and time.monotonic() - t_begin + took[n % len(jobs)] <= seconds:
        t_job = time.monotonic()
        records.append(execute(jobs[n % len(jobs)], False))
        took[n % len(jobs)] = time.monotonic() - t_job
        n += 1
    untraced = job_times(records)
    commands = per_command(untraced)
    scales = [r["scale"] for r in records if "scale" in r]
    details = {
        "passes": round(n / len(jobs), 2),
        "per_command_s": commands,
        "per_job_s": {job: t for (_, job), t in untraced.items()},
        "wall_raw_s": sum(job_times(records, "raw_job_s").values()),
        "speed_scale": statistics.median(scales) if scales else None,
    }
    if not trace:
        setups = [r["setup_s"] for r in records if "setup_s" in r]
        while len(setups) < MIN_SETUP_SAMPLES:
            probe = spawn({"command": "probe"})
            if not probe["ran"]:
                raise RuntimeError(f"cannot start a job: {probe['detail']}")
            setups.append(probe["setup_s"] * probe["scale"])
        metrics = {
            "wall_s": sum(untraced.values()),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r.get("rss_mb", 0.0) for r in records),
        }
        return metrics, records, details
    traced = [execute(job, True) for job in jobs]
    merged = layers.merge([r["trace"] for r in traced if r.get("trace")])
    metrics = layers.layer_metrics(merged)
    metrics["trace_overhead_s"] = sum(job_times(traced).values()) - sum(untraced.values())
    for command in workloads.COMMANDS:
        metrics[f"cmd.{command}_s"] = commands.get(command, 0.0)
    metrics["lfunctions.route_gap_max"] = max(
        (r["extra"]["route_gap"] for r in records + traced if "route_gap" in r["extra"]), default=0.0
    )
    missing = sorted({m for r in traced if r.get("trace") for m in r["trace"]["missing"]})
    if missing:
        print(f"warning: layer functions not found, reported as 0: {', '.join(missing)}", file=sys.stderr)
    return {name: metrics[name] for name, _, _ in layers.LAYER_METRICS}, records + traced, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.POOLS), required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "classfield", "cli.py")):
        print(f"error: no classfield sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    jobs = workloads.jobs(args.workload, args.seed)
    try:
        metrics, records, details = measure(jobs, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = sum(not r["ok"] for r in records)
    for r in records:
        timing = f"{r['job_s']:8.3f} s" if "job_s" in r else " " * 10
        traced = "  traced" if r.get("trace") else ""
        print(f"{'PASS' if r['ok'] else 'FAIL'}  {timing}  {r['job']}  ({r['detail']}){traced}")
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        machine=machine_facts(), inputs=[workloads.describe(j) for j in jobs],
        fail_frac=failed / len(records),
    )
    print(json.dumps(details, sort_keys=True))
    units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
    units.update(wall_s="s", setup_s="s", peak_rss_mb="MB")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
