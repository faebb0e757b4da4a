"""Tiny-input smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on tiny inputs, untraced and traced, and asserts that
every job passes its check and that exactly the metrics named in
BENCHMARK.json are emitted, each a finite number.  Takes under a minute.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


WHERE = ["--disc", "-56", "--level", "3", "--format", "json"]
TINY = {
    "groups": [workloads.cli_job("classgroup", -56, 3, ["classgroup", *WHERE, "--check-oracle"])],
    "minpoly": [
        workloads.cli_job("verify_paper", -200, 3, ["verify", "paper", "--format", "json"]),
        # (-56, 4) has a frozen polynomial in minpolys.json
        workloads.cli_job("minpoly", -56, 4, ["minpoly", "--disc", "-56", "--level", "4", "--format", "json"]),
    ],
    "lfunc": [
        {"command": "zeta", "disc": -200, "level": 3, "s": 2, "norm_bound": 500, "box": 10, "digits": 30},
        workloads.cli_job("lderiv", -56, 3, ["lderiv", *WHERE, "--digits", "60"]),
    ],
}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert sorted(TINY) == sorted(w["name"] for w in bench["workloads"])
    for workload in TINY:
        default = workloads.draw(workload, workloads.DEFAULT_SEED)
        held_out = workloads.draw(workload, workloads.HELD_OUT_SEED)
        assert all(a != b for a, b in zip(default, held_out)), f"{workload}: held-out seed repeats an input"
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = [m["name"] for m in bench[kind]]
        for workload, jobs in TINY.items():
            metrics, records, _ = run.measure(jobs, 0, bool(trace))
            bad = [f"{r['job']}: {r['detail']}" for r in records if not r["ok"]]
            assert not bad, f"{workload}: failed jobs {bad}"
            assert sorted(metrics) == sorted(want), f"{workload} --trace {trace}: {sorted(set(metrics) ^ set(want))}"
            assert all(math.isfinite(v) for v in metrics.values()), f"{workload}: non-finite metric"
            print(f"ok  {workload:8s} --trace {trace}: {len(metrics)} metrics, {len(records)} jobs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
