"""Run one benchmark job in this fresh interpreter and report on stdout.

    python3 perfbench/job.py '<job spec as JSON>'

The spec names a `command`: a CLI command (`argv` goes to
`classfield.cli.main`), `zeta` (the two-route partial zeta cross-check through
the public `lfunctions` functions), or `probe` (import only).  With
`"trace": true` the layer functions are wrapped before the job starts.  A
`reference.Gauge` samples the machine's speed from before the import to the
end.  The last stdout line is one JSON object: the monotonic time at which
`classfield.cli` finished importing and the gauge's own time up to then, the
job time from then (after tracing is installed) until the output exists, less
the gauge's time, the gauge's scale factor, the exit code, the captured
output, the peak RSS and, when traced, the tracer's report.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

from reference import Gauge


def _zeta(spec: dict) -> int:
    from classfield import lfunctions, quadforms
    from classfield.numerics import BigComplex, bits_for_digits

    D, N = spec["disc"], spec["level"]
    ctx = quadforms.OrderContext.from_disc(D)
    G = quadforms.class_enumerate(ctx, N)
    s = BigComplex(spec["s"], 0, bits_for_digits(spec["digits"]))
    ideal = lfunctions.zeta_ideal_partial_all(ctx, N, s, spec["norm_bound"], spec["digits"])
    lattice = [lfunctions.zeta_lattice_partial(Q, ctx, N, s, spec["box"], spec["digits"]) for Q in G.reps]

    def row(z):
        return {"value": float(z.value.re), "tail": z.tail_bound, "terms": z.terms}

    print(json.dumps({"ideal": [row(z) for z in ideal.values()], "lattice": [row(z) for z in lattice]}))
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    gauge = Gauge()
    gauge.start()
    import classfield.cli

    t_import = time.monotonic()
    setup_gauge_s = gauge.spent
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(classfield.cli.__file__).startswith(src + os.sep):
        print(f"classfield was imported from {classfield.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = {"t_import": t_import, "setup_gauge_s": setup_gauge_s}
    if spec["command"] != "probe":
        tracer = None
        if spec.get("trace"):
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        buf = io.StringIO()
        spent = gauge.spent
        t_start = time.monotonic()
        with contextlib.redirect_stdout(buf):
            rc = _zeta(spec) if spec["command"] == "zeta" else classfield.cli.main(spec["argv"])
        out["job_s"] = time.monotonic() - t_start - (gauge.spent - spent)
        out["rc"] = rc
        out["output"] = buf.getvalue()
        out["trace"] = tracer.report() if tracer else None
    out["scale"] = gauge.stop()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
