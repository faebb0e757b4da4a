"""Regenerate minpolys.json, the frozen minimal polynomials that the `minpoly`
workload compares its output against.

Each polynomial is computed once at twice the CLI's default precision (1400
instead of 700 digits), so a result at the default precision is checked
against an independent, higher-precision recognition.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/freeze_minpolys.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import MINPOLY_DIGITS, minpoly_inputs  # noqa: E402


def main() -> int:
    from classfield.invariants import minimal_polynomial
    from classfield.numerics import PrecisionPolicy
    from classfield.quadforms import OrderContext

    frozen = {}
    for D, N in minpoly_inputs():
        res = minimal_polynomial(OrderContext.from_disc(D), N, PrecisionPolicy(2 * MINPOLY_DIGITS))
        if not res.ok:
            print(f"({D}, {N}): recognition failed at {2 * MINPOLY_DIGITS} digits", file=sys.stderr)
            return 1
        frozen[f"{D},{N}"] = [str(c) for c in res.coefficients]
        print(f"({D}, {N}): degree {res.degree}", flush=True)
    with open(os.path.join(HERE, "minpolys.json"), "w") as fh:
        json.dump({"digits": 2 * MINPOLY_DIGITS, "polynomials": frozen}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
