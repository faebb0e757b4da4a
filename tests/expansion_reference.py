"""The real expansion in mpmath, kept as the test reference for
`invariants._expand_real`, which multiplies the same factors as fixed-point
ints in a product tree.

Every product runs at the given precision, one factor at a time: n^2
multiplications of mpmath floats for n roots.
"""

from __future__ import annotations

from typing import List

import mpmath
from mpmath import mp


def expand_real(linear, quadratic, prec: int) -> List[mpmath.mpf]:
    """Coefficients (ascending) of prod (x - r) * prod (x^2 - s x + q)."""
    with mp.workprec(prec):
        c = [mpmath.mpf(1)]
        for r in linear:
            p = [0, *c, 0]
            c = [p[k] - r * p[k + 1] for k in range(len(c) + 1)]
        for s, q in quadratic:
            p = [0, 0, *c, 0, 0]
            c = [q * p[k + 2] - s * p[k + 1] + p[k] for k in range(len(c) + 2)]
    return c
