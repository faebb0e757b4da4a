"""The benchmark's workloads: seeded input pools, the job list of a run, and
the correctness check applied to every job's output.

A workload draws one (D, N) from each stratum of its pool.  Members of a
stratum were measured at the seed commit to cost about the same, so runs with
different seeds measure comparable amounts of work while still exercising
different inputs.  `DEFAULT_SEED` is the seed for day-to-day runs;
`HELD_OUT_SEED` draws a different member from every stratum and is kept for
rechecking a claimed gain on inputs the change was not tuned on.

The checks use only the standard library and the frozen `minpolys.json`; they
import nothing from `classfield`, so a defect in the timed code cannot also
hide itself from its check.
"""

from __future__ import annotations

import json
import os
import random
from decimal import Decimal, localcontext
from math import gcd, isqrt, prod
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SEED = 1729
HELD_OUT_SEED = 2146

MINPOLY_DIGITS = 700  # the `minpoly` CLI default
LDERIV_DIGITS = 60
PAPER_DISC, PAPER_LEVEL = -200, 3  # the `verify paper` worked example
# two-route partial zeta cross-check at s = ZETA_S
ZETA_DISC, ZETA_LEVEL, ZETA_S = -200, 3, 2
ZETA_NORM_BOUND = 10**4
ZETA_BOX = 80
ZETA_DIGITS = 30  # the library default of both routes

Input = Tuple[int, int]

# Strata, each a list of (D, N) of similar cost.  The pools mix fundamental and
# non-fundamental D, prime and composite N, cyclic and multi-factor groups.
POOLS: Dict[str, List[List[Input]]] = {
    # classgroup --check-oracle on 60-80 classes: quadforms identity lookups
    # dominate, orderideals comes second, modfun does no work.  Members of a
    # stratum make the same number of Python calls within about 2 %, which tracks
    # their time far closer than timing can on a shared host.
    "groups": [
        [(-200, 5), (-103, 5)],
        [(-180, 8), (-84, 8), (-120, 8), (-160, 8)],
        [(-119, 5), (-95, 5)],
    ],
    # minpoly at 700 digits on degree 16-48: modfun Siegel products,
    # expansion and recognition dominate
    "minpoly": [
        [(-56, 4), (-120, 4), (-88, 5), (-84, 4)],
        [(-104, 5), (-116, 5)],
    ],
    # lderiv at 60 digits on 48-64 classes.  Every N splits into two prime
    # ideals, so sum_C ln|g(C)| = 0 is a checkable identity.  The zeta
    # cross-check keeps one input: its cost follows the number of ideals below
    # the norm bound, which differs by up to 2x between 12-class groups.
    "lfunc": [
        [(-116, 5), (-104, 5)],
        [(-111, 5), (-164, 5)],
    ],
}

COMMANDS = ("classgroup", "minpoly", "verify_paper", "lderiv", "zeta")


def draw(workload: str, seed: int) -> List[Input]:
    rng = random.Random(f"{workload}:{seed}")
    return [stratum[rng.randrange(len(stratum))] for stratum in POOLS[workload]]


def minpoly_inputs() -> List[Input]:
    return [x for stratum in POOLS["minpoly"] for x in stratum]


def cli_job(command: str, D: int, N: int, argv: List[str]) -> dict:
    return {"command": command, "disc": D, "level": N, "argv": argv}


def jobs(workload: str, seed: int) -> List[dict]:
    """The job list of one pass; no (command, D, N) repeats."""
    out = []
    if workload == "minpoly":
        out.append(cli_job("verify_paper", PAPER_DISC, PAPER_LEVEL, ["verify", "paper", "--format", "json"]))
    if workload == "lfunc":
        out.append({
            "command": "zeta", "disc": ZETA_DISC, "level": ZETA_LEVEL, "s": ZETA_S,
            "norm_bound": ZETA_NORM_BOUND, "box": ZETA_BOX, "digits": ZETA_DIGITS,
        })
    for D, N in draw(workload, seed):
        where = ["--disc", str(D), "--level", str(N)]
        if workload == "groups":
            out.append(cli_job("classgroup", D, N, ["classgroup", *where, "--check-oracle", "--format", "json"]))
        elif workload == "minpoly":
            out.append(cli_job("minpoly", D, N, ["minpoly", *where, "--format", "json"]))
        else:
            argv = ["lderiv", *where, "--digits", str(LDERIV_DIGITS), "--format", "json"]
            out.append(cli_job("lderiv", D, N, argv))
    return out


# ---------------------------------------------------------------------------
# independent arithmetic for the checks


def class_number(D: int) -> int:
    """Number of reduced primitive forms of discriminant D."""
    h = 0
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (a == c and b < 0) or gcd(gcd(a, b), c) != 1:
                continue
            h += 1
    return h


def _order_basis(D: int) -> Tuple[int, int]:
    # O = Z + Z*tau with tau^2 + b0*tau + c0 = 0
    return (0, -D // 4) if D % 4 == 0 else (1, (1 - D) // 4)


def class_count(D: int, N: int) -> int:
    """|C_N(O)| = h * |(O/NO)*| / |image of the units of O|."""
    b0, c0 = _order_basis(D)
    units = sum(1 for x in range(N) for y in range(N) if gcd(x * x - b0 * x * y + c0 * y * y, N) == 1)
    coords = {-3: [(1, 0), (0, 1), (-1, -1)], -4: [(1, 0), (0, 1)]}.get(D, [(1, 0)])
    image = {(s * x % N, s * y % N) for x, y in coords for s in (1, -1)}
    return class_number(D) * units // len(image)


def _conductor(D: int) -> int:
    # the largest f with D/f^2 a discriminant; D/f^2 is then fundamental
    return max(f for f in range(1, isqrt(-D) + 1) if D % (f * f) == 0 and (D // (f * f)) % 4 in (0, 1))


def _prime_factors(n: int) -> List[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _splits(D: int, p: int) -> bool:
    if p == 2:
        return D % 8 == 1
    return pow(D % p, (p - 1) // 2, p) == 1


def sum_log_g_vanishes(D: int, N: int) -> bool:
    """Whether sum_C ln|g(C)| = -6N*gamma*L'(0, trivial) must be 0.

    The trivial-character L-function drops one Euler factor per prime ideal
    above N, each vanishing at s = 0; with two or more the derivative is 0.
    Only decided for N prime to the conductor.
    """
    if gcd(N, _conductor(D)) != 1:
        return False
    return sum(2 if _splits(D, p) else 1 for p in _prime_factors(N)) >= 2


# ---------------------------------------------------------------------------
# checks; each returns (ok, detail) or (ok, detail, extra metrics)


def frozen_minpoly(D: int, N: int) -> List[int]:
    with open(os.path.join(HERE, "minpolys.json")) as fh:
        return [int(c) for c in json.load(fh)["polynomials"][f"{D},{N}"]]


def _check_classgroup(job: dict, p: dict) -> Tuple[bool, str]:
    D, N = job["disc"], job["level"]
    n = len(p["reps"])
    want = class_count(D, N)
    if n != want:
        return False, f"{n} classes, expected {want}"
    if any(b * b - 4 * a * c != D or gcd(a, N) != 1 for a, b, c in ((int(x) for x in r) for r in p["reps"])):
        return False, "representative outside Q(D, N)"
    T = p["table"]
    full = list(range(n))
    if T[0] != full or any(sorted(row) != full for row in T):
        return False, "table is not a group table with identity 0"
    if any(T[i][j] != T[j][i] for i in range(n) for j in range(i)):
        return False, "table is not commutative"
    if prod(int(d) for d in p["invariant_factors"]) != n:
        return False, "invariant factors do not multiply to the order"
    phi, O = p["oracle_dictionary"], p["oracle"]["table"]
    if p["oracle_isomorphic"] is not True or sorted(phi) != full:
        return False, "oracle dictionary is not a bijection"
    if any(phi[T[i][j]] != O[phi[i]][phi[j]] for i in range(n) for j in range(n)):
        return False, "form and ideal tables disagree"
    return True, f"{n} classes"


def _check_minpoly(job: dict, p: dict) -> Tuple[bool, str]:
    want = frozen_minpoly(job["disc"], job["level"])
    got = [int(c) for c in p["coefficients"]] if p["ok"] else None
    if got != want:
        return False, "coefficients differ from the frozen polynomial"
    if len(want) - 1 != class_count(job["disc"], job["level"]):
        return False, "degree differs from the class count"
    return True, f"degree {len(want) - 1}"


def _check_verify_paper(job: dict, p: dict) -> Tuple[bool, str]:
    names = [c["name"] for c in p["checks"]]
    ok = p["passed"] == p["total"] == 5 and all(c["ok"] for c in p["checks"])
    return ok, f"{p['passed']}/{p['total']} checks ({', '.join(names)})"


def _check_lderiv(job: dict, p: dict) -> Tuple[bool, str]:
    D, N = job["disc"], job["level"]
    n = class_count(D, N)
    if len(p["per_class_log_g"]) != n or len(p["characters"]) != n:
        return False, f"expected {n} classes and characters"
    if not float(p["inversion_residual"]) < 1e-40:
        return False, f"inversion residual {p['inversion_residual']}"
    with localcontext() as dc:
        dc.prec = 2 * LDERIV_DIGITS
        total = sum(Decimal(x) for x in p["per_class_log_g"])
    if sum_log_g_vanishes(D, N) and not abs(total) < Decimal("1e-40"):
        return False, f"sum of ln|g| is {total:.3e}, expected 0"
    return True, f"{n} characters, sum ln|g| {float(total):.1e}"


def _check_zeta(job: dict, p: dict) -> Tuple[bool, str, Dict[str, float]]:
    n = class_count(job["disc"], job["level"])
    ideal, lattice = p["ideal"], p["lattice"]
    if len(ideal) != n or len(lattice) != n:
        return False, f"expected {n} classes on both routes", {}
    # at real s both routes give real values, and sorting pairs each class
    # with itself whenever the route gaps are below the gaps between classes
    gap = max(
        abs(zi["value"] - zl["value"]) / (4 * (zi["tail"] + zl["tail"]))
        for zi, zl in zip(sorted(ideal, key=lambda z: z["value"]), sorted(lattice, key=lambda z: z["value"]))
    )
    return gap < 1, f"worst gap/bound {gap:.3f}", {"route_gap": gap}


_CHECKS = {
    "classgroup": _check_classgroup,
    "minpoly": _check_minpoly,
    "verify_paper": _check_verify_paper,
    "lderiv": _check_lderiv,
    "zeta": _check_zeta,
}


def check(job: dict, output: str) -> Tuple[bool, str, Dict[str, float]]:
    """Check one job's output independently of the code that produced it."""
    try:
        payload = json.loads(output)
        res = _CHECKS[job["command"]](job, payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return False, f"unreadable output: {exc!r}", {}
    return res if len(res) == 3 else (*res, {})


def describe(job: dict) -> str:
    return f"{job['command']} D={job['disc']} N={job['level']}"
