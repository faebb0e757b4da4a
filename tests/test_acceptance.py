"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Tolerances and time limits are pinned here; nothing is deferred to later
calibration.  Criteria 1-5, 7 and 10 run the checks of `classfield.verify`,
the same code behind `classfield verify`, each under its own time limit.
Heavy artifacts (the level-3 class group of discriminant -200 and its
invariant logs) come from session fixtures.
"""

import random
import time

import mpmath
import pytest
from mpmath import mp

from classfield import refdata, verify
from classfield.invariants import FamilyId, g_ON_from_ideal, general_invariant
from classfield.lfunctions import (
    fourier_inversion_residual,
    lderiv0_all,
    zeta_ideal_partial_all,
    zeta_lattice_partial,
)
from classfield.numerics import BigComplex, bits_for_digits, working_bits
from classfield.orderideals import _class_bases, form_to_lattice, omega_ideal, ray_label
from classfield.quadforms import (
    OrderContext,
    class_enumerate,
    compose_level,
    dirichlet_compose,
    enumerate_reduced,
    gamma1_equivalent,
    make_coprime,
    reduce_form,
)
from ideal_reference import QuadElem, scaled

SEED = 1729


def report(num, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}" + (f": {detail}" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


def report_checks(num, checks, dt, limit=float("inf")):
    bad = [f"{name} ({detail})" if detail else name for name, ok, detail in checks if not ok]
    detail = f"{len(checks) - len(bad)}/{len(checks)} checks in {dt:.2f}s"
    report(num, not bad and dt < limit, detail + "".join(f"; FAIL {b}" for b in bad))


def test_criterion_01_reduced_forms():
    t0 = time.perf_counter()
    checks = [verify.check_reduced_forms()]
    report_checks(1, checks, time.perf_counter() - t0, 1.0)


def test_criterion_02_class_count_and_structure(ctx200):
    t0 = time.perf_counter()
    G = class_enumerate(ctx200, 3)
    checks = [verify.check_class_count(G), verify.check_invariant_factors(G)]
    report_checks(2, checks, time.perf_counter() - t0, 10.0)


def test_criterion_03_group_table(G200):
    t0 = time.perf_counter()
    checks = [verify.check_group_table(G200)]
    report_checks(3, checks, time.perf_counter() - t0, 30.0)


def test_criterion_04_minimal_polynomial(ctx200):
    t0 = time.perf_counter()
    checks = [verify.check_minimal_polynomial(ctx200, 3, 700)]
    dt = time.perf_counter() - t0
    # the frozen target itself: linear and constant coefficients
    assert refdata.D200_MINPOLY[1] == -19732842623587344380 and refdata.D200_MINPOLY[-1] == 1
    report_checks(4, checks, dt, 300.0)


@pytest.fixture(scope="module")
def small_battery():
    """One `verify small` run, shared by criteria 5 and 10, with its time."""
    t0 = time.perf_counter()
    checks = verify.battery_small()
    return checks, time.perf_counter() - t0


def test_criterion_05_oracle_equivalence(small_battery):
    checks, dt = small_battery
    oracle = [c for c in checks if c[0].startswith("oracle-match ")]
    assert len(oracle) == len(refdata.BATTERY_DISCS) * len(refdata.BATTERY_LEVELS)
    report_checks(5, oracle, dt, 300.0)


def test_criterion_06_classical_degeneration():
    t0 = time.perf_counter()
    bad = []
    for D in range(-3, -501, -1):
        if D % 4 not in (0, 1):
            continue
        ctx = OrderContext.from_disc(D)
        reduced = enumerate_reduced(D)
        idx = {R: i for i, R in enumerate(reduced)}
        classical = [
            [
                idx[reduce_form(dirichlet_compose(Qi, make_coprime(Qj, Qi.a)[1]))[0]]
                for Qj in reduced
            ]
            for Qi in reduced
        ]
        G = class_enumerate(ctx, 1)
        down = [idx[reduce_form(Q)[0]] for Q in G.reps]
        for i in range(G.order):
            for j in range(G.order):
                if down[G.table[i][j]] != classical[down[i]][down[j]]:
                    bad.append(D)
    dt = time.perf_counter() - t0
    report(6, not bad, f"all |D| <= 500 match classical composition, {dt:.1f}s")


def test_criterion_07_modular_identities():
    t0 = time.perf_counter()
    checks = verify.battery_modular(seed=SEED)
    report_checks(7, checks, time.perf_counter() - t0, 60.0)


def test_criterion_08_zeta_equivalence(ctx200, G200):
    t0 = time.perf_counter()
    prec = bits_for_digits(60)
    s = BigComplex(2, 0, prec)
    table = zeta_ideal_partial_all(ctx200, 3, s, 10**4)
    bases = _class_bases(ctx200, 3)
    worst = 0.0
    with mp.workprec(prec):
        for Q in G200.reps:
            lab = ray_label(ctx200, omega_ideal(ctx200, Q, 3), 3, bases)
            zi = table[lab]
            zl = zeta_lattice_partial(Q, ctx200, 3, s, 200)
            diff = float(abs(zi.value.to_mpc() - zl.value.to_mpc()))
            worst = max(worst, diff / (4 * (zi.tail_bound + zl.tail_bound)))
    dt = time.perf_counter() - t0
    report(8, worst < 1.0 and dt < 120.0, f"worst diff/bound {worst:.3f}, {dt:.1f}s")


def test_criterion_09_derivative_consistency(ctx200, G200, logs200):
    t0 = time.perf_counter()
    vals = lderiv0_all(G200, ctx200, 60, logs200)
    prec = bits_for_digits(90)
    residual = fourier_inversion_residual(G200, ctx200, vals, logs200, prec)
    with mp.workprec(prec):
        total = sum(logs200, mpmath.mpf(0))
        ok = residual < mpmath.mpf(10) ** -40 and abs(total) < mpmath.mpf(10) ** -40
    dt = time.perf_counter() - t0
    report(9, ok and dt < 60.0, f"inversion and sum-log-g identities to 1e-40, {dt:.1f}s")


def test_criterion_10_cartan_bookkeeping(small_battery):
    checks, dt = small_battery
    wuog = [c for c in checks if c[0].startswith("cartan-wuog ")]
    levels = [N for N in refdata.BATTERY_LEVELS if N >= 2]
    assert len(wuog) == len(refdata.BATTERY_DISCS) * len(levels)
    report_checks(10, wuog, dt)


def test_criterion_11_well_definedness_suite(gamma1_word):
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    digits = 40
    prec = working_bits(digits)
    tolerance = mpmath.mpf(10) ** (-(digits - 10))
    ok = True
    for D in refdata.BATTERY_DISCS:
        ctx = OrderContext.from_disc(D)
        for N in refdata.BATTERY_LEVELS:
            G = class_enumerate(ctx, N)
            # 100 compose_level lift alternates: inputs moved inside their classes
            for _ in range(100):
                Q = rng.choice(G.reps)
                Q2 = rng.choice(G.reps)
                base = compose_level(Q, Q2, ctx, N)
                alt = compose_level(
                    Q.apply(gamma1_word(rng, N)), Q2.apply(gamma1_word(rng, N)), ctx, N
                )
                if gamma1_equivalent(base, alt, N) is None:
                    ok = False
            # 100 randomized representative choices for the class invariant
            if D in (-3, -4):
                continue
            fam = FamilyId.siegel_power()
            with mp.workprec(prec):
                for _ in range(100):
                    Q = rng.choice(G.reps)
                    base_ideal = scaled(ctx, form_to_lattice(ctx, Q), Q.a ** (_phi(N) - 1))
                    lam = QuadElem.of(ctx, 1 + N * rng.randint(0, 2), N * rng.randint(0, 1))
                    alt_ideal = scaled(ctx, base_ideal, lam)
                    if N >= 2:
                        ref = general_invariant(fam, base_ideal, ctx, N, digits).to_mpc()
                        alt = general_invariant(fam, alt_ideal, ctx, N, digits).to_mpc()
                    else:
                        ref = g_ON_from_ideal(base_ideal, ctx, digits).to_mpc()
                        alt = g_ON_from_ideal(alt_ideal, ctx, digits).to_mpc()
                    if abs(ref - alt) / abs(ref) > tolerance:
                        ok = False
    dt = time.perf_counter() - t0
    report(11, ok, f"100 trials per instance, {dt:.1f}s")


def _phi(n):
    from math import gcd

    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1) if n > 1 else 1
