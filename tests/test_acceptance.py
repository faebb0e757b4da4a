"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Tolerances and time limits are pinned here; nothing is deferred to later
calibration.  Heavy artifacts (the level-3 class group of discriminant -200
and its invariant logs) come from session fixtures.
"""

import random
import time
from fractions import Fraction

import mpmath
from mpmath import mp

from classfield import cartan, modfun, refdata
from classfield.invariants import (
    FamilyId,
    class_invariant,
    g_ON_from_ideal,
    general_invariant,
    minimal_polynomial,
)
from classfield.lfunctions import (
    Character,
    gamma_ON,
    lderiv0,
    zeta_ideal_partial_all,
    zeta_lattice_partial,
)
from classfield.numerics import BigComplex, PrecisionPolicy, bits_for_digits
from classfield.orderideals import (
    QuadElem,
    _class_bases,
    _integral_ray_model,
    form_ideal_dictionary,
    form_to_lattice,
    fractional_omega_lattice,
    oracle_class_group,
    ray_label,
    tables_isomorphic,
)
from classfield.quadforms import (
    Form,
    OrderContext,
    class_enumerate,
    class_number,
    compose_level,
    dirichlet_compose,
    enumerate_reduced,
    gamma1_equivalent,
    make_coprime,
    reduce_form,
)

SEED = 1729


def report(num, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}" + (f": {detail}" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_reduced_forms():
    t0 = time.perf_counter()
    got = [tuple(Q) for Q in enumerate_reduced(-200)]
    dt = time.perf_counter() - t0
    report(1, got == refdata.D200_REDUCED and dt < 1.0, f"6 reduced forms in {dt:.3f}s")


def test_criterion_02_class_count_and_structure(ctx200):
    t0 = time.perf_counter()
    G = class_enumerate(ctx200, 3)
    dt = time.perf_counter() - t0
    ok = G.order == 12 and G.invariant_factors == [2, 6] and dt < 10.0
    report(2, ok, f"12 classes, Z2 x Z6, {dt:.2f}s")


def test_criterion_03_group_table(ctx200, G200):
    t0 = time.perf_counter()
    perm = [G200.index_of(Form(*t)) for t in refdata.D200_CLASS_REPS]
    bad = sum(
        1
        for i in range(12)
        for j in range(12)
        if G200.table[perm[i]][perm[j]] != perm[refdata.D200_TABLE[i][j] - 1]
    )
    dt = time.perf_counter() - t0
    ok = len(set(perm)) == 12 and bad == 0 and dt < 30.0
    report(3, ok, f"{144 - bad}/144 cells in {dt:.2f}s")


def test_criterion_04_minimal_polynomial(ctx200, G200):
    t0 = time.perf_counter()
    res = minimal_polynomial(ctx200, 3, PrecisionPolicy(700), class_group=G200)
    dt = time.perf_counter() - t0
    ok = (
        res.ok
        and res.coefficients == refdata.D200_MINPOLY
        and res.coefficients[1] == -19732842623587344380
        and res.coefficients[-1] == 1
        and max(res.residuals) < 1e-20
        and dt < 300.0
    )
    report(4, ok, f"all 13 coefficients, max residual {max(res.residuals):.1e}, {dt:.1f}s")


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    bad = []
    for D in refdata.BATTERY_DISCS:
        ctx = OrderContext.from_disc(D)
        for N in refdata.BATTERY_LEVELS:
            oracle = oracle_class_group(ctx, N)
            G = class_enumerate(ctx, N)
            if not tables_isomorphic(oracle, G, form_ideal_dictionary(oracle, G)):
                bad.append((D, N))
    dt = time.perf_counter() - t0
    report(5, not bad and dt < 300.0, f"24 instances isomorphic in {dt:.1f}s")


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


def test_criterion_07_modular_identities(ctx200):
    t0 = time.perf_counter()
    digits = 60
    prec = bits_for_digits(digits + modfun.GUARD_DIGITS)
    tolerance = mpmath.mpf(10) ** (-(digits - 10))
    rng = random.Random(SEED)
    tau0 = ctx200.tau(digits + modfun.GUARD_DIGITS)
    model = modfun.elliptic_model(ctx200, digits)
    worst = mpmath.mpf(0)
    with mp.workprec(prec):
        for _ in range(5):
            tau = BigComplex(
                Fraction(rng.randint(-40, 40), 100), Fraction(rng.randint(20, 200), 100), prec
            )
            # j vs the half-index Siegel relation
            x = modfun.siegel(modfun.FrickeIndex.of(0, Fraction(1, 2)), tau, digits).to_mpc() ** 12
            je = modfun.j_eisenstein(tau, digits).to_mpc()
            worst = max(worst, abs((x + 16) ** 3 / x - je) / abs(je))
        for k in range(5):
            v = modfun.FrickeIndex.of(Fraction(rng.randint(0, 2), 3), Fraction(rng.randint(1, 2), 3))
            X, Y = modfun.torsion_xy(ctx200, v, digits)
            # coordinate vs Fricke value
            f = modfun.fricke(v, tau0, digits)
            worst = max(worst, abs(X.to_mpc() + f.to_mpc() / (2**7 * 3**3)) / abs(X.to_mpc()))
            # Weierstrass relation residual
            res = Y.to_mpc() ** 2 - (
                4 * X.to_mpc() ** 3 - model.A.to_mpc() * X.to_mpc() - model.B.to_mpc()
            )
            worst = max(worst, abs(res) / abs(Y.to_mpc() ** 2))
            # conjugation rule
            lhs = modfun.fricke(v, tau0, digits).to_mpc().conjugate()
            rhs = modfun.fricke(v.act((1, ctx200.b0, 0, -1)), tau0, digits).to_mpc()
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        # Siegel ratio identity for five index pairs
        pairs = [
            (Fraction(1, 3), Fraction(0)),
            (Fraction(1, 3), Fraction(1, 3)),
            (Fraction(2, 3), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(2, 3), Fraction(2, 3)),
        ]
        u = modfun.FrickeIndex.of(0, Fraction(1, 3))
        _, Yu = modfun.torsion_xy(ctx200, u, digits)
        gu = modfun.siegel(u, tau0, digits).to_mpc()
        g2u = modfun.siegel(modfun.FrickeIndex.of(0, Fraction(2, 3)), tau0, digits).to_mpc()
        for (v1, v2) in pairs:
            v = modfun.FrickeIndex.of(v1, v2)
            _, Yv = modfun.torsion_xy(ctx200, v, digits)
            gv = modfun.siegel(v, tau0, digits).to_mpc()
            g2v = modfun.siegel(modfun.FrickeIndex.of(2 * v1, 2 * v2), tau0, digits).to_mpc()
            worst = max(worst, abs(Yv.to_mpc() / Yu.to_mpc() - g2v * gu**4 / (gv**4 * g2u)) / abs(Yv.to_mpc() / Yu.to_mpc()))
    dt = time.perf_counter() - t0
    report(7, worst < tolerance and dt < 60.0, f"worst relative {mpmath.nstr(worst, 3)}, {dt:.1f}s")


def test_criterion_08_zeta_equivalence(ctx200, G200):
    t0 = time.perf_counter()
    prec = bits_for_digits(60)
    s = BigComplex(2, 0, prec)
    table = zeta_ideal_partial_all(ctx200, 3, s, 10**4)
    bases = _class_bases(ctx200, 3)
    worst = 0.0
    with mp.workprec(prec):
        for Q in G200.reps:
            lab = ray_label(
                _integral_ray_model(fractional_omega_lattice(ctx200, Q), 3), 3, bases
            )
            zi = table[lab]
            zl = zeta_lattice_partial(Q, ctx200, 3, s, 200)
            diff = float(abs(zi.value.to_mpc() - zl.value.to_mpc()))
            worst = max(worst, diff / (4 * (zi.tail_bound + zl.tail_bound)))
    dt = time.perf_counter() - t0
    report(8, worst < 1.0 and dt < 120.0, f"worst diff/bound {worst:.3f}, {dt:.1f}s")


def test_criterion_09_derivative_consistency(ctx200, G200, logs200):
    t0 = time.perf_counter()
    N = 3
    gamma = gamma_ON(ctx200, N)
    chars = [Character.from_class_group(G200, k) for k in range(G200.order)]
    vals = [lderiv0(c, G200, ctx200, 60, logs=logs200) for c in chars]
    prec = bits_for_digits(90)
    ok = True
    with mp.workprec(prec):
        scale = mpmath.mpf(-gamma * 6 * N) / G200.order
        for i in range(G200.order):
            acc = mpmath.mpc(0)
            for k in range(G200.order):
                acc += mpmath.conj(chars[k].value(i, prec)) * vals[k].to_mpc()
            ok = ok and abs(scale * acc - logs200[i]) < mpmath.mpf(10) ** -40
        total = sum(logs200, mpmath.mpf(0))
        ok = ok and abs(total) < mpmath.mpf(10) ** -40
    dt = time.perf_counter() - t0
    report(9, ok and dt < 60.0, f"inversion and sum-log-g identities to 1e-40, {dt:.1f}s")


def test_criterion_10_cartan_bookkeeping():
    t0 = time.perf_counter()
    ok = True
    for D in refdata.BATTERY_DISCS:
        ctx = OrderContext.from_disc(D)
        h = class_number(D)
        for N in refdata.BATTERY_LEVELS:
            if N < 2:
                continue
            G = class_enumerate(ctx, N)
            ok = ok and cartan.wuog_identity_holds(ctx, N, G.order, h)
    dt = time.perf_counter() - t0
    report(10, ok, f"|W|/|U| = |C_N|/h across the battery, {dt:.1f}s")


def test_criterion_11_well_definedness_suite():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    digits = 40
    prec = bits_for_digits(digits + modfun.GUARD_DIGITS)
    tolerance = mpmath.mpf(10) ** (-(digits - 10))
    ok = True
    for D in refdata.BATTERY_DISCS:
        ctx = OrderContext.from_disc(D)
        for N in refdata.BATTERY_LEVELS:
            G = class_enumerate(ctx, N)
            # 100 randomized compose_level lift alternates
            for _ in range(100):
                Q = rng.choice(G.reps)
                Q2 = rng.choice(G.reps)
                base = compose_level(Q, Q2, ctx, N)
                alt = compose_level(
                    Q,
                    Q2,
                    ctx,
                    N,
                    coprime_skip=rng.randint(0, 2),
                    b_shift=rng.randint(-2, 2),
                    sigma_shift=(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-1, 1)),
                )
                if gamma1_equivalent(base, alt, N) is None:
                    ok = False
            # 100 randomized representative choices for the class invariant
            if D in (-3, -4):
                continue
            fam = FamilyId.siegel_power(N) if N >= 2 else None
            with mp.workprec(prec):
                for _ in range(100):
                    Q = rng.choice(G.reps)
                    base_ideal = form_to_lattice(ctx, Q).scale(Q.a ** (_phi(N) - 1))
                    lam = QuadElem.of(ctx, 1 + N * rng.randint(0, 2), N * rng.randint(0, 1))
                    if N >= 2:
                        ref = general_invariant(fam, base_ideal, ctx, N, digits).to_mpc()
                        alt = general_invariant(fam, base_ideal.scale(lam), ctx, N, digits).to_mpc()
                    else:
                        ref = g_ON_from_ideal(base_ideal, ctx, 1, digits).to_mpc()
                        alt = g_ON_from_ideal(base_ideal.scale(lam), ctx, 1, digits).to_mpc()
                    if abs(ref - alt) / abs(ref) > tolerance:
                        ok = False
    dt = time.perf_counter() - t0
    report(11, ok, f"100 trials per instance, {dt:.1f}s")


def _phi(n):
    from math import gcd

    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1) if n > 1 else 1
