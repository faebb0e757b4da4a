import random
import re

import mpmath
import pytest
from mpmath import mp

from classfield import modfun
from classfield.invariants import (
    FamilyId,
    class_invariant,
    conjugate_orbit,
    g_ON,
    g_ON_from_ideal,
    general_invariant,
    minimal_polynomial,
)
from classfield.numerics import DomainError, PrecisionPolicy, bits_for_digits
from classfield.orderideals import QuadElem, form_to_lattice
from classfield.quadforms import Form, OrderContext
from classfield.refdata import D200_MINPOLY

DIGITS = 50
PREC = bits_for_digits(DIGITS + modfun.GUARD_DIGITS)
RNG_SEED = 1729


def tol(drop=10):
    return mpmath.mpf(10) ** (-(DIGITS - drop))


def test_identity_class_j_invariant(ctx200, G200):
    fam = FamilyId.j()
    val = class_invariant(fam, G200.reps[0], ctx200, 3, DIGITS)
    _, j = modfun.delta_j(ctx200.tau(DIGITS + modfun.GUARD_DIGITS), DIGITS)
    with mp.workprec(PREC):
        assert abs(val.to_mpc() - j.to_mpc()) / abs(j.to_mpc()) < tol()


def test_rejects_excluded_discriminants():
    ctx = OrderContext.from_disc(-3)
    with pytest.raises(DomainError):
        class_invariant(FamilyId.j(), Form(1, 1, 1), ctx, 2, DIGITS)


def test_identity_invariant_is_poly_root(ctx200):
    fam = FamilyId.siegel_power(3)
    val = class_invariant(fam, Form(1, 0, 50), ctx200, 3, DIGITS)
    with mp.workprec(PREC):
        v = val.to_mpc()
        assert abs(v.imag) < tol()  # real value
        acc, scale = _horner(v)
        assert abs(acc) < mpmath.mpf(10) ** (-(DIGITS - 15)) * scale


def _horner(v):
    # (P(v), sum of absolute Horner terms) as the residual scale
    acc = mpmath.mpc(0)
    scale = mpmath.mpf(0)
    deg = len(D200_MINPOLY) - 1
    for k, c in enumerate(D200_MINPOLY):
        acc = acc * v + c
        scale += abs(mpmath.mpf(c)) * abs(v) ** (deg - k)
    return acc, scale


def test_all_class_values_are_poly_roots(ctx200, G200):
    fam = FamilyId.siegel_power(3)
    with mp.workprec(PREC):
        for Q in G200.reps:
            v = class_invariant(fam, Q, ctx200, 3, DIGITS).to_mpc()
            acc, scale = _horner(v)
            assert abs(acc) < mpmath.mpf(10) ** (-(DIGITS - 15)) * scale


def test_general_route_matches_fmatrix_route(ctx200, G200):
    fam = FamilyId.siegel_power(3)
    with mp.workprec(PREC):
        for Q in G200.reps:
            via_matrix = class_invariant(fam, Q, ctx200, 3, DIGITS).to_mpc()
            ideal = form_to_lattice(ctx200, Q, scale=1)
            # a^phi(3)-scaled ideal keeps the class prime to 3
            ideal = ideal.scale(Q.a ** 1)  # a^{phi(3)-1} * (a [omega, 1]) = a^2 [omega, 1]
            via_ideal = general_invariant(fam, ideal, ctx200, 3, DIGITS).to_mpc()
            assert abs(via_matrix - via_ideal) / abs(via_matrix) < tol()


def test_representative_independence(ctx200, G200):
    # Three alternates per class: scale by lambda = 1 mod 3O
    rng = random.Random(RNG_SEED)
    fam = FamilyId.siegel_power(3)
    with mp.workprec(PREC):
        for Q in G200.reps[:4]:
            base_ideal = form_to_lattice(ctx200, Q).scale(Q.a)
            ref = general_invariant(fam, base_ideal, ctx200, 3, DIGITS).to_mpc()
            for _ in range(3):
                lam = QuadElem.of(
                    ctx200, 1 + 3 * rng.randint(0, 3), 3 * rng.randint(0, 2)
                )
                alt = general_invariant(fam, base_ideal.scale(lam), ctx200, 3, DIGITS).to_mpc()
                assert abs(ref - alt) / abs(ref) < tol()


def test_conjugate_orbit(ctx200, G200):
    fam = FamilyId.siegel_power(3)
    orbit = conjugate_orbit(fam, G200, ctx200, DIGITS)
    assert len(orbit) == 12
    id_val = orbit[G200.identity_index].value
    tau_val = class_invariant(fam, ctx200.principal_form(), ctx200, 3, DIGITS)
    with mp.workprec(PREC):
        assert abs(id_val.to_mpc() - tau_val.to_mpc()) / abs(tau_val.to_mpc()) < tol()
        # value multiset is stable under complex conjugation
        vals = [v.value.to_mpc() for v in orbit]
        for v in vals:
            assert min(abs(v.conjugate() - w) for w in vals) < tol(20) * max(1, abs(v))


def test_minimal_polynomial_relabeling_invariance(ctx200, G200):
    # the coefficient vector must not depend on representative choices or
    # on the ordering of the classes
    import copy

    from classfield.quadforms import SL2

    rng = random.Random(RNG_SEED)
    moves = [SL2(1, 1, 0, 1), SL2(1, -1, 0, 1), SL2(1, 0, 3, 1), SL2(1, 0, -3, 1)]
    shuffled = copy.copy(G200)
    reps = []
    for Q in G200.reps:
        for _ in range(rng.randint(1, 4)):
            Q = Q.apply(rng.choice(moves))
        reps.append(Q)
    rng.shuffle(reps)
    shuffled.reps = reps
    r1 = minimal_polynomial(ctx200, 3, PrecisionPolicy(140), class_group=G200)
    r2 = minimal_polynomial(ctx200, 3, PrecisionPolicy(140), class_group=shuffled)
    assert r1.ok and r2.ok and r1.coefficients == r2.coefficients


def test_minimal_polynomial_matches_reference(ctx200, G200):
    res = minimal_polynomial(ctx200, 3, PrecisionPolicy(140), class_group=G200)
    assert res.ok and res.escalations == 0
    assert res.degree == 12
    assert res.coefficients == D200_MINPOLY
    assert all(r < 1e-20 for r in res.residuals)


def test_minimal_polynomial_escalates(ctx200, G200):
    # 40 digits cannot absorb coefficients of size 1e70; one doubling fixes it
    res = minimal_polynomial(
        ctx200, 3, PrecisionPolicy(40, max_escalations=2), class_group=G200
    )
    assert res.ok and res.escalations >= 1
    assert res.coefficients == D200_MINPOLY


def test_minimal_polynomial_honest_failure(ctx200, G200):
    res = minimal_polynomial(
        ctx200, 3, PrecisionPolicy(40, max_escalations=0), class_group=G200
    )
    assert not res.ok
    assert res.coefficients is None
    assert res.unrecognized is not None and len(res.unrecognized) == 13


def _significant_digits(part):
    return len(part.lstrip("+-").split("e")[0].replace(".", "").lstrip("0"))


def test_minimal_polynomial_failure_prints_last_pass_digits(ctx200, G200):
    # a failed 40-digit pass works at 70 digits; printing more would show noise
    policy = PrecisionPolicy(40, max_escalations=0)
    res = minimal_polynomial(ctx200, 3, policy, class_group=G200)
    assert not res.ok
    for z in res.unrecognized:
        parts = re.fullmatch(r"([-+]?[0-9.]+(?:e[-+]?[0-9]+)?)([-+][0-9.]+(?:e[-+]?[0-9]+)?)j", z)
        assert parts is not None, z
        for part in parts.groups():
            if float(part) != 0:
                assert _significant_digits(part) == policy.working_digits, part


def test_precision_monotonicity(ctx200, G200):
    # recognized-integer residuals shrink at least quadratically in added digits
    r1 = minimal_polynomial(ctx200, 3, PrecisionPolicy(90), class_group=G200)
    r2 = minimal_polynomial(ctx200, 3, PrecisionPolicy(180), class_group=G200)
    assert r1.ok and r2.ok
    # guard digits do not double, so the quadratic law carries a 10^guard offset
    slack = 10.0 ** (modfun.GUARD_DIGITS + 10)
    for a, b in zip(r1.residuals, r2.residuals):
        assert b < max(a * a, 1e-300) * slack


def test_g_on_n1_positive_real_and_representative_free(ctx200):
    Q = Form(2, 0, 25)
    val = g_ON(Q, ctx200, 1, DIGITS)
    assert val.im == 0 and val.re > 0
    rng = random.Random(RNG_SEED)
    base = form_to_lattice(ctx200, Q)
    with mp.workprec(PREC):
        ref = g_ON_from_ideal(base, ctx200, 1, DIGITS).to_mpc()
        for _ in range(3):
            lam = QuadElem.of(ctx200, rng.randint(1, 5), rng.randint(0, 3))
            alt = g_ON_from_ideal(base.scale(lam), ctx200, 1, DIGITS).to_mpc()
            assert abs(ref - alt) / abs(ref) < tol()


def test_minimal_polynomial_rejects_level_one(ctx200):
    with pytest.raises(DomainError):
        minimal_polynomial(ctx200, 1, PrecisionPolicy(50))
