import ast
import json
import logging
import random
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from classfield import invariants, modfun
from classfield.invariants import (
    G_ON_LOSS_BITS,
    FamilyId,
    _class_matrix,
    _expand_real,
    _family_value_at,
    _index_row,
    _real_factors,
    class_invariant,
    conjugate_orbit,
    g_ON,
    g_ON_from_ideal,
    gate_bits,
    general_invariant,
    minimal_polynomial,
)
from classfield.numerics import (
    GUARD_DIGITS,
    BigComplex,
    DomainError,
    InvariantViolation,
    PrecisionPolicy,
    recognize_integer,
    working_bits,
)
from classfield.orderideals import _ideal_form, form_to_lattice, integral_ideals
from classfield.quadforms import Form, OrderContext, class_enumerate, class_label, reduce_form
from classfield.refdata import D200_MINPOLY
from expansion_reference import expand_real
from fricke_reference import FrickeIndex
import fricke_reference
from ideal_reference import QuadElem, scaled, to_lattice

DIGITS = 50
PREC = working_bits(DIGITS)
RNG_SEED = 1729


def tol(drop=10):
    return mpmath.mpf(10) ** (-(DIGITS - drop))


def test_identity_class_j_invariant(ctx200, G200):
    fam = FamilyId.j()
    val = class_invariant(fam, G200.reps[0], ctx200, 3, DIGITS)
    _, j = modfun.delta_j(ctx200.tau(DIGITS), DIGITS)
    with mp.workprec(PREC):
        assert abs(val.to_mpc() - j.to_mpc()) / abs(j.to_mpc()) < tol()


def test_rejects_excluded_discriminants():
    ctx = OrderContext.from_disc(-3)
    with pytest.raises(DomainError):
        class_invariant(FamilyId.j(), Form(1, 1, 1), ctx, 2, DIGITS)


def test_identity_invariant_is_poly_root(ctx200):
    fam = FamilyId.siegel_power()
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
    fam = FamilyId.siegel_power()
    with mp.workprec(PREC):
        for Q in G200.reps:
            v = class_invariant(fam, Q, ctx200, 3, DIGITS).to_mpc()
            acc, scale = _horner(v)
            assert abs(acc) < mpmath.mpf(10) ** (-(DIGITS - 15)) * scale


def test_general_route_matches_fmatrix_route(ctx200, G200):
    fam = FamilyId.siegel_power()
    with mp.workprec(PREC):
        for Q in G200.reps:
            via_matrix = class_invariant(fam, Q, ctx200, 3, DIGITS).to_mpc()
            ideal = form_to_lattice(ctx200, Q, scale=1)
            # a^phi(3)-scaled ideal keeps the class prime to 3
            ideal = scaled(ctx200, ideal, Q.a ** 1)  # a^{phi(3)-1} * (a [omega, 1]) = a^2 [omega, 1]
            via_ideal = general_invariant(fam, ideal, ctx200, 3, DIGITS).to_mpc()
            assert abs(via_matrix - via_ideal) / abs(via_matrix) < tol()


def test_representative_independence(ctx200, G200):
    # Three alternates per class: scale by lambda = 1 mod 3O
    rng = random.Random(RNG_SEED)
    fam = FamilyId.siegel_power()
    with mp.workprec(PREC):
        for Q in G200.reps[:4]:
            base_ideal = scaled(ctx200, form_to_lattice(ctx200, Q), Q.a)
            ref = general_invariant(fam, base_ideal, ctx200, 3, DIGITS).to_mpc()
            for _ in range(3):
                lam = QuadElem.of(
                    ctx200, 1 + 3 * rng.randint(0, 3), 3 * rng.randint(0, 2)
                )
                alt = general_invariant(fam, scaled(ctx200, base_ideal, lam), ctx200, 3, DIGITS).to_mpc()
                assert abs(ref - alt) / abs(ref) < tol()


def test_conjugate_orbit(ctx200, G200):
    # one value per class, in class order; the partner of each conjugate pair
    # gets the conjugate, which must agree with evaluating its own class
    fam = FamilyId.siegel_power()
    orbit = conjugate_orbit(fam, G200, ctx200, DIGITS)
    assert len(orbit) == 12
    tau_val = class_invariant(fam, ctx200.principal_form(), ctx200, 3, DIGITS)
    with mp.workprec(PREC):
        assert abs(orbit[0].to_mpc() - tau_val.to_mpc()) / abs(tau_val.to_mpc()) < tol()
        for Q, v in zip(G200.reps, orbit):
            ref = class_invariant(fam, Q, ctx200, 3, DIGITS).to_mpc()
            assert abs(v.to_mpc() - ref) < tol() * abs(ref)


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(2, 12),
    row=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    M=st.tuples(*[st.integers(-9, 9)] * 4),
    gam=st.tuples(*[st.integers(-9, 9)] * 4),
)
def test_index_row_matches_the_fraction_action(N, row, M, gam):
    # row M gam mod N, normalized, is N times the FrickeIndex route's
    # v.act(M).act(gam).normalized() for v = row/N; both reject an index
    # that is integral
    try:
        v = FrickeIndex.of(Fraction(row[0], N), Fraction(row[1], N)).act(M).act(gam).normalized()
    except DomainError:
        with pytest.raises(DomainError):
            _index_row(row, M, gam, N)
        return
    assert _index_row(row, M, gam, N) == (v.v1 * N, v.v2 * N)


FAMILY_POOL = [(-71, 5), (-200, 3), (-56, 4), (-15, 8), (-47, 7), (-20, 12)]


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(FAMILY_POOL),
    row=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    pick=st.integers(0, 10**6),
    seed=st.integers(0, 10**6),
    siegel=st.booleans(),
)
def test_family_values_agree_on_gamma1_equivalent_representatives(gamma1_word, case, row, pick, seed, siegel):
    # a Fricke or Siegel family at any row over N gives one value per level-N
    # class, whichever representative of the class is evaluated
    D, N = case
    assume(row[0] % N or row[1] % N)
    ctx, G = _halving_group(D, N)
    fam = FamilyId.siegel_power(*row) if siegel else FamilyId.fricke(*row)
    Q = G.reps[pick % len(G.reps)]
    alt = Q.apply(gamma1_word(random.Random(seed), N))
    digits = 30
    a = class_invariant(fam, Q, ctx, N, digits).to_mpc()
    b = class_invariant(fam, alt, ctx, N, digits).to_mpc()
    with mp.workprec(working_bits(digits)):
        assert abs(a - b) <= mpmath.mpf(10) ** -(digits - 10) * abs(a)


def test_fricke_family_is_representative_free_at_every_row():
    # (446, -179, 18) and (1, 1, 18) share their Gamma_1(5) class on D = -71;
    # an index of level 3 over the level-5 classes once gave values 1.4e11
    # apart there, and rows over N cannot express it; the zero row raises
    ctx, G = _halving_group(-71, 5)
    Q, alt = Form(446, -179, 18), Form(1, 1, 18)
    assert class_label(Q, 5) == class_label(alt, 5)
    for u1 in range(5):
        for u2 in range(5):
            fam = FamilyId.fricke(u1, u2)
            if u1 == u2 == 0:
                with pytest.raises(DomainError):
                    class_invariant(fam, Q, ctx, 5, 20)
                continue
            a = class_invariant(fam, Q, ctx, 5, 20).to_mpc()
            b = class_invariant(fam, alt, ctx, 5, 20).to_mpc()
            with mp.workprec(working_bits(20)):
                assert abs(a - b) <= mpmath.mpf(10) ** -10 * abs(a)
    with pytest.raises(DomainError):
        class_invariant(FamilyId.siegel_power(5, -10), Q, ctx, 5, 20)


@pytest.mark.parametrize("D, N", [(-200, 3), (-71, 5), (-180, 8)])
def test_class_conjugation_for_every_family(D, N):
    # g(conj C) = conj g(C), conj C the class of (a, -b, c): conjugate_orbit,
    # minimal_polynomial and log_g_values evaluate one class of each pair;
    # here every class is evaluated on its own
    digits = 40
    ctx, G = _halving_group(D, N)
    for fam in (FamilyId.siegel_power(), FamilyId.fricke(), FamilyId.j()):
        values = [class_invariant(fam, Q, ctx, N, digits).to_mpc() for Q in G.reps]
        with mp.workprec(working_bits(digits)):
            for Q, v in zip(G.reps, values):
                w = values[G.index_of(Form(Q.a, -Q.b, Q.c))]
                assert abs(v.conjugate() - w) <= mpmath.mpf(10) ** -(digits - 10) * abs(v)


def test_only_the_pair_pass_walks_conjugate_partners():
    # the conjugate-pair rule has one home; the class values that use it go
    # through invariants._conjugate_pairs
    callers = {"_conjugate_partners": set(), "_conjugate_pairs": set()}
    for path in Path(invariants.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name in callers:
                        callers[name].add(f"{path.stem}.{fn.name}")
    assert callers == {
        "_conjugate_partners": {"invariants._conjugate_pairs"},
        "_conjugate_pairs": {
            "invariants._real_factors",
            "invariants.conjugate_orbit",
            "lfunctions.log_g_values",
        },
    }


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
    # the expansion is real, so each coefficient prints as one real number
    for c in res.unrecognized:
        assert re.fullmatch(r"[-+]?[0-9.]+(?:e[-+]?[0-9]+)?", c), c
        if float(c) != 0:
            assert _significant_digits(c) == policy.working_digits, c


def test_precision_monotonicity(ctx200, G200):
    # recognized-integer residuals shrink at least quadratically in added digits
    r1 = minimal_polynomial(ctx200, 3, PrecisionPolicy(90), class_group=G200)
    r2 = minimal_polynomial(ctx200, 3, PrecisionPolicy(180), class_group=G200)
    assert r1.ok and r2.ok
    # guard digits do not double, so the quadratic law carries a 10^guard offset
    slack = 10.0 ** (GUARD_DIGITS + 10)
    for a, b in zip(r1.residuals, r2.residuals):
        assert b < max(a * a, 1e-300) * slack


# -- the conjugate-pair expansion against the full complex product -------------


def reference_expand_monic(values, prec):
    """Coefficients (ascending) of prod (x - v), in complex arithmetic."""
    with mp.workprec(prec):
        coeffs = [mpmath.mpc(1)]
        for v in values:
            z = v.to_mpc()
            new = [mpmath.mpc(0)] * (len(coeffs) + 1)
            for k, ck in enumerate(coeffs):
                new[k] -= ck * z
                new[k + 1] += ck
            coeffs = new
    return coeffs


def reference_minimal_polynomial(ctx, N, policy, G):
    """(ok, coefficients, escalations, precision_used) from g_ON at every
    class and the complex product, under the same gate."""
    tol = policy.recognition_tol()
    pol = policy
    for attempt in range(policy.max_escalations + 1):
        digits = pol.target_decimal_digits
        prec = working_bits(digits)
        values = [g_ON(Q, ctx, N, digits) for Q in G.reps]
        with mp.workprec(53):
            log2_m = sum(max(0.0, float(mpmath.log(abs(v.to_mpc()), 2))) for v in values)
        if gate_bits(G.order, N, log2_m, tol) < prec:
            coeffs = reference_expand_monic(values, prec)[::-1]
            ints = [recognize_integer(BigComplex.from_mpc(c, prec), tol) for c in coeffs]
            if None not in ints:
                return True, ints, attempt, digits
        pol = pol.escalate()
    return False, None, policy.max_escalations, digits


# (D, N) with even and odd D and N in {3, 4, 5, 8}; at 10-40 digits each
# escalates at least once, (-47, 3) and (-52, 4) not at 40
HALVING_POOL = [(-200, 3), (-47, 3), (-56, 4), (-52, 4), (-15, 5), (-24, 5), (-15, 8), (-23, 8)]


@lru_cache(maxsize=None)
def _halving_group(D, N):
    ctx = OrderContext.from_disc(D)
    return ctx, class_enumerate(ctx, N)


@settings(max_examples=16, deadline=None)
@given(case=st.sampled_from(HALVING_POOL), digits=st.sampled_from([10, 20, 40]))
def test_conjugate_pair_expansion_matches_full_product(case, digits):
    ctx, G = _halving_group(*case)
    policy = PrecisionPolicy(digits)
    res = minimal_polynomial(ctx, case[1], policy, class_group=G)
    ref = reference_minimal_polynomial(ctx, case[1], policy, G)
    assert (res.ok, res.coefficients, res.escalations, res.precision_used) == ref


def test_gate_escalates_where_the_ungated_real_expansion_is_wrong():
    # at 45 digits every real coefficient of (-88, 5) rounds to an integer
    # within tol, but 21 of the 25 are wrong; minimal_polynomial must escalate
    ctx, G = _halving_group(-88, 5)
    policy = PrecisionPolicy(45)
    tol = policy.recognition_tol()
    prec = working_bits(45)
    truth = minimal_polynomial(ctx, 5, PrecisionPolicy(700), class_group=G).coefficients
    linear, quadratic, _, _ = _real_factors(G, ctx, 5, 45, tol)
    coeffs, e = _expand_real(linear, quadratic, prec)
    with mp.workprec(prec):
        coeffs = [mpmath.mpf((c, e)) for c in coeffs[::-1]]
        assert all(abs(c - mpmath.nint(c)) < tol for c in coeffs)
        assert sum(int(mpmath.nint(c)) != t for c, t in zip(coeffs, truth)) > 0
    res = minimal_polynomial(ctx, 5, policy, class_group=G)
    assert res.ok and res.escalations >= 1 and res.coefficients == truth


@pytest.mark.parametrize("D, N, digits", [(-104, 5, 272), (-88, 5, 211)])
def test_integer_expansion_within_its_truncation_bound(D, N, digits):
    # the product tree against the mpmath expansion at twice the precision, on
    # the same roots, at the probe's digits: every coefficient within
    # gate_bits' T = 2^(2-P) n (bitlen(n) + 3) W, P = p + n + bitlen(n) and
    # W = prod_C (1 + |g(C)|)
    ctx, G = _halving_group(D, N)
    n, prec = G.order, working_bits(digits)
    linear, quadratic, _, _ = _real_factors(G, ctx, N, digits, PrecisionPolicy().recognition_tol())
    got, e = _expand_real(linear, quadratic, prec)
    assert len(got) == n + 1 == len(linear) + 2 * len(quadratic) + 1
    with mp.workprec(2 * prec):
        lin = [mpmath.mpf((x, k)) for x, k in linear]
        quad = [(2 * mpmath.mpf((x, k)), mpmath.mpf((x * x + y * y, 2 * k))) for x, y, k in quadratic]
        ref = expand_real(lin, quad, 2 * prec)
        W = mpmath.fprod([1 + abs(r) for r in lin] + [(1 + mpmath.sqrt(q)) ** 2 for _, q in quad])
        b = n.bit_length()
        T = mpmath.ldexp(n * (b + 3) * W, 2 - (prec + n + b))
        assert max(abs(mpmath.mpf((c, e)) - r) for c, r in zip(got, ref)) <= T


def reference_siegel_power(index_matrix, Qxi, N, digits):
    """The 12N-th Siegel power by the FrickeIndex route: the index (0, 1/N)
    moved by the index matrix and the reduction witness in Fractions and
    normalized, then the reference Siegel value and BigComplex ** 12N."""
    R, gam = reduce_form(Qxi)
    idx = FrickeIndex.of(0, Fraction(1, N)).act(index_matrix).act(tuple(gam)).normalized()
    return fricke_reference.siegel(idx, R.omega(digits), digits) ** (12 * N)


@settings(max_examples=40, deadline=None)
@given(
    D=st.sampled_from([-15, -20, -23, -24, -31, -40, -47, -56]),
    N=st.integers(2, 12),
    digits=st.sampled_from([10, 20, 60, 300]),
    pick=st.integers(0, 10**6),
)
def test_siegel_power_matches_the_fraction_route(D, N, digits, pick):
    # the integer row, kernel and power against the FrickeIndex route, at every
    # class and at one ideal, within the gate's allowance 12N 2^(L - p)
    ctx, G = _halving_group(D, N)
    fam = FamilyId.siegel_power()
    cases = [
        (class_invariant(fam, Q, ctx, N, digits), _class_matrix(Q, ctx, N), Form(Q.a, -Q.b, Q.c))
        for Q in G.reps
    ]
    _, pool = _general_pool(D, N)
    L = pool[pick % len(pool)]
    g, h, Q = _ideal_form(ctx, L)
    A = (g * Q.a, g * (h - ctx.b0), 0, g)
    cases.append((general_invariant(fam, L, ctx, N, digits), A, Form(Q.a, -Q.b, Q.c)))
    prec = working_bits(digits)
    allowance = mpmath.mpf(12 * N) * mpmath.mpf(2) ** (G_ON_LOSS_BITS - prec)
    for got, M, Qxi in cases:
        ref = reference_siegel_power(M, Qxi, N, digits)
        assert got.prec == prec
        with mp.workprec(prec + 64):
            assert abs(got.to_mpc() - ref.to_mpc()) <= allowance * abs(ref.to_mpc())


@pytest.mark.parametrize("D, N", [(-200, 3), (-71, 5), (-15, 8)])
def test_g_on_relative_error_within_the_gate_allowance(D, N):
    # the gate takes g_ON at p bits to be within relative 12N 2^(L - p)
    ctx, G = _halving_group(D, N)
    for digits in (20, 60):
        allowance = mpmath.mpf(12 * N) * mpmath.mpf(2) ** (G_ON_LOSS_BITS - working_bits(digits))
        for Q in G.reps:
            got = g_ON(Q, ctx, N, digits).to_mpc()
            ref = g_ON(Q, ctx, N, 2 * digits + 40).to_mpc()
            with mp.workprec(working_bits(2 * digits + 40)):
                assert abs(got - ref) <= allowance * abs(ref)


def test_minimal_polynomial_rejects_reps_without_their_conjugates():
    # conjugate partners are looked up among the given reps by class label;
    # a missing partner is an error, not a silently different polynomial
    import copy

    ctx, G = _halving_group(-200, 3)
    conj = [G.index_of(Form(Q.a, -Q.b, Q.c)) for Q in G.reps]
    i = next(i for i, j in enumerate(conj) if j != i)
    missing = copy.copy(G)
    missing.reps = [Q for k, Q in enumerate(G.reps) if k != conj[i]]
    with pytest.raises(InvariantViolation, match="conjugate"):
        minimal_polynomial(ctx, 3, PrecisionPolicy(140), class_group=missing)


def test_minimal_polynomial_logs_one_line_per_pass(caplog, ctx200, G200):
    policy = PrecisionPolicy(40, max_escalations=2)
    with caplog.at_level(logging.INFO, logger="classfield"):
        res = minimal_polynomial(ctx200, 3, policy, class_group=G200)
    lines = [r.getMessage() for r in caplog.records if r.name.startswith("classfield")]
    assert res.ok and len(lines) == res.escalations + 1
    assert all("8 of 12 classes evaluated at 4 points (fixed point " in line for line in lines)
    assert "40 digits" in lines[0] and "escalating" in lines[0] and "worst residual -" in lines[0]
    assert f"{res.precision_used} digits" in lines[-1] and ", ok," in lines[-1]
    assert re.search(r"gate needs [0-9.]+ of [0-9]+ bits", lines[-1])
    timings = r", [0-9.]+ s evaluating, [0-9.]+ s expanding, [0-9.]+ s recognizing$"
    assert all(re.search(timings, line) for line in lines)
    assert ", 0.000 s expanding, 0.000 s recognizing" in lines[0]


# the benchmark's frozen minimal polynomials, computed at 1400 digits
FROZEN_MINPOLYS = json.loads((Path(__file__).parents[1] / "perfbench" / "minpolys.json").read_text())


@pytest.mark.parametrize("D, N", [(-200, 3), *(tuple(map(int, k.split(","))) for k in FROZEN_MINPOLYS["polynomials"])])
def test_probe_sized_pass_recognizes_in_one_pass(D, N):
    ctx, G = _halving_group(D, N)
    res = minimal_polynomial(ctx, N, PrecisionPolicy(), class_group=G)
    want = D200_MINPOLY if (D, N) == (-200, 3) else [int(c) for c in FROZEN_MINPOLYS["polynomials"][f"{D},{N}"]]
    assert res.ok and res.escalations == 0
    assert res.coefficients == want


@settings(max_examples=8, deadline=None)
@given(case=st.sampled_from(HALVING_POOL))
def test_probe_sized_pass_matches_a_pass_at_twice_its_digits(case):
    ctx, G = _halving_group(*case)
    res = minimal_polynomial(ctx, case[1], PrecisionPolicy(), class_group=G)
    ref = minimal_polynomial(ctx, case[1], PrecisionPolicy(2 * res.precision_used), class_group=G)
    assert res.ok and ref.ok and res.escalations == 0
    assert res.coefficients == ref.coefficients


def test_probe_too_low_falls_back_to_doubling(monkeypatch, ctx200, G200):
    # the probe only sizes the first pass; the gate still decides, and doubles
    monkeypatch.setattr(invariants, "probe_digits", lambda *args: 20)
    res = minimal_polynomial(ctx200, 3, PrecisionPolicy(), class_group=G200)
    assert res.ok and res.coefficients == D200_MINPOLY
    assert res.escalations == 2 and res.precision_used == 80


def test_probe_logs_its_choice_before_the_pass(caplog, ctx200, G200):
    with caplog.at_level(logging.INFO, logger="classfield"):
        res = minimal_polynomial(ctx200, 3, PrecisionPolicy(), class_group=G200)
    lines = [r.getMessage() for r in caplog.records if r.name.startswith("classfield")]
    assert res.ok and len(lines) == 2
    assert re.fullmatch(
        rf"minpoly probe: 10 digits give log2 M [0-9.]+, gate needs [0-9.]+ bits, chose {res.precision_used} digits, "
        r"[0-9.]+ s evaluating",
        lines[0],
    )
    assert lines[1].startswith(f"minpoly pass 0: {res.precision_used} digits")


def test_g_on_n1_positive_real_and_representative_free(ctx200):
    Q = Form(2, 0, 25)
    val = g_ON(Q, ctx200, 1, DIGITS)
    assert val.im == 0 and val.re > 0
    rng = random.Random(RNG_SEED)
    base = form_to_lattice(ctx200, Q)
    with mp.workprec(PREC):
        ref = g_ON_from_ideal(base, ctx200, DIGITS).to_mpc()
        for _ in range(3):
            lam = QuadElem.of(ctx200, rng.randint(1, 5), rng.randint(0, 3))
            alt = g_ON_from_ideal(scaled(ctx200, base, lam), ctx200, DIGITS).to_mpc()
            assert abs(ref - alt) / abs(ref) < tol()


def test_minimal_polynomial_rejects_level_one(ctx200):
    with pytest.raises(DomainError):
        minimal_polynomial(ctx200, 1, PrecisionPolicy(50))


# -- the general ideal route against the Fraction-based reference -------------


def _reference_inverse(L):
    """L^-1 = conj(L)/N(L), in Fraction arithmetic."""
    return L.conj().scale(Fraction(1) / L.norm())


def _point_form(ctx, xi):
    """Primitive integral form with root xi in the upper half-plane."""
    if xi.y == 0:
        raise DomainError("evaluation point must be irrational")
    # A xi^2 + B xi + C = 0 with (A, B, C) = t*(1, -(2x - b0 y), N(xi))
    b = -(2 * xi.x - ctx.b0 * xi.y)
    c = xi.norm()
    den = b.denominator * c.denominator // gcd(b.denominator, c.denominator)
    a_i, b_i, c_i = den, int(b * den), int(c * den)
    g = gcd(gcd(a_i, b_i), c_i)
    a_i, b_i, c_i = a_i // g, b_i // g, c_i // g
    if a_i < 0:
        a_i, b_i, c_i = -a_i, -b_i, -c_i
    return Form(a_i, b_i, c_i)


def reference_general_invariant(family, ideal, ctx, N, digits):
    """Slow-path general route: the Hermite basis {xi1, xi2} of the inverse
    ideal and the matrix A with (tau, 1)^t = A (xi1, xi2)^t solved in
    Fractions; the family index moves by A and the point is xi1/xi2.  A
    Fricke family's index moves as a FrickeIndex."""
    if not ideal.is_proper_ideal() or not ideal.is_integral():
        raise DomainError("need an integral proper O-ideal")
    if gcd(int(ideal.norm()), N) != 1:
        raise DomainError("ideal must be prime to the level")
    xi1, xi2 = _reference_inverse(ideal).basis()
    det = xi1.x * xi2.y - xi2.x * xi1.y
    # solve (0,1) = A11*xi1 + A12*xi2 and (1,0) = A21*xi1 + A22*xi2 in coords
    A11 = -xi2.x / det
    A12 = xi1.x / det
    A21 = xi2.y / det
    A22 = -xi1.y / det
    if any(v.denominator != 1 for v in (A11, A12, A21, A22)):
        raise InvariantViolation("change-of-basis matrix is not integral")
    A = (int(A11), int(A12), int(A21), int(A22))
    if gcd(A[0] * A[3] - A[1] * A[2], N) != 1:
        raise InvariantViolation("det(A) shares a factor with the level")
    Qxi = _point_form(ctx, xi1 * xi2.inverse())
    if family.kind != "fricke_f":
        return _family_value_at(family, A, Qxi, N, digits)
    R, gam = reduce_form(Qxi)
    v = FrickeIndex.of(Fraction(family.row[0], N), Fraction(family.row[1], N))
    return fricke_reference.fricke(v.act(A).act(tuple(gam)), R.omega(digits), digits)


def reference_g_on_level_one(L, ctx, digits):
    """(2 pi)^12 N([xi,1])^6 |eta(xi)|^24 at the reduced form of L^-1's
    Fraction-built form, for any (also fractional) ideal L."""
    R, _ = reduce_form(_reference_inverse(L).to_form())
    prec = working_bits(digits)
    e = modfun.eta(R.omega(digits), digits)
    with mp.workprec(prec):
        val = (2 * mpmath.pi) ** 12 * mpmath.mpf(R.a) ** -6 * abs(e.to_mpc()) ** 24
    return BigComplex.from_mpc(val, prec)


@lru_cache(maxsize=None)
def _general_pool(D, N):
    ctx = OrderContext.from_disc(D)
    return ctx, [L for _, L in integral_ideals(ctx, 60, coprime_to=N)]


def _same_bits(u, v):
    return (u.re, u.im, u.prec) == (v.re, v.im, v.prec)


@settings(max_examples=60, deadline=None)
@given(
    D=st.sampled_from([-15, -20, -56, -71, -200]),
    N=st.integers(2, 5),
    pick=st.integers(0, 10**6),
    lam=st.tuples(st.integers(0, 3), st.integers(-3, 3)),
    v=st.tuples(st.integers(1, 4), st.integers(0, 4)),
    siegel=st.booleans(),
)
def test_general_invariant_matches_fraction_reference(D, N, pick, lam, v, siegel):
    ctx, pool = _general_pool(D, N)
    # lambda = 1 mod N*O keeps the ideal prime to N and moves every entry of A
    L = scaled(ctx, pool[pick % len(pool)], QuadElem.of(ctx, 1 + N * lam[0], N * lam[1]))
    if siegel:
        fam = FamilyId.siegel_power()
    else:
        # u1 != 0 mod N, so the (1, 2) entry of A moves the index
        fam = FamilyId.fricke(v[0] % N or 1, v[1])
    got = general_invariant(fam, L, ctx, N, 20)
    assert _same_bits(got, reference_general_invariant(fam, to_lattice(ctx, L), ctx, N, 20))


@settings(max_examples=30, deadline=None)
@given(
    D=st.sampled_from([-15, -20, -56, -71, -200]),
    pick=st.integers(0, 10**6),
    lam=st.tuples(st.integers(1, 5), st.integers(-3, 3)),
    den=st.integers(1, 6),
)
def test_g_on_level_one_matches_fraction_reference(D, pick, lam, den):
    ctx, pool = _general_pool(D, 1)
    # the reference sees L/den, so the value's freedom from scale is checked
    L = scaled(ctx, pool[pick % len(pool)], QuadElem.of(ctx, *lam))
    fractional = to_lattice(ctx, L).scale(Fraction(1, den))
    assert _same_bits(g_ON_from_ideal(L, ctx, 20), reference_g_on_level_one(fractional, ctx, 20))
