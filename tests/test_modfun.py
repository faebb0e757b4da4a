import ast
import math
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

import classfield
from classfield import modfun
from classfield.invariants import G_ON_LOSS_BITS, PROBE_DIGITS, _real_factors, _siegel_plan, g_ON
from classfield.numerics import GUARD_DIGITS, BigComplex, DomainError, PrecisionPolicy, bits_for_digits, working_bits
from classfield.quadforms import Form, OrderContext, class_enumerate, enumerate_reduced
from fricke_reference import FrickeIndex, frac
from kronecker_reference import theta1
import fricke_reference
import series_reference

DIGITS = 60
PREC = working_bits(DIGITS)
RNG_SEED = 1729


def tol(drop=10):
    return mpmath.mpf(10) ** (-(DIGITS - drop))


def rand_tau(rng):
    return BigComplex(Fraction(rng.randint(-45, 45), 100), Fraction(rng.randint(15, 250), 100), PREC)


def moebius(g, tau):
    p, q, r, s = g
    with mp.workprec(PREC):
        t = tau.to_mpc()
        return BigComplex.from_mpc((p * t + q) / (r * t + s), PREC)


# -- reference products --------------------------------------------------------
# eta, siegel and theta1 by their q-products, each truncated once the geometric
# tail bound drops below the working precision: the slow path the series replace.


def reference_eta_product(tau, digits):
    prec = working_bits(digits)
    with mp.workprec(prec):
        t_ = tau.to_mpc()
        q = modfun._qexp(t_)
        nmax = modfun._nterms(abs(q), digits)
        prod = mpmath.mpc(1)
        qn = mpmath.mpc(1)
        for _ in range(nmax):
            qn *= q
            prod *= 1 - qn
        val = mpmath.exp(1j * mpmath.pi * t_ / 12) * prod
    return BigComplex.from_mpc(val, prec)


def reference_siegel_product(v, tau, digits):
    """Product at the raw index; its two extra factors cover |a1| < 3."""
    prec = working_bits(digits)
    with mp.workprec(prec):
        t_ = tau.to_mpc()
        q = modfun._qexp(t_)
        z = frac(v.v1) * t_ + frac(v.v2)
        qz = modfun._qexp(z)
        b2 = v.v1 * v.v1 - v.v1 + Fraction(1, 6)
        lead = modfun._qexp(t_ * frac(b2 / 2))
        phase = mpmath.exp(1j * mpmath.pi * frac(v.v2 * (v.v1 - 1)))
        nmax = modfun._nterms(abs(q), digits, extra=2)
        prod = 1 - qz
        qn = mpmath.mpc(1)
        for _ in range(nmax):
            qn *= q
            prod *= (1 - qn * qz) * (1 - qn / qz)
        val = -lead * phase * prod
    return BigComplex.from_mpc(val, prec)


def reference_theta1_product(omega, z, digits):
    prec = working_bits(digits)
    e = reference_eta_product(z, digits)
    with mp.workprec(prec):
        w = omega.to_mpc()
        z_ = z.to_mpc()
        q = modfun._qexp(z_)
        shift = int(mp.ceil(abs(w.imag) / z_.imag)) + 1
        nmax = modfun._nterms(abs(q), digits, extra=shift)
        qw = modfun._qexp(w)
        prod = mpmath.mpc(1)
        qn = mpmath.mpc(1)
        for _ in range(nmax):
            qn *= q
            prod *= (1 - qn * qw) * (1 - qn / qw)
        val = 2 * mpmath.exp(1j * mpmath.pi * z_ / 6) * mpmath.sin(mpmath.pi * w) * e.to_mpc() * prod
    return BigComplex.from_mpc(val, prec)


@st.composite
def series_points(draw):
    """tau = x + iy with y >= 0.15: reduced (|x| <= 1/2, |tau| >= 1) or not."""
    if draw(st.booleans()):
        x = draw(st.integers(-50, 50))
        y = draw(st.integers(isqrt(10000 - x * x - 1) + 1, 250))
    else:
        x = draw(st.integers(-300, 300))
        y = draw(st.integers(15, 250))
    return Fraction(x, 100), Fraction(y, 100)


@st.composite
def raw_indices(draw):
    """Index with denominators <= 12 and raw a1 in [-2, 3)."""
    d1 = draw(st.integers(1, 12))
    d2 = draw(st.integers(1, 12))
    a1 = Fraction(draw(st.integers(-2 * d1, 3 * d1 - 1)), d1)
    a2 = Fraction(draw(st.integers(-2 * d2, 2 * d2)), d2)
    assume(a1.denominator > 1 or a2.denominator > 1)
    return FrickeIndex(a1, a2)


@settings(max_examples=60, deadline=None)
@given(series_points(), raw_indices(), st.sampled_from([20, 60, 300]))
def test_series_match_reference_products(xy, v, digits):
    prec = working_bits(digits)
    tau = BigComplex(*xy, prec)
    with mp.workprec(prec):
        omega = BigComplex.from_mpc(frac(v.v1) * tau.to_mpc() + frac(v.v2), prec)
    pairs = [
        (modfun.eta(tau, digits), reference_eta_product(tau, digits)),
        (modfun.siegel(v.row, tau, digits), reference_siegel_product(v, tau, digits)),
        (theta1(omega, tau, digits), reference_theta1_product(omega, tau, digits)),
    ]
    with mp.workprec(prec):
        bound = mpmath.mpf(10) ** -(digits + GUARD_DIGITS - 5)
        for new, ref in pairs:
            assert abs(new.to_mpc() - ref.to_mpc()) <= bound * abs(ref.to_mpc())


def test_series_truncation_rule(monkeypatch):
    # every reduced point of (-104, 5) at 700 digits: the a-priori cut gives the
    # same values as five more terms in every series, and no series has more
    # than 60 terms
    digits = 700
    prec = working_bits(digits)
    indices = [(u1, u2, 5) for u1 in range(5) for u2 in range(5) if u1 or u2]
    taus = [R.omega(digits) for R in enumerate_reduced(-104)]
    values = []
    for tau in taus:
        pt = modfun._point(tau.re, tau.im, prec, 5)
        assert 2 * pt.euler_terms + 1 <= 60
        for u1, _, _ in indices:
            b = u1 / 5
            assert pt.terms(b) + pt.terms(1 - b) - 1 <= 60
        values.append([modfun.eta(tau, digits)] + [modfun.siegel(v, tau, digits) for v in indices])
    least_n = modfun._least_n
    monkeypatch.setattr(modfun, "_least_n", lambda c, b: least_n(c, b) + 5)
    modfun._point.cache_clear()
    try:
        for tau, vals in zip(taus, values):
            more = [modfun.eta(tau, digits)] + [modfun.siegel(v, tau, digits) for v in indices]
            with mp.workprec(prec):
                for a, b in zip(vals, more):
                    assert abs(a.to_mpc() - b.to_mpc()) <= mpmath.mpf(2) ** -prec * abs(b.to_mpc())
    finally:
        modfun._point.cache_clear()


def _relative_error_bits(got, ref, prec):
    """log2 of |got - ref|/|ref| plus prec: at most L when got is within
    2^(L - prec) relative of ref."""
    with mp.workprec(prec + 200):
        err = abs(got.to_mpc() - ref.to_mpc())
        return float(mpmath.log(err / abs(ref.to_mpc()), 2)) + prec if err else -math.inf


@settings(max_examples=80, deadline=None)
@given(series_points(), raw_indices(), st.sampled_from([10, 20, 60, 300]))
def test_fixed_point_siegel_matches_the_mpmath_series(xy, v, digits):
    # the fixed-point kernel against the mpmath series, which is taken 20
    # digits higher so that the bound measures the kernel's own error
    prec = working_bits(digits)
    tau = BigComplex(*xy, prec)
    got = modfun.siegel(v.row, tau, digits)
    assert got.prec == prec
    assert _relative_error_bits(got, series_reference.siegel(v, tau, digits + 20), prec) <= G_ON_LOSS_BITS


@pytest.mark.parametrize("digits", [10, 60])
def test_fixed_point_siegel_keeps_values_below_two_to_the_minus_prec(digits):
    # with a1 integral, |g| is about 2|q|^(1/12) = 2^(1 - 0.755 Im tau), which
    # Im tau = 4 prec/3 + 8 puts below 2^-prec; the guard bits keep its
    # relative precision
    prec = working_bits(digits)
    tau = BigComplex(Fraction(-3, 10), Fraction(4 * prec, 3) + 8, prec)
    for v in [FrickeIndex.of(0, Fraction(1, 5)), FrickeIndex.of(-1, Fraction(1, 3)), FrickeIndex.of(2, Fraction(5, 12))]:
        got = modfun.siegel(v.row, tau, digits)
        ref = series_reference.siegel(v, tau, digits + 20)
        assert abs(ref.to_mpc()) < mpmath.mpf(2) ** -prec
        assert _relative_error_bits(got, ref, prec) <= G_ON_LOSS_BITS


@pytest.mark.parametrize("D, N", [(-104, 5), (-4000, 7)])
def test_g_on_below_two_to_the_minus_prec_keeps_its_relative_precision(monkeypatch, D, N):
    # the principal class at the 10-digit probe: |g_ON| is about 2^-231 on
    # (-104, 5) and 2^-2007 on (-4000, 7), against 140 working bits; it must
    # stay within the gate's allowance 12N 2^(L - p) of the 12N-th power of
    # the mpmath series' Siegel value
    ctx = OrderContext.from_disc(D)
    Q = Form(1, ctx.b0, ctx.c0)
    prec = working_bits(PROBE_DIGITS)
    seen = []
    kernel = modfun.siegel_fixed

    def spy(u1, u2, d, tau, prec):
        seen.append((FrickeIndex.of(Fraction(u1, d), Fraction(u2, d)), tau))
        return kernel(u1, u2, d, tau, prec)

    monkeypatch.setattr(modfun, "siegel_fixed", spy)
    got = g_ON(Q, ctx, N, PROBE_DIGITS)
    [(v, tau)] = seen
    base = series_reference.siegel(v, tau, PROBE_DIGITS + 20)
    with mp.workprec(4 * prec):
        ref = BigComplex.from_mpc(base.to_mpc() ** (12 * N), 4 * prec)
        assert abs(ref.to_mpc()) < mpmath.mpf(2) ** -prec
    assert _relative_error_bits(got, ref, prec) <= G_ON_LOSS_BITS + math.log2(12 * N)


def test_one_pass_takes_two_exponentials_per_evaluation_point(monkeypatch):
    # the classes at one point share its root: a pass on (-104, 5) at 272
    # digits evaluates 28 classes at 4 points, where the mpmath series took
    # two exponentials per class
    ctx = OrderContext.from_disc(-104)
    G = class_enumerate(ctx, 5)
    exp, kernel = mpmath.exp, modfun.siegel_fixed
    exps, points = [], set()
    monkeypatch.setattr(mpmath, "exp", lambda *a, **k: exps.append(1) or exp(*a, **k))
    monkeypatch.setattr(modfun, "siegel_fixed", lambda u1, u2, d, tau, p: points.add((tau.re, tau.im)) or kernel(u1, u2, d, tau, p))
    modfun._point.cache_clear()
    try:
        linear, quadratic, _, bits = _real_factors(_siegel_plan(G.reps, ctx, 5), 5, 272, PrecisionPolicy().recognition_tol())
    finally:
        modfun._point.cache_clear()
    assert len(linear) + len(quadratic) == 28 and len(points) == len(bits) == 4
    assert len(exps) <= 2 * len(points)


def _eisenstein_and_wp_values(D, N, digits):
    """g2, g3, Delta, j_eisenstein, and wp, wp' at the N-torsion point
    (tau + 1)/N, at every reduced point tau of discriminant D.  Of the wp
    series, the one in q^n/e(z) decays slowest, as |q|^(n - 1/N) here."""
    prec = working_bits(digits)
    values = []
    for R in enumerate_reduced(D):
        tau = R.omega(digits)
        with mp.workprec(prec):
            z = BigComplex.from_mpc((tau.to_mpc() + 1) / N, prec)
        values += [*modfun.g2_g3_delta(tau, digits), modfun.j_eisenstein(tau, digits)]
        values += modfun.wp(z, tau, digits)
    return values


@pytest.mark.parametrize("D, N", [(-104, 5), (-200, 3)])
@pytest.mark.parametrize("digits", [60, 700])
def test_eisenstein_and_wp_truncation_rule(monkeypatch, D, N, digits):
    # the Eisenstein and Weierstrass series are cut where the geometric tail
    # drops below 2^-working_bits(digits): five more terms move no value by
    # more than 2^-prec relative
    prec = working_bits(digits)
    values = _eisenstein_and_wp_values(D, N, digits)
    nterms = modfun._nterms
    monkeypatch.setattr(modfun, "_nterms", lambda t, d, extra=0: nterms(t, d, extra) + 5)
    more = _eisenstein_and_wp_values(D, N, digits)
    with mp.workprec(prec):
        for a, b in zip(values, more):
            assert abs(a.to_mpc() - b.to_mpc()) <= mpmath.mpf(2) ** -prec * abs(b.to_mpc())


# -- eta ----------------------------------------------------------------------


def test_eta_at_i_gamma_oracle():
    e = modfun.eta(BigComplex(0, 1, PREC), DIGITS)
    with mp.workprec(PREC):
        ref = mpmath.gamma(mpmath.mpf(1) / 4) / (2 * mpmath.pi ** (mpmath.mpf(3) / 4))
        assert abs(e.to_mpc() - ref) < tol()


def test_eta_translation_factor():
    rng = random.Random(RNG_SEED)
    for _ in range(3):
        tau = rand_tau(rng)
        with mp.workprec(PREC):
            lhs = modfun.eta(BigComplex.from_mpc(tau.to_mpc() + 1, PREC), DIGITS).to_mpc()
            rhs = mpmath.exp(1j * mpmath.pi / 12) * modfun.eta(tau, DIGITS).to_mpc()
            assert abs(lhs - rhs) < tol()


def test_eta_at_2i_doubled_precision_oracle():
    e = modfun.eta(BigComplex(0, 2, PREC), DIGITS)
    e2 = modfun.eta(BigComplex(0, 2, working_bits(2 * DIGITS)), 2 * DIGITS)
    with mp.workprec(PREC):
        assert abs(e.to_mpc() - e2.to_mpc()) < tol()
        # closed form eta(2i) = eta(i) / 2^(3/8)
        ei = modfun.eta(BigComplex(0, 1, PREC), DIGITS).to_mpc()
        assert abs(e.to_mpc() - ei / mpmath.mpf(2) ** Fraction(3, 8)) < tol()


def test_eta_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        modfun.eta(BigComplex(0, -1, PREC), DIGITS)


# -- Delta and j --------------------------------------------------------------


def test_j_special_values():
    _, j_i = modfun.delta_j(BigComplex(0, 1, PREC), DIGITS)
    with mp.workprec(PREC):
        assert abs(j_i.to_mpc() - 1728) < tol()
        rho = BigComplex(Fraction(-1, 2), mpmath.sqrt(3) / 2, PREC)
    _, j_rho = modfun.delta_j(rho, DIGITS)
    assert abs(j_rho.to_mpc()) < tol()


def test_j_at_order_point_real_and_stable(ctx200):
    tau = ctx200.tau(DIGITS)
    _, j1 = modfun.delta_j(tau, DIGITS)
    _, j2 = modfun.delta_j(ctx200.tau(2 * DIGITS), 2 * DIGITS)
    with mp.workprec(PREC):
        assert j1.re > 0
        assert abs(j1.im) < tol()
        assert abs(j1.to_mpc() - j2.to_mpc()) / abs(j2.to_mpc()) < tol()


def test_classical_class_polynomial_has_integer_coefficients(ctx200):
    # prod over reduced forms of (x - j(omega_Q)) must be an integer polynomial
    from classfield.numerics import recognize_integer

    js = []
    for Q in enumerate_reduced(-200):
        _, j = modfun.delta_j(Q.omega(DIGITS), DIGITS)
        js.append(j)
    with mp.workprec(PREC):
        coeffs = [mpmath.mpc(1)]
        for j in js:
            new = [mpmath.mpc(0)] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                new[k] -= c * j.to_mpc()
                new[k + 1] += c
            coeffs = new
        for c in coeffs:
            assert recognize_integer(BigComplex.from_mpc(c, PREC), 1e-20) is not None


def test_delta_eta_vs_eisenstein():
    rng = random.Random(RNG_SEED)
    tau = rand_tau(rng)
    d1, _ = modfun.delta_j(tau, DIGITS)
    g2, g3, d2 = modfun.g2_g3_delta(tau, DIGITS)
    with mp.workprec(PREC):
        assert abs(d1.to_mpc() - d2.to_mpc()) / abs(d2.to_mpc()) < tol()


def test_modularity_smoke():
    rng = random.Random(RNG_SEED + 1)
    S = (0, -1, 1, 0)
    with mp.workprec(PREC):
        for _ in range(5):
            tau = rand_tau(rng)
            _, j0 = modfun.delta_j(tau, DIGITS)
            _, jT = modfun.delta_j(BigComplex.from_mpc(tau.to_mpc() + 1, PREC), DIGITS)
            _, jS = modfun.delta_j(moebius(S, tau), DIGITS)
            scale = max(1, abs(j0.to_mpc()))
            assert abs(j0.to_mpc() - jT.to_mpc()) / scale < tol()
            assert abs(j0.to_mpc() - jS.to_mpc()) / scale < tol()
            d0, _ = modfun.delta_j(tau, DIGITS)
            dS, _ = modfun.delta_j(moebius(S, tau), DIGITS)
            assert abs(dS.to_mpc() - tau.to_mpc() ** 12 * d0.to_mpc()) / abs(dS.to_mpc()) < tol()


# -- Siegel -------------------------------------------------------------------


def test_siegel_j_relation_random_points():
    rng = random.Random(RNG_SEED + 2)
    half = (0, 1, 2)
    with mp.workprec(PREC):
        for _ in range(5):
            tau = rand_tau(rng)
            x = modfun.siegel(half, tau, DIGITS).to_mpc() ** 12
            _, j = modfun.delta_j(tau, DIGITS)
            je = modfun.j_eisenstein(tau, DIGITS)
            assert abs((x + 16) ** 3 / x - je.to_mpc()) / abs(je.to_mpc()) < tol(5)
            assert abs(j.to_mpc() - je.to_mpc()) / abs(je.to_mpc()) < tol(5)


def test_siegel_negation_antisymmetry():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(4):
        tau = rand_tau(rng)
        u1, u2 = 2 * rng.randint(0, 2), rng.randint(1, 5)
        v, mv = (u1, u2, 6), (-u1, -u2, 6)
        with mp.workprec(PREC):
            assert abs(modfun.siegel(v, tau, DIGITS).to_mpc() + modfun.siegel(mv, tau, DIGITS).to_mpc()) < tol()


def test_siegel_lower_bound_nonprincipal_forms():
    # |g_[0,1/2](omega_Q)| > 1.98 exp(-pi sqrt(|D|)/24) off the principal class
    half = (0, 1, 2)
    with mp.workprec(PREC):
        bound = mpmath.mpf("1.98") * mpmath.exp(-mpmath.pi * mpmath.sqrt(200) / 24)
        for Q in enumerate_reduced(-200)[1:]:
            g = modfun.siegel(half, Q.omega(DIGITS), DIGITS)
            assert abs(g.to_mpc()) > bound


def test_fricke_index_validation(ctx200):
    # an index (u1, u2, d) with d | u1 and d | u2 is integral, and every
    # evaluator rejects it, as it does a level below 1
    tau = ctx200.tau(DIGITS)
    for index in [(1, 2, 1), (3, 6, 3), (-4, 8, 4), (0, 0, 7), (1, 1, 0), (1, 1, -2)]:
        with pytest.raises(DomainError):
            modfun.siegel(index, tau, DIGITS)
        with pytest.raises(DomainError):
            modfun.fricke(index, tau, DIGITS)
        with pytest.raises(DomainError):
            modfun.torsion_xy(ctx200, index, DIGITS)
    # a row names its index at the index's level
    assert modfun._row((3, 2, 6)) == (3, 2, 6)
    assert modfun._row((2, 4, 6)) == (1, 2, 3)
    assert modfun._row((-6, 4, 8)) == (-3, 2, 4)



def test_index_is_an_integer_row_everywhere_in_the_package():
    # one index representation: no module of the package names FrickeIndex,
    # and modfun and invariants, which evaluate and move indices, do no
    # Fraction arithmetic
    naming, importing = set(), set()
    for path in Path(classfield.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                getattr(node, "id", None),
                getattr(node, "attr", None),
                getattr(node, "name", None),
                getattr(node, "value", None) if isinstance(node, ast.Constant) else None,
            )
            if "FrickeIndex" in names:
                naming.add(path.name)
            if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
                importing.add(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "fractions":
                importing.add(path.name)
    assert naming == set()
    assert importing.isdisjoint({"modfun.py", "invariants.py"})

@st.composite
def index_rows(draw):
    """(u1, u2, d) for d in 2..12: rows with negative entries, entries past
    d, and rows that are not reduced or not primitive, like (2, 4, 6)."""
    d = draw(st.integers(2, 12))
    u1 = draw(st.integers(-3 * d, 3 * d))
    u2 = draw(st.integers(-3 * d, 3 * d))
    assume(u1 % d or u2 % d)
    return u1, u2, d


@settings(max_examples=60, deadline=None)
@given(index_rows(), series_points(), st.sampled_from([10, 30]), st.sampled_from([-20, -71, -200]))
def test_row_index_matches_the_fraction_reference(row, xy, digits, D):
    # siegel, fricke and torsion_xy on the integer row give the same bits as
    # the Fraction-backed index at (u1/d, u2/d), and siegel runs the kernel at
    # the index's level, with the same arguments as the reference
    u1, u2, d = row
    v = FrickeIndex.of(Fraction(u1, d), Fraction(u2, d))
    ctx = OrderContext.from_disc(D)
    tau = BigComplex(*xy, working_bits(digits))
    kernel, calls = modfun.siegel_fixed, []
    with mock.patch.object(modfun, "siegel_fixed", lambda *args: calls.append(args[:3]) or kernel(*args)):
        siegel = modfun.siegel(row, tau, digits), fricke_reference.siegel(v, tau, digits)
    assert calls[0] == calls[1] == v.row
    pairs = [
        siegel,
        (modfun.fricke(row, tau, digits), fricke_reference.fricke(v, tau, digits)),
        *zip(modfun.torsion_xy(ctx, row, digits), fricke_reference.torsion_xy(ctx, v, digits)),
    ]
    for got, ref in pairs:
        assert (got.re, got.im, got.prec) == (ref.re, ref.im, ref.prec)


# -- theta --------------------------------------------------------------------


def test_theta1_zero_and_odd():
    rng = random.Random(RNG_SEED + 4)
    z = rand_tau(rng)
    with mp.workprec(PREC):
        assert abs(theta1(BigComplex(0, 0, PREC), z, DIGITS).to_mpc()) < tol()
        w = BigComplex(Fraction(2, 7), Fraction(1, 9), PREC)
        mw = BigComplex(Fraction(-2, 7), Fraction(-1, 9), PREC)
        lhs = theta1(mw, z, DIGITS).to_mpc()
        rhs = -theta1(w, z, DIGITS).to_mpc()
        assert abs(lhs - rhs) < tol()


def test_theta1_matches_siegel_magnitude(ctx200):
    # |theta1(a'/N, -conj omega)/eta| = |g_[0, a'/N](-conj omega)| (real shift)
    from classfield.quadforms import Form

    Q = Form(17, 2, 3)
    z = Form(Q.a, -Q.b, Q.c).omega(DIGITS)
    with mp.workprec(PREC):
        for ap in (1, 2):
            th = theta1(BigComplex(Fraction(ap, 3), 0, PREC), z, DIGITS).to_mpc()
            e = modfun.eta(z, DIGITS).to_mpc()
            g = modfun.siegel((0, ap, 3), z, DIGITS).to_mpc()
            assert abs(abs(th / e) - abs(g)) < tol()


# -- Weierstrass --------------------------------------------------------------


def test_wp_parity_and_periodicity():
    rng = random.Random(RNG_SEED + 5)
    tau = rand_tau(rng)
    with mp.workprec(PREC):
        z = BigComplex.from_mpc(Fraction(2, 7) * tau.to_mpc() + Fraction(1, 5), PREC)
        mz = BigComplex.from_mpc(-z.to_mpc(), PREC)
        z1 = BigComplex.from_mpc(z.to_mpc() + 1, PREC)
    p, dp = modfun.wp(z, tau, DIGITS)
    pm, dpm = modfun.wp(mz, tau, DIGITS)
    p1, _ = modfun.wp(z1, tau, DIGITS)
    with mp.workprec(PREC):
        assert abs(p.to_mpc() - pm.to_mpc()) / abs(p.to_mpc()) < tol()
        assert abs(dp.to_mpc() + dpm.to_mpc()) / abs(dp.to_mpc()) < tol()
        assert abs(p.to_mpc() - p1.to_mpc()) / abs(p.to_mpc()) < tol()


def test_wp_two_torsion_zeros():
    rng = random.Random(RNG_SEED + 6)
    tau = rand_tau(rng)
    with mp.workprec(PREC):
        halves = [
            BigComplex.from_mpc(tau.to_mpc() / 2, PREC),
            BigComplex(Fraction(1, 2), 0, PREC),
            BigComplex.from_mpc((tau.to_mpc() + 1) / 2, PREC),
        ]
    for h in halves:
        _, dp = modfun.wp(h, tau, DIGITS)
        assert abs(dp.to_mpc()) < tol()


def test_wp_satisfies_cubic():
    rng = random.Random(RNG_SEED + 7)
    tau = rand_tau(rng)
    g2, g3, _ = modfun.g2_g3_delta(tau, DIGITS)
    with mp.workprec(PREC):
        z = BigComplex.from_mpc(Fraction(1, 7) * tau.to_mpc() + Fraction(2, 5), PREC)
    p, dp = modfun.wp(z, tau, DIGITS)
    with mp.workprec(PREC):
        res = dp.to_mpc() ** 2 - (4 * p.to_mpc() ** 3 - g2.to_mpc() * p.to_mpc() - g3.to_mpc())
        assert abs(res) / abs(dp.to_mpc() ** 2) < tol()


def wp_lattice_sum(z, tau, radius=40):
    """Slowly convergent lattice-sum evaluation of wp; desk oracle for tests."""
    prec = bits_for_digits(25)
    with mp.workprec(prec):
        z_ = z.to_mpc()
        t_ = tau.to_mpc()
        total = 1 / z_**2
        for m in range(-radius, radius + 1):
            for n in range(-radius, radius + 1):
                if m == 0 and n == 0:
                    continue
                w = m * t_ + n
                total += 1 / (z_ - w) ** 2 - 1 / w**2
    return BigComplex.from_mpc(total, prec)


def test_wp_desk_oracle_lattice_sum(ctx200):
    tau = ctx200.tau(DIGITS)
    with mp.workprec(PREC):
        z = BigComplex.from_mpc(Fraction(1, 7) * tau.to_mpc() + Fraction(2, 5), PREC)
    p, _ = modfun.wp(z, tau, DIGITS)
    p2 = wp_lattice_sum(z, tau, radius=60)
    with mp.workprec(PREC):
        assert abs(p.to_mpc() - p2.to_mpc()) < 1e-5


def test_wp_pole():
    tau = BigComplex(0, 1, PREC)
    with pytest.raises(DomainError):
        modfun.wp(BigComplex(3, 0, PREC), tau, DIGITS)


# -- Fricke family ------------------------------------------------------------


def test_fricke_even_in_index():
    rng = random.Random(RNG_SEED + 8)
    tau = rand_tau(rng)
    v, mv = (1, 2, 3), (-1, -2, 3)
    with mp.workprec(PREC):
        assert abs(modfun.fricke(v, tau, DIGITS).to_mpc() - modfun.fricke(mv, tau, DIGITS).to_mpc()) < tol()


def test_family_index_action_modular():
    # h_v(gamma tau) = h_{v gamma}(tau) for gamma = S, T, ST
    rng = random.Random(RNG_SEED + 9)
    gammas = [(0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 1, 0)]  # S, T, S*T-ish in SL2
    with mp.workprec(PREC):
        for g in gammas:
            tau = rand_tau(rng)
            v = FrickeIndex.of(Fraction(rng.randint(0, 4), 5), Fraction(rng.randint(1, 4), 5))
            lhs = modfun.fricke(v.row, moebius(g, tau), DIGITS).to_mpc()
            rhs = modfun.fricke(v.act(g).row, tau, DIGITS).to_mpc()
            assert abs(lhs - rhs) / max(1, abs(rhs)) < tol(5)
            N = 5
            lhs = modfun.siegel(v.normalized().row, moebius(g, tau), DIGITS).to_mpc() ** (12 * N)
            rhs = modfun.siegel(v.act(g).normalized().row, tau, DIGITS).to_mpc() ** (12 * N)
            assert abs(lhs - rhs) / max(1, abs(rhs)) < tol(5)


def test_fricke_conjugation_rule(ctx200):
    tau0 = ctx200.tau(DIGITS)
    rng = random.Random(RNG_SEED + 10)
    with mp.workprec(PREC):
        for _ in range(3):
            v = FrickeIndex.of(Fraction(rng.randint(0, 2), 3), Fraction(rng.randint(1, 2), 3))
            lhs = modfun.fricke(v.row, tau0, DIGITS).to_mpc().conjugate()
            rhs = modfun.fricke(v.act((1, ctx200.b0, 0, -1)).row, tau0, DIGITS).to_mpc()
            assert abs(lhs - rhs) / max(1, abs(rhs)) < tol()


# -- elliptic model -----------------------------------------------------------


def test_elliptic_model_ab_product(ctx200):
    model = modfun.elliptic_model(ctx200, DIGITS)
    _, j = modfun.delta_j(ctx200.tau(DIGITS), DIGITS)
    with mp.workprec(PREC):
        jj = j.to_mpc()
        lhs = model.A.to_mpc() * model.B.to_mpc()
        rhs = jj**2 * (jj - 1728) ** 3 / (2**30 * 3**24)
        assert abs(lhs - rhs) / abs(rhs) < tol()


def test_elliptic_model_rejects_small_disc():
    with pytest.raises(DomainError):
        modfun.elliptic_model(OrderContext.from_disc(-3), DIGITS)


def test_torsion_y_vanishes_at_two_torsion(ctx200):
    _, Y = modfun.torsion_xy(ctx200, (0, 1, 2), DIGITS)
    assert abs(Y.to_mpc()) < tol()


def test_torsion_x_is_real(ctx200):
    for N in (3, 5):
        X, _ = modfun.torsion_xy(ctx200, (0, 1, N), DIGITS)
        with mp.workprec(PREC):
            assert abs(X.im) / abs(X.to_mpc()) < tol(5)


def test_torsion_weierstrass_relation(ctx200):
    model = modfun.elliptic_model(ctx200, DIGITS)
    X, Y = modfun.torsion_xy(ctx200, (1, 2, 3), DIGITS)
    with mp.workprec(PREC):
        res = Y.to_mpc() ** 2 - (
            4 * X.to_mpc() ** 3 - model.A.to_mpc() * X.to_mpc() - model.B.to_mpc()
        )
        assert abs(res) / abs(Y.to_mpc() ** 2) < tol(5)


def test_torsion_y_ratio_siegel_identity(ctx200):
    tau0 = ctx200.tau(DIGITS)
    u, v = (0, 1, 3), (1, 0, 3)
    _, Yu = modfun.torsion_xy(ctx200, u, DIGITS)
    _, Yv = modfun.torsion_xy(ctx200, v, DIGITS)
    with mp.workprec(PREC):
        gu = modfun.siegel(u, tau0, DIGITS).to_mpc()
        gv = modfun.siegel(v, tau0, DIGITS).to_mpc()
        g2u = modfun.siegel((0, 2, 3), tau0, DIGITS).to_mpc()
        g2v = modfun.siegel((2, 0, 3), tau0, DIGITS).to_mpc()
        lhs = Yv.to_mpc() / Yu.to_mpc()
        rhs = g2v * gu**4 / (gv**4 * g2u)
        assert abs(lhs - rhs) / abs(rhs) < tol(5)


def test_doubling_precision_stability(ctx200):
    v = (0, 1, 3)
    tau0 = ctx200.tau(DIGITS)
    tau0b = ctx200.tau(2 * DIGITS)
    a = modfun.siegel(v, tau0, DIGITS)
    b = modfun.siegel(v, tau0b, 2 * DIGITS)
    with mp.workprec(b.prec):
        assert abs(a.to_mpc() - b.to_mpc()) / abs(b.to_mpc()) < tol()
