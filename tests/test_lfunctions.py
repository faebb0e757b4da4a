from fractions import Fraction
from math import gcd, isqrt
from random import Random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import fourier_reference
from classfield import modfun, orderideals
from kronecker_reference import kronecker_xi
from classfield.lfunctions import (
    ZetaPartial,
    _character_sums,
    _class_sums,
    _roots_of_unity,
    fourier_inversion_residual,
    gamma_ON,
    lderiv0_all,
    zeta_ideal_partial_all,
    zeta_lattice_partial,
)
from classfield.numerics import BigComplex, DomainError, bits_for_digits, working_bits
from classfield.orderideals import _class_bases, integral_ideals, omega_ideal, ray_label
from classfield.quadforms import (
    SL2,
    Form,
    OrderContext,
    class_enumerate,
    enumerate_reduced,
    group_structure_from_table,
    make_coprime,
)
from test_orderideals import counting_ray_label, is_prime_power_or_one
from test_quadforms import RNG_SEED, shuffled_product_tables

DIGITS = 50
PREC = working_bits(DIGITS)


def tol(drop=10):
    return mpmath.mpf(10) ** (-(DIGITS - drop))


def test_gamma_on(ctx200):
    assert gamma_ON(ctx200, 3) == 1
    assert gamma_ON(ctx200, 1) == 2
    assert gamma_ON(ctx200, 2) == 2


def ray_label_of(ctx, Q, N, bases):
    """The ray label of [[omega_Q, 1]], the key of zeta_ideal_partial_all;
    bases is _class_bases(ctx, N), built once by the caller."""
    return ray_label(ctx, omega_ideal(ctx, Q, N), N, bases)


def test_zeta_partial_agreement_single_class(ctx200):
    s = BigComplex(2, 0, PREC)
    Q = Form(2, 0, 25)
    zi = zeta_ideal_partial_all(ctx200, 3, s, 2000)[ray_label_of(ctx200, Q, 3, _class_bases(ctx200, 3))]
    zl = zeta_lattice_partial(Q, ctx200, 3, s, 120)
    with mp.workprec(PREC):
        diff = abs(zi.value.to_mpc() - zl.value.to_mpc())
    assert diff < 4 * (zi.tail_bound + zl.tail_bound)


def test_zeta_empty_truncation(ctx200):
    s = BigComplex(2, 0, PREC)
    assert zeta_ideal_partial_all(ctx200, 3, s, 0) == {}


def reference_ideal_sums(ctx, N, s, bound, digits):
    """The ideal route with one n^-s per ideal: label -> (sum, ideal count)."""
    bases = _class_bases(ctx, N)
    out = {}
    with mp.workprec(working_bits(digits)):
        s_ = s.to_mpc()
        for n, L in integral_ideals(ctx, bound, coprime_to=N):
            lab = ray_label(ctx, L, N, bases)
            total, terms = out.get(lab, (0, 0))
            out[lab] = (total + mpmath.exp(-s_ * mpmath.log(n)), terms + 1)
    return out


@pytest.mark.parametrize(
    "D, N, s",
    [
        (-200, 3, (2, 0)),
        (-71, 5, (3, 0)),
        (-56, 2, (Fraction(3, 2), 2)),
        (-200, 3, (Fraction(5, 2), 0)),
        (-116, 5, (2, Fraction(1, 2))),
    ],
)
def test_zeta_ideal_grouped_by_norm_matches_per_ideal_sum(D, N, s):
    # n^-s as a fixed-point product of cached p^-s, once per distinct norm
    # and times its count, against one exp-log per ideal
    digits, bound = 30, 1000
    ctx = OrderContext.from_disc(D)
    s = BigComplex(*s, working_bits(digits))
    got = zeta_ideal_partial_all(ctx, N, s, bound, digits)
    ref = reference_ideal_sums(ctx, N, s, bound, digits)
    assert got.keys() == ref.keys()
    with mp.workprec(s.prec):
        for lab, (total, terms) in ref.items():
            assert got[lab].terms == terms
            assert abs(got[lab].value.to_mpc() - total) <= abs(total) * mpmath.mpf(10) ** -(digits + 20)
    # the docstring's bound |value - S| <= 2^-prec (|S| + 2 B^-Re(s)), against
    # S summed 66 bits finer; each of its terms has modulus < 1
    prec = working_bits(digits)
    fine = reference_ideal_sums(ctx, N, s, bound, digits + 20)
    with mp.workprec(2 * prec):
        for lab, (total, terms) in fine.items():
            allowed = (abs(total) + 2 * mpmath.mpf(bound) ** -s.re) / 2**prec
            allowed += terms * mpmath.mpf(2) ** -(prec + 60)
            assert abs(got[lab].value.to_mpc() - total) <= allowed


def test_zeta_ideal_route_counts(monkeypatch):
    # on (-200, 3) up to norm 2000: ray_label labels O and each primitive
    # ideal of prime-power norm once, plus at most one base product per pair
    # of reduced forms; mpmath.log runs once per prime dividing a norm; one
    # least-prime-factor table serves the stream and the power product
    ctx, N, bound = OrderContext.from_disc(-200), 3, 2000
    stream = list(integral_ideals(ctx, bound, coprime_to=N))
    prime_power = [L for _, L in stream if L.g == 1 and is_prime_power_or_one(L.m)]
    divisors = {p for n in {n for n, _ in stream} for p in range(2, n + 1) if n % p == 0}
    primes = {p for p in divisors if all(p % q for q in range(2, isqrt(p) + 1))}
    orderideals._factor_table.cache_clear()
    stream_calls, product_calls, logs = [], [], []
    counting_ray_label(monkeypatch, stream_calls, product_calls)
    log = mpmath.log
    monkeypatch.setattr(mpmath, "log", lambda x: logs.append(x) or log(x))
    out = zeta_ideal_partial_all(ctx, N, BigComplex(2, 0, PREC), bound)
    monkeypatch.undo()
    h = len(enumerate_reduced(ctx.disc))
    assert sum(z.terms for z in out.values()) == len(stream)
    assert sorted(stream_calls) == sorted(prime_power) and len(prime_power) < len(stream) / 3
    assert len(product_calls) <= h * (h + 1) // 2
    assert sorted(logs) == sorted(primes)
    assert orderideals._factor_table.cache_info().misses == 1


def test_zeta_monotone_in_bound(ctx200):
    s = BigComplex(2, 0, PREC)
    lab = ray_label_of(ctx200, Form(2, 0, 25), 3, _class_bases(ctx200, 3))
    vals = [zeta_ideal_partial_all(ctx200, 3, s, B)[lab].value.re for B in (50, 200, 800)]
    assert vals[0] < vals[1] < vals[2]


def test_zeta_requires_res_gt_one(ctx200):
    with pytest.raises(DomainError):
        zeta_lattice_partial(Form(2, 0, 25), ctx200, 3, BigComplex(1, 0, PREC), 10)


def reference_box_sum(
    Q: Form, ctx, N: int, s: BigComplex, M: int, digits: int = 30
) -> ZetaPartial:
    """The lattice sum of zeta_lattice_partial over the box max(|m|, |n|) <= M.

    Terms are accumulated in decreasing magnitude; the tail bound is the
    integral estimate for the square cutoff, valid for M >= 4.
    """
    if gcd(Q.a, N) != 1:
        raise DomainError("form must be coprime to the level")
    a = Q.a
    a_inv = pow(a, -1, N) if N > 1 else 1
    gamma = gamma_ON(ctx, N)
    prec = working_bits(digits)
    w = Q.point(digits)
    with mp.workprec(prec):
        wx, wy = w.re, w.im
        shift = mpmath.mpf(a_inv) / N
        sr = float(s.re)
        s_int = int(s.re) if (s.im == 0 and s.re == int(s.re)) else None
        s_ = s.to_mpc()
        one = mpmath.mpf(1)
        # |mw + n + shift|^2 per term, row-incrementally; ranked largest first
        terms = []
        for m in range(-M, M + 1):
            row_re = m * wx + shift - (M + 1)
            my2 = (m * wy) ** 2
            for n in range(-M, M + 1):
                row_re += 1
                if N == 1 and m == 0 and n == -a_inv:
                    continue
                z2 = row_re * row_re + my2
                terms.append((float(z2), z2))
        terms.sort(key=lambda t: t[0])
        total = mpmath.mpc(0)
        if s_int is not None:
            for _, z2 in terms:
                total += one / z2**s_int
        else:
            for _, z2 in terms:
                total += mpmath.exp(-s_ * mpmath.log(z2))
        pref = mpmath.exp(-s_ * mpmath.log(mpmath.mpf(N * N * a))) / gamma
        total *= pref
        # |m w + n + shift| >= kappa * max(|m|, |n|) on rings beyond the box
        kappa = min(float(wy) / (2 * (abs(float(wx)) + 1)), 0.25)
        tail = 8 * kappa ** (-2 * sr) * M ** (2 - 2 * sr) / (2 * sr - 2)
        tail *= abs(float((N * N * a) ** (-sr))) / gamma
    return ZetaPartial(BigComplex.from_mpc(total, prec), len(terms), float(tail))


def test_zeta_lattice_term_count(ctx200):
    s = BigComplex(2, 0, PREC)
    # level 1: the excluded shifted-origin term sits inside the box
    z = reference_box_sum(Form(2, 0, 25), ctx200, 1, s, 15)
    assert z.terms == 31 * 31 - 1
    z = reference_box_sum(Form(2, 0, 25), ctx200, 3, s, 15)
    assert z.terms == 31 * 31


def test_zeta_lattice_level_one_is_epstein(ctx200):
    # N = 1 reduces to the plain Epstein sum over the shifted-by-integer lattice
    s = BigComplex(2, 0, PREC)
    Q = ctx200.principal_form()
    z = reference_box_sum(Q, ctx200, 1, s, 40)
    w = Q.point(DIGITS)
    with mp.workprec(PREC):
        direct = mpmath.mpc(0)
        for m in range(-40, 41):
            for n in range(-40, 41):
                if (m, n) == (0, -1):
                    continue
                direct += abs(m * w.to_mpc() + n + 1) ** -4
        direct /= gamma_ON(ctx200, 1)
        assert abs(direct - z.value.to_mpc()) < tol()


T1, S = SL2(1, 1, 0, 1), SL2(0, -1, 1, 0)
BOX_M = 8  # the reference box tail holds from M = 4 on


@settings(max_examples=30, deadline=None)
@given(
    D=st.sampled_from([-3, -4, -15, -20, -56, -200]),
    N=st.integers(1, 12),
    s=st.sampled_from([(2, 0), (3, 0), (Fraction(5, 2), 0), (2, 1)]),
    which=st.integers(0, 63),
    word=st.lists(st.sampled_from([T1, T1.inv(), S]), max_size=8),
    small_M=st.integers(0, 3),
)
def test_zeta_lattice_matches_box_sum(D, N, s, which, word, small_M):
    # reduced forms, and forms moved off the reduced domain by an SL2 word
    digits = 10
    Q = enumerate_reduced(D)[which % len(enumerate_reduced(D))]
    for g in word:
        Q = Q.apply(g)
    _, Q = make_coprime(Q, N)
    ctx = OrderContext.from_disc(D)
    s = BigComplex(*s, working_bits(digits))
    box = reference_box_sum(Q, ctx, N, s, BOX_M, digits)
    new = zeta_lattice_partial(Q, ctx, N, s, 80, digits)
    cut = zeta_lattice_partial(Q, ctx, N, s, small_M, digits)
    with mp.workprec(new.value.prec):
        b, v = box.value.to_mpc(), new.value.to_mpc()
        if s.im == 0:
            # every term is positive: the box sum is a partial sum
            assert b.real <= v.real <= b.real + box.tail_bound
        assert abs(v - b) <= box.tail_bound + new.tail_bound
        assert abs(cut.value.to_mpc() - v) <= cut.tail_bound


def test_zeta_lattice_unreduced_rep_needs_no_extra_terms(ctx200):
    # the reduction moves (50, 0, 1) to (1, 0, 50) before any Bessel term
    s = BigComplex(2, 0, PREC)
    assert zeta_lattice_partial(Form(50, 0, 1), ctx200, 3, s, 80).terms < 50


def test_zeta_ideal_tail_against_closed_form():
    # the ideal route's tail is an estimate; this is where it was measured
    s = BigComplex(2, 0, PREC)
    for D in (-20, -56, -71, -116, -200):
        ctx = OrderContext.from_disc(D)
        for N in (1, 2, 3, 5):
            # at B = 2000 the worst ratio was 0.60
            table = zeta_ideal_partial_all(ctx, N, s, 2000)
            bases = _class_bases(ctx, N)
            for Q in class_enumerate(ctx, N).reps:
                zi = table[ray_label_of(ctx, Q, N, bases)]
                zl = zeta_lattice_partial(Q, ctx, N, s, 80)
                with mp.workprec(PREC):
                    assert abs(zi.value.to_mpc() - zl.value.to_mpc()) <= zi.tail_bound, (D, N, Q)


def test_lderiv_fourier_inversion(ctx200, G200, logs200):
    vals = lderiv0_all(G200, ctx200, 60, logs200)
    prec = bits_for_digits(90)
    residual = fourier_inversion_residual(G200, ctx200, vals, logs200, prec)
    with mp.workprec(prec):
        assert residual < mpmath.mpf(10) ** -45


def assert_walk_transforms_match_n2_sums(walk, characters, e, rng, prec=100):
    """Both transforms along the walk against the term-by-term sums, on
    random real inputs forward and random complex ones transposed."""
    n = len(characters)
    with mp.workprec(prec):
        xs = [mpmath.mpf(rng.uniform(-1, 1)) for _ in range(n)]
        ys = [mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        # each sum has n terms of modulus at most sqrt(2)
        bound = 2 * n * mpmath.mpf(2) ** (20 - prec)
        pairs = [
            (_character_sums(walk, e, xs, prec), fourier_reference.character_sums(characters, e, xs, prec)),
            (_class_sums(walk, e, ys, prec), fourier_reference.class_sums(characters, e, ys, prec)),
        ]
        for got, want in pairs:
            assert len(got) == n
            assert max(abs(a - b) for a, b in zip(got, want)) < bound


@settings(max_examples=60, deadline=None)
@given(shuffled_product_tables(), st.randoms(use_true_random=False))
def test_walk_transforms_match_n2_sums_on_shuffled_product_tables(case, rng):
    _, _, table = case
    factors, characters, walk = group_structure_from_table(table)
    assert_walk_transforms_match_n2_sums(walk, characters, max(factors, default=1), rng)


def test_walk_transforms_with_a_stage_of_three_primes():
    # (-4000, 7) is Z2 x Z6 x Z30; its first stage is a 30-point DFT over 2, 3 and 5
    G = class_enumerate(OrderContext.from_disc(-4000), 7)
    assert [m for m, _ in G._walk.stages] == [30, 6, 2]
    assert_walk_transforms_match_n2_sums(G._walk, G.characters, G.exponent, Random(RNG_SEED), prec=64)


def test_lderiv_trivial_character_vanishes(ctx200, G200, logs200):
    # sum of ln|g(C)| equals ln|constant term| = ln 1 = 0
    triv = G200.characters[0]
    assert triv == [0] * G200.order
    val = lderiv0_all(G200, ctx200, 60, logs200)[0]
    with mp.workprec(bits_for_digits(90)):
        assert abs(val.to_mpc()) < mpmath.mpf(10) ** -45
        assert abs(sum(logs200, mpmath.mpf(0))) < mpmath.mpf(10) ** -45


def test_lderiv_real_for_real_characters(ctx200, G200, logs200):
    # chi is real when chi = conj chi, that is 2v = 0 mod e; Z2 x Z6 has four
    e = G200.exponent
    vals = lderiv0_all(G200, ctx200, 60, logs200)
    real = [k for k, chi in enumerate(G200.characters) if all(2 * v % e == 0 for v in chi)]
    assert len(real) == 4
    for k in real:
        v = vals[k]
        with mp.workprec(v.prec):
            assert abs(v.im) < mpmath.mpf(10) ** -45


def test_lderiv_conjugation_equivariance(ctx200, G200, logs200):
    e = G200.exponent
    vals = lderiv0_all(G200, ctx200, 60, logs200)
    with mp.workprec(bits_for_digits(90)):
        for k, chi in enumerate(G200.characters):
            conj = [(-v) % e for v in chi]
            assert conj in G200.characters
            a = vals[k].to_mpc()
            b = vals[G200.characters.index(conj)].to_mpc()
            assert abs(a.conjugate() - b) < mpmath.mpf(10) ** -45


def test_kronecker_xi_lattice_branch():
    z = BigComplex(Fraction(1, 4), Fraction(5, 4), PREC)
    xi0, xi1 = kronecker_xi(True, BigComplex(1, 0, PREC), z, DIGITS)
    e = modfun.eta(z, DIGITS)
    with mp.workprec(PREC):
        assert xi0.to_mpc() == -1
        ref = -mpmath.log(abs(4 * mpmath.pi**2 * e.to_mpc() ** 4))
        assert abs(xi1.to_mpc() - ref) < tol()


def test_kronecker_xi_outside_rejects_lattice_point():
    z = BigComplex(Fraction(1, 4), Fraction(5, 4), PREC)
    with pytest.raises(DomainError):
        kronecker_xi(False, BigComplex(1, 0, PREC), z, DIGITS)


def test_kronecker_xi_evenness():
    z = BigComplex(Fraction(1, 7), Fraction(9, 8), PREC)
    w = BigComplex(Fraction(2, 5), Fraction(1, 3), PREC)
    _, a = kronecker_xi(False, w, z, DIGITS)
    _, b = kronecker_xi(False, BigComplex(Fraction(-2, 5), Fraction(-1, 3), PREC), z, DIGITS)
    with mp.workprec(PREC):
        assert abs(a.to_mpc() - b.to_mpc()) < tol()


def test_kronecker_xi_gives_log_g(ctx200, G200, logs200):
    # 1/gamma * xi'(0, a'/N, -conj omega_Q) = -(1/(6N)) ln|g(C)|
    N = 3
    gamma = gamma_ON(ctx200, N)
    for i, Q in enumerate(G200.reps[:4]):
        ap = pow(Q.a, -1, N)
        z = Q.point(60)
        _, xi1 = kronecker_xi(False, BigComplex(Fraction(ap, N), 0, z.prec), z, 60)
        with mp.workprec(z.prec):
            lhs = xi1.to_mpc() / gamma
            rhs = -logs200[i] / (6 * N)
            assert abs(lhs - rhs) < mpmath.mpf(10) ** -45


def test_character_values_exact(ctx200, G200):
    chi = G200.characters[1]
    e = G200.exponent
    order = e // gcd(e, *chi)
    assert order in (2, 3, 6)
    prec = bits_for_digits(40)
    roots = _roots_of_unity(e, prec)
    with mp.workprec(prec):
        for v in chi:
            assert abs(abs(roots[v]) - 1) < mpmath.mpf(10) ** -35
            assert abs(roots[v] ** order - 1) < mpmath.mpf(10) ** -35
