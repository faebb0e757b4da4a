import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from classfield.numerics import (
    BigComplex,
    DomainError,
    FormatError,
    PrecisionPolicy,
    bits_for_digits,
    complex_with_prec,
    rat_normalize,
    recognize_integer,
)


def test_rat_normalize_sign_and_gcd():
    r = rat_normalize(2, -4)
    assert (r.numerator, r.denominator) == (-1, 2)


def test_rat_normalize_zero():
    r = rat_normalize(0, 7)
    assert (r.numerator, r.denominator) == (0, 1)


def test_rat_normalize_integer_embedding():
    r = rat_normalize(50, 1)
    assert (r.numerator, r.denominator) == (50, 1)


def test_rat_normalize_zero_denominator():
    with pytest.raises(DomainError):
        rat_normalize(1, 0)


def test_rat_field_axioms_randomized():
    rng = random.Random(1729)
    for _ in range(200):
        a, b, c = (
            rat_normalize(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


def test_complex_with_prec_roundtrip():
    x = complex_with_prec("1.5", "0", 50)
    assert x.prec >= bits_for_digits(50)
    with mp.workprec(x.prec):
        assert x.re == mpmath.mpf("1.5") and x.im == 0

    y = complex_with_prec("0", "1", 50)
    assert y.im == 1

    z = complex_with_prec("3.14159", "−2", 100)  # unicode minus accepted
    assert z.im == -2
    # round trip through the decimal printer, within one ulp
    back = complex_with_prec(mpmath.nstr(z.re, 100), mpmath.nstr(z.im, 100), 100)
    with mp.workprec(z.prec):
        assert abs(back.re - z.re) <= mpmath.mpf(10) ** (-98)


def test_complex_with_prec_rejects():
    with pytest.raises(DomainError):
        complex_with_prec("1", "0", 10)
    with pytest.raises(FormatError):
        complex_with_prec("one", "0", 50)


def test_bigcomplex_max_prec_rule():
    a = BigComplex("1.1", 0, 128)
    b = BigComplex("2.2", 0, 512)
    assert (a * b).prec == 512
    assert (b / a).prec == 512


def test_negation_and_conj_keep_precision():
    # regression: unary ops must not round at the ambient (53-bit) context
    w = BigComplex(Fraction(2, 5), Fraction(1, 3), 512)
    with mp.workprec(512):
        assert (w + (-w)).to_mpc() == 0
        assert (w.conj().conj()).to_mpc() == w.to_mpc()


@pytest.mark.parametrize("digits", [60, 700])
@pytest.mark.parametrize("n", [0, 1, 2, 24, 60, -3])
def test_bigcomplex_pow_matches_mpmath(digits, n):
    # repeated squaring against mpmath's power, taken with 64 extra bits
    prec = bits_for_digits(digits)
    z = BigComplex(Fraction(-7, 9), Fraction(5, 11), prec)
    got = z**n
    assert got.prec == prec
    with mp.workprec(prec + 64):
        ref = z.to_mpc() ** n
        assert abs(got.to_mpc() - ref) <= abs(ref) * mpmath.mpf(2) ** (12 - prec)


def test_bigcomplex_immutable():
    a = BigComplex(1, 2, 64)
    with pytest.raises(AttributeError):
        a.re = 0


def test_recognize_integer_cases():
    x = BigComplex("6.9999999999999", "1e-14", 80)  # off by 1e-13, inside tol
    assert recognize_integer(x, 1e-10) == 7
    assert recognize_integer(BigComplex("6.4", 0, 80), 1e-10) is None
    # imaginary dust above tolerance blocks recognition
    assert recognize_integer(BigComplex(7, "1e-4", 80), 1e-10) is None
    with pytest.raises(DomainError):
        recognize_integer(BigComplex(1, 0, 80), 0.5)


def test_precision_policy():
    p = PrecisionPolicy(100)
    assert p.guard_digits == 30 and p.max_escalations == 4
    assert p.working_digits == 130
    assert p.escalate().target_decimal_digits == 200
    with mp.workprec(64):
        assert p.recognition_tol() == mpmath.mpf(10) ** -15
    with pytest.raises(DomainError):
        PrecisionPolicy(0)


def test_double_precision_rerun_agreement():
    # a mixed arithmetic pipeline re-run at doubled precision
    def pipeline(digits):
        p = bits_for_digits(digits)
        x = BigComplex("1.25", "-0.75", p)
        y = BigComplex("0.5", "2", p)
        z = (x * y + x / y) * (y - x)
        for _ in range(20):
            z = z * x / y + y
        return z

    d = 40
    z1 = pipeline(d)
    z2 = pipeline(2 * d)
    with mp.workprec(z2.prec):
        rel = abs(z1.to_mpc() - z2.to_mpc()) / abs(z2.to_mpc())
        assert rel < mpmath.mpf(10) ** (-(d - 5))
