import ast
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import classfield
from classfield import numerics
from classfield.numerics import (
    GUARD_DIGITS,
    MAX_ESCALATIONS,
    BigComplex,
    DomainError,
    FormatError,
    PrecisionPolicy,
    _man_exp,
    bits_for_digits,
    int_power,
    recognize_int,
    recognize_integer,
)


def test_bigcomplex_keeps_its_precision_under_a_lower_ambient_one():
    # conversion in and out must round at the value's precision, not at mp.prec
    with mp.workprec(512):
        z = mpmath.mpc(mpmath.pi, -mpmath.e)
    with mp.workprec(53):
        x = BigComplex.from_mpc(z, 512)
        assert x.prec == 512
        assert x.to_mpc() == z and x.to_mpc() != +z
        text = x.to_decimal(150)
    with mp.workprec(512):
        back = mpmath.mpmathify(text)
        assert abs(back - z) <= abs(z) * mpmath.mpf(10) ** -149


def test_bigcomplex_rejects_malformed_input():
    with pytest.raises(FormatError):
        BigComplex("one", 0, 64)
    with pytest.raises(DomainError):
        BigComplex(1, 0, 32)


def int_parts(z):
    """(x, y, e) with z = (x + iy) 2^e: the parts of a BigComplex as ints
    under their lesser binary exponent, exactly."""
    (x, ex), (y, ey) = _man_exp(z.re), _man_exp(z.im)
    e = min(ex, ey)
    return x << ex - e, y << ey - e, e


def power_mpc(u, v, f):
    """(u + iv) 2^f as an mpc, rounded to the ambient precision."""
    return mpmath.mpc(mpmath.mpf((u, f)), mpmath.mpf((v, f)))


@pytest.mark.parametrize("digits", [60, 700])
@pytest.mark.parametrize("n", [0, 1, 2, 24, 60])
def test_bigcomplex_pow_matches_mpmath(digits, n):
    # int_power on a BigComplex's parts against mpmath's power, taken with
    # 64 extra bits
    prec = bits_for_digits(digits)
    z = BigComplex(Fraction(-7, 9), Fraction(5, 11), prec)
    got = int_power(*int_parts(z), n, prec)
    with mp.workprec(prec + 64):
        ref = z.to_mpc() ** n
        assert abs(power_mpc(*got) - ref) <= abs(ref) * mpmath.mpf(2) ** (12 - prec)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 144),
    scale=st.integers(-3000, 3000),
    parts=st.tuples(st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40)).filter(any),
    prec=st.sampled_from([64, 140, 1011]),
)
def test_bigcomplex_pow_keeps_relative_precision_at_any_modulus(n, scale, parts, prec):
    # the integer mantissa and its binary exponent keep every power within
    # 2^(1 - prec) relative, for moduli from 2^-3000 to 2^3000 and exponents
    # to 144, far outside what a fixed point at 2^-prec could hold
    got = int_power(*parts, scale - 40, n, prec)
    with mp.workprec(4 * prec):
        ref = power_mpc(*parts, scale - 40) ** n
        assert abs(power_mpc(*got) - ref) <= abs(ref) * mpmath.mpf(2) ** (1 - prec)


def test_bigcomplex_pow_of_zero():
    # a zero base gives 0 at every n >= 1, and 1 at n = 0
    for n in (1, 3, 144):
        u, v, _ = int_power(0, 0, -70, n, 64)
        assert u == v == 0
    assert int_power(0, 0, -70, 0, 64) == (1, 0, 0)


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(-(2**200), 2**200),
    y=st.integers(-(2**200), 2**200),
    e=st.integers(-500, 500),
    prec=st.sampled_from([64, 140]),
)
def test_int_power_at_n_0_and_1(x, y, e, prec):
    # n = 0 is exactly 1; n = 1 is the base, exactly when it fits in
    # P = prec + 5 bits, else floored to P bits
    assert int_power(x, y, e, 0, prec) == (1, 0, 0)
    P = prec + 5
    u, v, f = int_power(x, y, e, 1, prec)
    if max(abs(x).bit_length(), abs(y).bit_length()) <= P:
        assert (u, v, f) == (x, y, e)
    else:
        s = f - e
        assert max(abs(u).bit_length(), abs(v).bit_length()) == P
        assert (u, v) == (x >> s, y >> s)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 144),
    width=st.integers(1, 3000),
    parts=st.tuples(st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40)).filter(any),
    prec=st.sampled_from([64, 140, 1011]),
)
def test_int_power_cuts_the_base_and_every_product_to_p_bits(n, width, parts, prec):
    # every product int_power forms is of two ints of at most
    # P = prec + bitlen(n) + 4 bits, however wide the base: the work per
    # step does not grow with the base's width or with n
    P = prec + n.bit_length() + 4
    base = (parts[0] << width, parts[1] << width)
    widths = []
    cut = numerics._cut

    def recording(x, y, e, bits):
        widths.append(max(abs(x).bit_length(), abs(y).bit_length()))
        return cut(x, y, e, bits)

    numerics._cut = recording
    try:
        int_power(*base, 0, n, prec)
    finally:
        numerics._cut = cut
    # the base is cut first, then each cut takes sums of two products of
    # P-bit ints
    assert widths[0] == max(abs(b).bit_length() for b in base)
    assert max(widths[1:]) <= 2 * P + 1


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


def test_recognize_integer_refuses_unresolvable_magnitudes():
    # near 10^80 a 128-bit value's ulp is about 2^138: every such value is its
    # own nearest integer, so recognizing it would say nothing
    assert recognize_integer(BigComplex(10**80 + 3, 0, 128), 1e-10) is None
    assert recognize_integer(BigComplex(-(10**80), 0, 128), 1e-10) is None
    # near 10^20 the same precision resolves far below tol
    assert recognize_integer(BigComplex(10**20 + 3, 0, 128), 1e-10) == 10**20 + 3


def reference_rule(c, e, prec, tol):
    """recognize_integer's rule for x = c 2^e in Fractions: x rounded to prec
    bits with ties to even, None when |x| 2^-prec >= tol, else the nearest
    integer n when |x - n| < tol."""
    x = Fraction(c) * Fraction(2) ** e
    s = abs(c).bit_length() - prec
    if s > 0:
        unit = Fraction(2) ** (e + s)
        x = round(x / unit) * unit  # Fraction rounds half to even
    tol = Fraction(tol)
    if abs(x) * Fraction(2) ** -prec >= tol:
        return None
    n = round(x)
    return n if abs(x - n) < tol else None


@st.composite
def rounding_ties(draw):
    # c = 2m + 1 has prec + 1 bits, a tie between m and m + 1 at prec bits;
    # m u = n is an integer for u = 2^-j, so at tol = u the even neighbour is
    # recognized and the odd one refused
    prec, j = draw(st.integers(64, 160)), draw(st.integers(2, 50))
    n = draw(st.integers(1 << prec - j - 1, (1 << prec - j) - 1))
    sign = draw(st.sampled_from([1, -1]))
    return sign * ((n << j + 1) + 1), -j - 1, prec, 2.0**-j


@st.composite
def guard_edges(draw):
    # |x| 2^-prec = tol + delta 2^(e - prec): just below, at, or just above tol
    prec, k = draw(st.integers(64, 160)), draw(st.integers(2, 50))
    e, delta = draw(st.integers(-3, 3)), draw(st.sampled_from([-1, 0, 1]))
    sign = draw(st.sampled_from([1, -1]))
    return sign * ((1 << prec - k - e) + delta), e, prec, 2.0**-k


@st.composite
def half_ties(draw):
    # x = n + 1/2 exactly: no integer lies within any tol below 1/2
    n = draw(st.integers(-(10**30), 10**30))
    return 2 * n + 1, -1, draw(st.integers(64, 160)), draw(st.sampled_from([2.0**-3, 1e-10, 0.49]))


@st.composite
def anywhere(draw):
    prec = draw(st.integers(64, 160))
    c = draw(st.integers(-(1 << prec + 40), 1 << prec + 40))
    return c, draw(st.integers(-prec - 60, 40)), prec, draw(st.sampled_from([2.0**-3, 1e-10, 2.0**-40, 0.49]))


@settings(max_examples=400, deadline=None)
@given(case=st.one_of(rounding_ties(), guard_edges(), half_ties(), anywhere()))
def test_integer_rule_matches_the_bigcomplex_route_and_the_fraction_rule(case):
    # the one rule on ints, against the BigComplex route (mpmath's rounding to
    # prec bits) and against the rule written in Fractions
    c, e, prec, tol = case
    want = reference_rule(c, e, prec, tol)
    assert recognize_int(c, e, prec, tol) == want
    assert recognize_integer(BigComplex.from_ints(c, 0, e, prec), tol) == want


def test_integer_rule_takes_tol_at_its_exact_value():
    # an mpf or a Fraction tol is compared exactly, and 1/2 or more is refused
    tol = PrecisionPolicy().recognition_tol()
    # 2^-50 < 1e-15 < 2^-49
    assert recognize_int((7 << 80) + (1 << 30), -80, 128, tol) == 7
    assert recognize_int((7 << 80) + (1 << 31), -80, 128, tol) is None
    assert recognize_int(-13, 0, 64, Fraction(1, 3)) == -13
    with pytest.raises(DomainError):
        recognize_int(1, 0, 64, Fraction(1, 2))


def test_precision_policy():
    p = PrecisionPolicy(100)
    assert p.max_escalations == MAX_ESCALATIONS == 4
    assert p.working_digits == 100 + GUARD_DIGITS == 130
    assert p.escalate().target_decimal_digits == 200
    with mp.workprec(64):
        assert p.recognition_tol() == mpmath.mpf(10) ** -15
    with pytest.raises(DomainError):
        PrecisionPolicy(0)


def test_guard_digits_named_only_in_numerics():
    # the guard-digit rule has one home; every other module goes through
    # working_bits or PrecisionPolicy
    naming = set()
    for path in Path(classfield.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                getattr(node, "id", None),
                getattr(node, "attr", None),
                getattr(node, "name", None),
                getattr(node, "value", None) if isinstance(node, ast.Constant) else None,
            )
            if "GUARD_DIGITS" in names:
                naming.add(path.name)
    assert naming == {"numerics.py"}


def _immutable(value):
    """Whether value is built of tuples, numbers and mpmath values only."""
    if isinstance(value, tuple):
        return all(_immutable(v) for v in value)
    return isinstance(value, (int, float, mpmath.mpf, mpmath.mpc))


def test_cached_functions_are_few_and_return_immutable_values():
    # a cache hands its result to every later caller in the process, so only
    # these five functions cache, and none returns state a caller could
    # change: a cached memo would make a call's result depend on earlier ones
    cached = set()
    for path in Path(classfield.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        decorators = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    decorators[id(getattr(dec, "func", dec))] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                cached.update(f"{path.stem}:{node.lineno}" for alias in node.names if "cache" in alias.name)
            if (
                isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "functools"
                and node.attr in ("cache", "lru_cache")
            ):
                where = decorators.get(id(node))
                cached.add(f"{path.stem}.{where}" if where else f"{path.stem}:{node.lineno}")
    assert cached == {
        "orderideals._factor_table",
        "modfun._point",
        "quadforms._form_point",
        "lfunctions._roots_of_unity",
        "lfunctions._hurwitz_pair",
    }
    from classfield import lfunctions, modfun, orderideals, quadforms

    spf = orderideals._factor_table(100)
    assert isinstance(spf, memoryview) and spf.readonly
    point = modfun._point(mpmath.mpf(0), mpmath.mpf(1), 64, 5)
    assert isinstance(point, tuple) and _immutable(point)
    z = quadforms._form_point(3, 1, 20, -23)
    assert isinstance(z, BigComplex) and _immutable((z.re, z.im, z.prec))
    with pytest.raises(AttributeError):
        z.re = mpmath.mpf(0)
    roots = lfunctions._roots_of_unity(6, 64)
    assert isinstance(roots, tuple) and _immutable(roots)
    assert _immutable(lfunctions._hurwitz_pair(mpmath.mpc(2, 1), Fraction(1, 3), 64))
