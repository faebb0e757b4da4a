import ast
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import classfield
from classfield.numerics import (
    GUARD_DIGITS,
    MAX_ESCALATIONS,
    BigComplex,
    DomainError,
    FormatError,
    PrecisionPolicy,
    bits_for_digits,
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


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 144),
    sign=st.sampled_from([1, -1]),
    scale=st.integers(-3000, 3000),
    parts=st.tuples(st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40)).filter(any),
    prec=st.sampled_from([64, 140, 1011]),
)
def test_bigcomplex_pow_keeps_relative_precision_at_any_modulus(n, sign, scale, parts, prec):
    # the integer mantissa and its binary exponent keep every power within
    # 2^(1 - prec) relative, for moduli from 2^-3000 to 2^3000 and exponents
    # to +-144, far outside what a fixed point at 2^-prec could hold
    with mp.workprec(prec):
        z = BigComplex(mpmath.ldexp(parts[0], scale - 40), mpmath.ldexp(parts[1], scale - 40), prec)
    got = z ** (sign * n)
    assert got.prec == prec
    with mp.workprec(4 * prec):
        ref = z.to_mpc() ** (sign * n)
        assert abs(got.to_mpc() - ref) <= abs(ref) * mpmath.mpf(2) ** (1 - prec)


def test_bigcomplex_pow_of_zero():
    zero = BigComplex(0, 0, 64)
    assert (zero**3).to_mpc() == 0 and (zero**0).to_mpc() == 1
    with pytest.raises(ZeroDivisionError):
        zero**-1


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
