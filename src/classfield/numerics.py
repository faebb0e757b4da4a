"""Arbitrary-precision complex values that carry their precision, the
guard-digit rule, and integer recognition.

Every analytic value that passes between modules is a :class:`BigComplex`: an
immutable (re, im, prec) value backed by mpmath binary floats.  Arithmetic
happens on mpmath numbers inside ``mp.workprec``, or on Python ints where that
is cheaper: `int_power` squares an integer mantissa pair under one binary
exponent, for the 12N-th Siegel powers that `invariants` takes on `modfun`'s
fixed-point kernel values.
`recognize_int`, the one integer recognition rule, compares an integer c 2^e
with its tolerance exactly.  The precision travels with the value rather
than living in the global context, so the ambient precision never rounds it.
Every evaluator that targets `digits` decimal digits works at
`working_bits(digits)`, that is `GUARD_DIGITS` more, and its evaluation point
(`Form.omega`, `OrderContext.tau`) is built at the same precision.  Error
control is by guard digits plus a doubled-precision re-run, not interval
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple, Union

import mpmath
from mpmath import mp

__all__ = [
    "DomainError",
    "FormatError",
    "InvariantViolation",
    "ResourceError",
    "BigComplex",
    "PrecisionPolicy",
    "GUARD_DIGITS",
    "recognize_integer",
    "recognize_int",
    "int_power",
    "bits_for_digits",
    "working_bits",
]

_LOG2_10 = math.log2(10)

MIN_PREC_BITS = 64

# decimal digits every evaluator works above its target
GUARD_DIGITS = 30


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class FormatError(ValueError):
    """A string cannot be parsed as the requested numeric type."""


class InvariantViolation(RuntimeError):
    """An identity the mathematics guarantees failed; indicates a bug."""


class ResourceError(RuntimeError):
    """A search exhausted its budget before reaching a guaranteed state."""


def bits_for_digits(digits: int) -> int:
    """Binary working precision comfortably covering `digits` decimal digits."""
    return max(MIN_PREC_BITS, int(digits * _LOG2_10) + 8)


def working_bits(digits: int) -> int:
    """Binary precision for a `digits`-digit target plus the guard digits."""
    return bits_for_digits(digits + GUARD_DIGITS)


# the minimal polynomial's default doubling budget
MAX_ESCALATIONS = 4


@dataclass(frozen=True)
class PrecisionPolicy:
    """Target precision plus escalation rules for integer recognition.

    A target of None leaves the first pass's digits to the caller's probe
    (`invariants.probe_digits`); doubling from there follows the same rules.
    """

    target_decimal_digits: Optional[int] = None
    max_escalations: int = MAX_ESCALATIONS

    def __post_init__(self):
        if self.target_decimal_digits is not None and self.target_decimal_digits <= 0:
            raise DomainError("precision parameters must be positive")
        if self.max_escalations < 0:
            raise DomainError("max_escalations must be nonnegative")

    @property
    def working_digits(self) -> int:
        return self.target_decimal_digits + GUARD_DIGITS

    def recognition_tol(self) -> mpmath.mpf:
        # half the guard digits: far above rounding noise, far below 1/2
        with mp.workprec(MIN_PREC_BITS):
            return mpmath.mpf(10) ** (-(GUARD_DIGITS // 2))

    def escalate(self) -> "PrecisionPolicy":
        return replace(self, target_decimal_digits=2 * self.target_decimal_digits)


_Num = Union[int, Fraction, float, str, mpmath.mpf]


def _to_mpf(x: _Num) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    try:
        return mpmath.mpf(x)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"cannot parse {x!r} as a real number") from exc


class BigComplex:
    """Immutable complex value (re, im) rounded to `prec` bits.

    Parts may be given as ints, Fractions, floats, mpfs or decimal strings;
    they are rounded at `prec`, not at the ambient precision.  Compute with
    `to_mpc()` inside ``mp.workprec(prec)`` and wrap the result with
    `from_mpc`.
    """

    __slots__ = ("re", "im", "prec")

    def __init__(self, re: _Num, im: _Num = 0, prec: int = MIN_PREC_BITS):
        if prec < MIN_PREC_BITS:
            raise DomainError(f"precision below {MIN_PREC_BITS} bits")
        with mp.workprec(prec):
            object.__setattr__(self, "re", _to_mpf(re) * 1)
            object.__setattr__(self, "im", _to_mpf(im) * 1)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, *a):
        raise AttributeError("BigComplex is immutable")

    @classmethod
    def from_mpc(cls, z, prec: int) -> "BigComplex":
        # convert at the target precision; the ambient context must not round
        with mp.workprec(prec):
            z = mpmath.mpc(z)
        return cls(z.real, z.imag, prec)

    def to_mpc(self) -> mpmath.mpc:
        with mp.workprec(self.prec):
            return mpmath.mpc(self.re, self.im)

    @classmethod
    def from_ints(cls, x: int, y: int, exp: int, prec: int) -> "BigComplex":
        """(x + iy) 2^exp rounded to prec bits."""
        with mp.workprec(prec):
            return cls(mpmath.mpf((x, exp)), mpmath.mpf((y, exp)), prec)

    def __repr__(self):
        with mp.workprec(self.prec):
            return f"BigComplex({mpmath.nstr(self.re, 12)}, {mpmath.nstr(self.im, 12)}, prec={self.prec})"

    def to_decimal(self, digits: Optional[int] = None) -> str:
        """Decimal string 're+imj' at the given (default: full) precision."""
        digits = digits or max(1, int(self.prec / _LOG2_10) - 2)
        with mp.workprec(self.prec):
            r = mpmath.nstr(self.re, digits, strip_zeros=False)
            i = mpmath.nstr(self.im, digits, strip_zeros=False)
        return f"{r}{'+' if not i.startswith('-') else ''}{i}j"


def _man_exp(x: mpmath.mpf) -> Tuple[int, int]:
    """(m, e) with x = m 2^e and m signed."""
    man, exp = x.man_exp
    return (-man if x < 0 else man), exp


def _cut(x: int, y: int, e: int, P: int):
    """(x + iy) 2^e with both parts floored to at most P bits."""
    s = max(abs(x).bit_length(), abs(y).bit_length()) - P
    return (x >> s, y >> s, e + s) if s > 0 else (x, y, e)


def int_power(x: int, y: int, e: int, n: int, prec: int) -> Tuple[int, int, int]:
    """((x + iy) 2^e)^n for n >= 0 as (u, v, f), the power (u + iv) 2^f, by
    squaring at P = prec + bitlen(n) + 4 bits.

    The base and each product are cut back to P bits, so the modulus may lie
    far below 2^-prec or above 2^prec without losing relative precision, and
    each cut is within relative 2^(1.5 - P).  A squaring doubles the relative
    error before it, so the cut base and the at most 2 bitlen(n) - 1 later
    products leave below 2^(bitlen(n) + 2.5 - P) = 2^-(prec+1.5): the power is
    within relative 2^-(prec+1) of ((x + iy) 2^e)^n exactly.
    """
    P = prec + n.bit_length() + 4
    bx, by, be = _cut(x, y, e, P)
    x, y, ex = 1, 0, 0
    for bit in bin(n)[2:]:
        x, y, ex = _cut(x * x - y * y, 2 * x * y, 2 * ex, P)
        if bit == "1":
            x, y, ex = _cut(x * bx - y * by, x * by + y * bx, ex + be, P)
    return x, y, ex


def _exact(x) -> Fraction:
    """x as an exact rational: an mpf by its binary value, else Fraction(x)."""
    if isinstance(x, mpmath.mpf):
        man, exp = _man_exp(x)
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return Fraction(x)


def _below(a: int, k: int, tol: Fraction) -> bool:
    """a 2^k < tol, exactly."""
    p, q = tol.numerator, tol.denominator
    return (a * q << k) < p if k >= 0 else a * q < p << -k


def recognize_int(c: int, e: int, prec: int, tol) -> Optional[int]:
    """The integer rule of `recognize_integer` for x = c 2^e, in integers.

    x is first rounded to prec bits, ties to even, as BigComplex.from_ints
    rounds it.  Then x is refused when |x| 2^-prec >= tol, since at that
    magnitude the precision cannot place x within tol of an integer and every
    value would pass as its own nearest integer; else n = nint(x) is returned
    when |x - n| < tol, and None when not.  tol is any exact rational (an
    int, Fraction, float or mpf, taken at its exact value) below 1/2, and
    every comparison is exact.
    """
    tol = _exact(tol)
    if not tol < Fraction(1, 2):
        raise DomainError("tolerance must be below 1/2")
    s = abs(c).bit_length() - prec
    if s > 0:
        c, r = divmod(c, 1 << s)
        half = 1 << s - 1
        c, e = c + (r > half or (r == half and c & 1)), e + s
    if not _below(abs(c), e - prec, tol):
        return None
    if e >= 0:
        return c << e
    # the nearest integer; at a tie |x - n| = 1/2 > tol, so either one is refused
    n = (c + (1 << -e - 1)) >> -e
    return n if _below(abs(c - (n << -e)), e, tol) else None


def recognize_integer(x: BigComplex, tol) -> Optional[int]:
    """Nearest integer n when |x - n| < tol and |im x| < tol, else None:
    recognize_int on each part of x, tol first rounded at x's precision.

    Also None when |re x| * 2^-prec >= tol (see recognize_int), and for a
    part that is not finite.
    """
    with mp.workprec(x.prec):
        tol = _to_mpf(tol)
    if not (mpmath.isfinite(x.re) and mpmath.isfinite(x.im)):
        return None
    # |im x| < tol exactly when its nearest integer is 0 and lies within tol
    if recognize_int(*_man_exp(x.im), x.prec, tol) != 0:
        return None
    return recognize_int(*_man_exp(x.re), x.prec, tol)
