"""Exact rationals and arbitrary-precision complex values with explicit precision contexts.

Every analytic value in this package is a :class:`BigComplex`: an immutable
(re, im, prec) triple backed by mpmath binary floats.  The precision travels
with the value rather than living in a global context, so computations at
different precisions cannot interfere.  Error control is by guard digits plus
a doubled-precision re-run, not interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

import mpmath
from mpmath import mp

__all__ = [
    "DomainError",
    "FormatError",
    "InvariantViolation",
    "ResourceError",
    "BigComplex",
    "PrecisionPolicy",
    "rat_normalize",
    "complex_with_prec",
    "recognize_integer",
    "bits_for_digits",
]

_LOG2_10 = math.log2(10)

MIN_PREC_BITS = 64


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


def rat_normalize(n: int, d: int) -> Fraction:
    """Exact rational n/d in lowest terms with positive denominator."""
    if d == 0:
        raise DomainError("zero denominator")
    return Fraction(n, d)


@dataclass(frozen=True)
class PrecisionPolicy:
    """Target precision plus escalation rules for integer recognition."""

    target_decimal_digits: int
    guard_digits: int = 30
    max_escalations: int = 4

    def __post_init__(self):
        if self.target_decimal_digits <= 0 or self.guard_digits <= 0:
            raise DomainError("precision parameters must be positive")
        if self.max_escalations < 0:
            raise DomainError("max_escalations must be nonnegative")

    @property
    def working_digits(self) -> int:
        return self.target_decimal_digits + self.guard_digits

    def recognition_tol(self) -> mpmath.mpf:
        # separates rounding noise from genuine non-integrality by many orders
        with mp.workprec(MIN_PREC_BITS):
            return mpmath.mpf(10) ** (-(self.guard_digits // 2))

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
    """Immutable arbitrary-precision complex number with its working precision.

    Binary operations round at the max of the two operand precisions.
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

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "BigComplex":
        if isinstance(other, BigComplex):
            return other
        if isinstance(other, (int, Fraction)):
            return BigComplex(other, 0, self.prec)
        return NotImplemented

    def _binop(self, other, fn):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = max(self.prec, other.prec)
        with mp.workprec(prec):
            z = fn(self.to_mpc(), other.to_mpc())
        return BigComplex.from_mpc(z, prec)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __pow__(self, n: int):
        # repeated squaring: mpmath's integer power takes a log and an exp
        # once n times the operand's bit size passes 10000
        if not isinstance(n, int):
            return NotImplemented
        with mp.workprec(self.prec):
            base, z = self.to_mpc(), mpmath.mpc(1)
            for bit in bin(abs(n))[2:]:
                z *= z
                if bit == "1":
                    z *= base
            if n < 0:
                z = 1 / z
        return BigComplex.from_mpc(z, self.prec)

    def __neg__(self):
        # mpf negation rounds at the ambient context; pin it to self.prec
        with mp.workprec(self.prec):
            return BigComplex(-self.re, -self.im, self.prec)

    def conj(self) -> "BigComplex":
        with mp.workprec(self.prec):
            return BigComplex(self.re, -self.im, self.prec)

    def abs(self) -> mpmath.mpf:
        with mp.workprec(self.prec):
            return abs(self.to_mpc())

    def __abs__(self):
        return self.abs()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BigComplex(other, 0, self.prec)
        if not isinstance(other, BigComplex):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        with mp.workprec(self.prec):
            return f"BigComplex({mpmath.nstr(self.re, 12)}, {mpmath.nstr(self.im, 12)}, prec={self.prec})"

    # -- decimal I/O -----------------------------------------------------

    def to_decimal(self, digits: Optional[int] = None) -> str:
        """Decimal string 're+imj' at the given (default: full) precision."""
        digits = digits or max(1, int(self.prec / _LOG2_10) - 2)
        with mp.workprec(self.prec):
            r = mpmath.nstr(self.re, digits, strip_zeros=False)
            i = mpmath.nstr(self.im, digits, strip_zeros=False)
        return f"{r}{'+' if not i.startswith('-') else ''}{i}j"


def complex_with_prec(re: str, im: str, digits: int) -> BigComplex:
    """Parse decimal strings into a BigComplex carrying `digits` decimal digits."""
    if digits < 20:
        raise DomainError("at least 20 decimal digits required")
    norm = lambda s: s.strip().replace("−", "-")  # accept unicode minus
    return BigComplex(norm(re), norm(im), bits_for_digits(digits))


def recognize_integer(x: BigComplex, tol) -> Optional[int]:
    """Nearest integer n when |x - n| < tol and |im x| < tol, else None."""
    with mp.workprec(x.prec):
        tol = _to_mpf(tol)
        if not tol < mpmath.mpf("0.5"):
            raise DomainError("tolerance must be below 1/2")
        if abs(x.im) >= tol:
            return None
        n = int(mpmath.nint(x.re))
        if abs(x.re - n) >= tol:
            return None
    return n
