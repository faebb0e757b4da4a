"""Arbitrary-precision complex values that carry their precision, the
guard-digit rule, and integer recognition.

Every analytic value that passes between modules is a :class:`BigComplex`: an
immutable (re, im, prec) value backed by mpmath binary floats.  Arithmetic
happens on mpmath numbers inside ``mp.workprec``; the precision travels with
the value rather than living in the global context, so the ambient precision
never rounds it.  Every evaluator that targets `digits` decimal digits works at
`working_bits(digits)`, that is `GUARD_DIGITS` more, and its evaluation point
(`Form.omega`, `OrderContext.tau`) is built at the same precision.  Error
control is by guard digits plus a doubled-precision re-run, not interval
arithmetic.
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
    "GUARD_DIGITS",
    "recognize_integer",
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


def recognize_integer(x: BigComplex, tol) -> Optional[int]:
    """Nearest integer n when |x - n| < tol and |im x| < tol, else None.

    Also None when |re x| * 2^-prec >= tol: at that magnitude the precision
    cannot place x within tol of an integer, and every value would pass as
    its own nearest integer.
    """
    with mp.workprec(x.prec):
        tol = _to_mpf(tol)
        if not tol < mpmath.mpf("0.5"):
            raise DomainError("tolerance must be below 1/2")
        if abs(x.im) >= tol or mpmath.ldexp(abs(x.re), -x.prec) >= tol:
            return None
        n = int(mpmath.nint(x.re))
        if abs(x.re - n) >= tol:
            return None
    return n
