"""Fraction-backed reference for the Siegel, Fricke and torsion index.

`FrickeIndex` is the index v = (v1, v2) in (1/N)Z^2 \\ Z^2 as two Fractions,
with the index action v -> v M and the normalization to the lesser of
{v, -v} mod Z^2.  `siegel`, `fricke` and `torsion_xy` evaluate at such an
index the way `modfun` did before it took the index as an integer row
(u1, u2, d): the tests hold the row route bit-identical to these, and the
row arithmetic of `invariants._index_row` equal to `act` and `normalized`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import mpmath
from mpmath import mp

from classfield import modfun
from classfield.numerics import BigComplex, DomainError, working_bits


def frac(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


@dataclass(frozen=True)
class FrickeIndex:
    """Row vector (v1, v2) of rationals, not both integral."""

    v1: Fraction
    v2: Fraction

    def __post_init__(self):
        if self.v1.denominator == 1 and self.v2.denominator == 1:
            raise DomainError("index vector must be nonintegral")

    @classmethod
    def of(cls, v1, v2) -> "FrickeIndex":
        return cls(Fraction(v1), Fraction(v2))

    @property
    def level(self) -> int:
        """Smallest N with N*v integral."""
        d1 = self.v1.denominator
        d2 = self.v2.denominator
        return d1 * d2 // math.gcd(d1, d2)

    @property
    def row(self) -> Tuple[int, int, int]:
        """(N v1, N v2, N) at N = level: the index as `modfun` takes it."""
        d = self.level
        return int(self.v1 * d), int(self.v2 * d), d

    def normalized(self) -> "FrickeIndex":
        """Canonical representative of {v, -v} mod Z^2, entries in [0, 1)."""
        a = (self.v1 % 1, self.v2 % 1)
        b = ((-self.v1) % 1, (-self.v2) % 1)
        return FrickeIndex(*min(a, b))

    def act(self, M) -> "FrickeIndex":
        """Index action v -> v*M for an integer 2x2 matrix (p, q, r, s)."""
        p, q, r, s = M
        return FrickeIndex(self.v1 * p + self.v2 * r, self.v1 * q + self.v2 * s)


def siegel(v: FrickeIndex, tau: BigComplex, digits: int) -> BigComplex:
    """Siegel function at the raw index v, by `modfun.siegel_fixed` at v's level."""
    modfun._require_upper(tau)
    prec = working_bits(digits)
    d = v.level
    x, y, F = modfun.siegel_fixed(int(v.v1 * d), int(v.v2 * d), d, tau, prec)
    return BigComplex.from_ints(x, y, -F, prec)


def fricke(v: FrickeIndex, tau: BigComplex, digits: int) -> BigComplex:
    """Fricke function: -2^7 3^3 (g2 g3 / Delta) wp(v1*tau + v2), v normalized."""
    modfun._require_upper(tau)
    prec = working_bits(digits)
    vn = v.normalized()
    g2, g3, delta = modfun.g2_g3_delta(tau, digits)
    with mp.workprec(prec):
        z = BigComplex.from_mpc(frac(vn.v1) * tau.to_mpc() + frac(vn.v2), prec)
    p, _ = modfun.wp(z, tau, digits)
    with mp.workprec(prec):
        val = -(2**7) * 3**3 * g2.to_mpc() * g3.to_mpc() / delta.to_mpc() * p.to_mpc()
    return BigComplex.from_mpc(val, prec)


def torsion_xy(ctx, v: FrickeIndex, digits: int) -> Tuple[BigComplex, BigComplex]:
    """(X_v, Y_v) on the model of `modfun.elliptic_model`, at the raw index v."""
    if ctx.disc in (-3, -4):
        raise DomainError("model undefined when g2*g3 = 0")
    prec = working_bits(digits)
    tau = ctx.tau(digits)
    g2, g3, delta = modfun.g2_g3_delta(tau, digits)
    with mp.workprec(prec):
        z = BigComplex.from_mpc(frac(v.v1) * tau.to_mpc() + frac(v.v2), prec)
    p, dp = modfun.wp(z, tau, digits)
    with mp.workprec(prec):
        scale = g2.to_mpc() * g3.to_mpc() / delta.to_mpc()
        X = scale * p.to_mpc()
        Y = mpmath.sqrt(scale**3) * dp.to_mpc()
    return BigComplex.from_mpc(X, prec), BigComplex.from_mpc(Y, prec)
