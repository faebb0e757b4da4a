"""The theta series of eta and the Siegel functions in mpmath, kept as the
test reference for `modfun`'s fixed-point kernel.

Every term is an mpmath complex number at the working precision: the
q-powers of a point are built once by multiplication (`point`), the Jacobi
triple product is summed as two power series by Horner's rule (`triple`),
and the pentagonal series gives prod(1 - q^n).  The cut is `modfun`'s
(`modfun._least_n` on the same remainder bound), so the two kernels sum the
same terms and differ only in rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Tuple

import mpmath
from mpmath import mp

from classfield import modfun
from classfield.numerics import BigComplex, working_bits
from fricke_reference import frac


class Point(NamedTuple):
    q: mpmath.mpc
    coef: Tuple[mpmath.mpc, ...]  # (-1)^k q^(k(k-1)/2) for k = 0, 1, ...
    euler: mpmath.mpc  # prod_{n>=1} (1 - q^n)
    cut: float

    def terms(self, b: float) -> int:
        return modfun._least_n(self.cut, b)


def point(re, im, prec: int) -> Point:
    """q = e(tau), the coefficients (-1)^k q^(k(k-1)/2) and prod(1 - q^n) at
    tau = re + i*im, every q-power built by multiplication at prec bits."""
    L = 2 * math.pi * float(im)
    cut = ((prec + 1) * math.log(2) - math.log1p(-math.exp(-L))) / L
    with mp.workprec(prec):
        q = modfun._qexp(mpmath.mpc(re, im))
        coef = [mpmath.mpc(1), mpmath.mpc(-1)]
        qk = mpmath.mpc(1)
        for _ in range(modfun._least_n(cut, 0) - 2):
            qk *= q
            coef.append(-coef[-1] * qk)
        q3 = q * q * q
        step = q  # q^(3k-2)
        pent = mpmath.mpc(1)  # q^(k(3k-1)/2)
        qk = mpmath.mpc(1)
        euler = mpmath.mpc(1)
        for k in range(1, modfun._least_n(cut / 3, 1 / 3)):
            pent *= step
            step *= q3
            qk *= q
            pair = pent + pent * qk
            euler = euler - pair if k % 2 else euler + pair
    return Point(q, tuple(coef), euler, cut)


def power_sum(coef, x, n: int) -> mpmath.mpc:
    """sum_{k<n} coef[k] x^k by Horner's rule."""
    acc = coef[n - 1]
    for k in range(n - 2, -1, -1):
        acc = acc * x + coef[k]
    return acc


def triple(pt: Point, x, b: float) -> mpmath.mpc:
    """sum over all k in Z of (-1)^k q^(k(k-1)/2) x^k for |x| = |q|^b, 0 <= b <= 1,
    that is (1 - x) prod_{n>=1} (1 - q^n x)(1 - q^n/x) * prod_{n>=1} (1 - q^n)."""
    return power_sum(pt.coef, x, pt.terms(b)) + power_sum(pt.coef, pt.q / x, pt.terms(1 - b)) - 1


def eta(tau: BigComplex, digits: int) -> BigComplex:
    prec = working_bits(digits)
    pt = point(tau.re, tau.im, prec)
    with mp.workprec(prec):
        val = mpmath.exp(1j * mpmath.pi * tau.to_mpc() / 12) * pt.euler
    return BigComplex.from_mpc(val, prec)


def siegel(v, tau: BigComplex, digits: int) -> BigComplex:
    """`modfun.siegel` by the mpmath series: two exponentials for w and the lead,
    then the triple sum over prod(1 - q^n)."""
    prec = working_bits(digits)
    pt = point(tau.re, tau.im, prec)
    m = math.floor(v.v1)
    a1 = v.v1 - m
    b2 = a1 * a1 - a1 + Fraction(1, 6)
    turn = ((v.v2 * (a1 - 1 - m) + m + 1) / 2) % 1
    with mp.workprec(prec):
        t_ = tau.to_mpc()
        w = modfun._qexp(frac(a1) * t_ + frac(v.v2 % 1))
        lead = modfun._qexp(frac(b2 / 2) * t_ + frac(turn))
        val = lead * triple(pt, w, float(a1)) / pt.euler
    return BigComplex.from_mpc(val, prec)
