"""High-precision evaluation of eta, Delta, j, Siegel, Weierstrass and Fricke
functions by q-series.

All evaluators take a target decimal-digit count; work happens at
`working_bits(digits)`, and results carry that precision.  Eta and Siegel
use theta series with q^(n^2/2) decay: the Jacobi triple product and
Euler's pentagonal series, whose q-powers are built once per point (`_point`)
and cut by a stated remainder bound.  The Eisenstein and Weierstrass q-series
are truncated once their geometric tail bound drops below 2^-working_bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Tuple

import mpmath
from mpmath import mp

from .numerics import BigComplex, DomainError, working_bits
from .quadforms import OrderContext

__all__ = [
    "FrickeIndex",
    "EllipticModel",
    "eta",
    "delta_j",
    "j_eisenstein",
    "siegel",
    "wp",
    "fricke",
    "g2_g3_delta",
    "elliptic_model",
    "torsion_xy",
]

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

    def normalized(self) -> "FrickeIndex":
        """Canonical representative of {v, -v} mod Z^2, entries in [0, 1).

        Valid for even-weight family members only; the raw Siegel product is
        evaluated at the index as given.
        """
        a = (self.v1 % 1, self.v2 % 1)
        b = ((-self.v1) % 1, (-self.v2) % 1)
        return FrickeIndex(*min(a, b))

    def act(self, M) -> "FrickeIndex":
        """Index action v -> v*M for an integer 2x2 matrix (p, q, r, s)."""
        p, q, r, s = M
        return FrickeIndex(self.v1 * p + self.v2 * r, self.v1 * q + self.v2 * s)


@dataclass(frozen=True)
class EllipticModel:
    """Coefficients of y^2 = 4x^3 - A*x - B with j-invariant j(O)."""

    A: BigComplex
    B: BigComplex


def _require_upper(tau: BigComplex) -> None:
    if not tau.im > 0:
        raise DomainError("point must lie in the upper half-plane")


def _nterms(t, digits: int, extra: int = 0) -> int:
    # geometric tail: t^n below 2^-working_bits(digits)
    n = int(mp.ceil(working_bits(digits) * mp.log(2) / (-mp.log(t)))) + 8
    return n + extra


def _qexp(w) -> mpmath.mpc:
    """e(w) = exp(2*pi*i*w); fractional q-powers always go through here."""
    return mpmath.exp(2j * mpmath.pi * w)


def _frac(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


class _Point(NamedTuple):
    """Series data that depend only on (tau, prec), shared by every value at tau."""

    q: mpmath.mpc
    coef: Tuple[mpmath.mpc, ...]  # (-1)^k q^(k(k-1)/2) for k = 0, 1, ...
    euler: mpmath.mpc  # prod_{n>=1} (1 - q^n)
    euler_terms: int
    cut: float  # c of the remainder bound, in units of -ln|q|

    def terms(self, b: float) -> int:
        """Number of terms of sum_k coef[k] x^k taken when |x| = |q|^b, 0 <= b <= 1."""
        return _least_n(self.cut, b)


def _least_n(c: float, b: float) -> int:
    """Least n >= 1 with n(n - 1)/2 + n*b >= c."""
    n = 1
    while n * (n - 1) / 2 + n * b < c:
        n += 1
    return n


# one entry per point and precision: minpoly's probe and pass fill two per
# reduced form (12 on (-104, 5)), and an entry holds 7 KB at 283 digits
@functools.lru_cache(maxsize=16)
def _point(re, im, prec: int) -> _Point:
    """q = e(tau), the coefficients (-1)^k q^(k(k-1)/2) and prod(1 - q^n) at
    tau = re + i*im, every q-power built by multiplication.

    Remainder bound, with r = |q| and c = ((prec + 1) ln 2 - ln(1 - r))/(-ln r):
    a term of modulus r^f(k), where f(k + 1) - f(k) >= 1 from k = n >= 1 on,
    leaves a tail of at most r^f(n)/(1 - r) after the first omitted term k = n.
    For sum_{k>=0} coef[k] x^k with |x| = r^b, b in [0, 1], f(k) = k(k-1)/2 + k*b
    (steps k + b), so n = _least_n(c, b) terms leave at most 2^-(prec+1).  The
    pentagonal series 1 + sum_{k>=1} (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)) has
    steps 3k + 1 in f(k) = k(3k-1)/2 = 3(k(k-1)/2 + k/3): stopping before the
    least k with f(k) >= c leaves at most 2 r^f(k)/(1 - r) <= 2^-prec.
    """
    L = 2 * math.pi * float(im)
    cut = ((prec + 1) * math.log(2) - math.log1p(-math.exp(-L))) / L
    with mp.workprec(prec):
        q = _qexp(mpmath.mpc(re, im))
        coef = [mpmath.mpc(1), mpmath.mpc(-1)]
        qk = mpmath.mpc(1)
        for _ in range(_least_n(cut, 0) - 2):
            qk *= q
            coef.append(-coef[-1] * qk)
        euler_terms = _least_n(cut / 3, 1 / 3) - 1
        q3 = q * q * q
        step = q  # q^(3k-2)
        pent = mpmath.mpc(1)  # q^(k(3k-1)/2)
        qk = mpmath.mpc(1)
        euler = mpmath.mpc(1)
        for k in range(1, euler_terms + 1):
            pent *= step
            step *= q3
            qk *= q
            pair = pent + pent * qk
            euler = euler - pair if k % 2 else euler + pair
    return _Point(q, tuple(coef), euler, euler_terms, cut)


def _power_sum(coef, x, n: int) -> mpmath.mpc:
    """sum_{k<n} coef[k] x^k by Horner's rule."""
    acc = coef[n - 1]
    for k in range(n - 2, -1, -1):
        acc = acc * x + coef[k]
    return acc


def _triple(pt: _Point, x, b: float) -> mpmath.mpc:
    """sum over all k in Z of (-1)^k q^(k(k-1)/2) x^k, for |x| = |q|^b with
    0 <= b <= 1; the k <= 0 half is the k >= 0 series at q/x, |q/x| = |q|^(1-b).

    By the Jacobi triple product this is
    (1 - x) prod_{n>=1} (1 - q^n x)(1 - q^n/x) * prod_{n>=1} (1 - q^n).
    """
    return _power_sum(pt.coef, x, pt.terms(b)) + _power_sum(pt.coef, pt.q / x, pt.terms(1 - b)) - 1


def eta(tau: BigComplex, digits: int) -> BigComplex:
    """Dedekind eta q^(1/24) prod(1 - q^n), the product by Euler's pentagonal
    series (see `_point` for the remainder bound)."""
    _require_upper(tau)
    prec = working_bits(digits)
    pt = _point(tau.re, tau.im, prec)
    with mp.workprec(prec):
        val = mpmath.exp(1j * mpmath.pi * tau.to_mpc() / 12) * pt.euler
    return BigComplex.from_mpc(val, prec)


def _sigma_table(k: int, nmax: int):
    # divisor power sums sigma_k(1..nmax) by sieving
    s = [0] * (nmax + 1)
    for d in range(1, nmax + 1):
        dk = d**k
        for m in range(d, nmax + 1, d):
            s[m] += dk
    return s


def _eisenstein(tau_mpc, digits: int) -> Tuple[mpmath.mpc, mpmath.mpc]:
    q = _qexp(tau_mpc)
    nmax = _nterms(abs(q), digits)
    s3 = _sigma_table(3, nmax)
    s5 = _sigma_table(5, nmax)
    e4 = mpmath.mpc(1)
    e6 = mpmath.mpc(1)
    qn = mpmath.mpc(1)
    for n in range(1, nmax + 1):
        qn *= q
        e4 += 240 * s3[n] * qn
        e6 -= 504 * s5[n] * qn
    return e4, e6


def g2_g3_delta(tau: BigComplex, digits: int):
    """(g2, g3, Delta) for the lattice [tau, 1]; Delta = (2 pi)^12 eta^24."""
    _require_upper(tau)
    prec = working_bits(digits)
    with mp.workprec(prec):
        t_ = tau.to_mpc()
        e4, e6 = _eisenstein(t_, digits)
        twopi = 2 * mpmath.pi
        g2 = twopi**4 * e4 / 12
        g3 = twopi**6 * e6 / 216
        delta = g2**3 - 27 * g3**2
    return (
        BigComplex.from_mpc(g2, prec),
        BigComplex.from_mpc(g3, prec),
        BigComplex.from_mpc(delta, prec),
    )


def delta_j(tau: BigComplex, digits: int) -> Tuple[BigComplex, BigComplex]:
    """(Delta, j) at [tau, 1]; Delta from eta^24, j from the half-index Siegel
    relation j = (g^12 + 16)^3 / g^12."""
    _require_upper(tau)
    prec = working_bits(digits)
    e = eta(tau, digits)
    with mp.workprec(prec):
        delta = (2 * mpmath.pi) ** 12 * e.to_mpc() ** 24
        x = siegel(FrickeIndex.of(0, Fraction(1, 2)), tau, digits).to_mpc() ** 12
        j = (x + 16) ** 3 / x
    return BigComplex.from_mpc(delta, prec), BigComplex.from_mpc(j, prec)


def j_eisenstein(tau: BigComplex, digits: int) -> BigComplex:
    """j = 1728 E4^3/(E4^3 - E6^2); independent route used for cross-checks."""
    _require_upper(tau)
    prec = working_bits(digits)
    with mp.workprec(prec):
        e4, e6 = _eisenstein(tau.to_mpc(), digits)
        val = 1728 * e4**3 / (e4**3 - e6**2)
    return BigComplex.from_mpc(val, prec)


def siegel(v: FrickeIndex, tau: BigComplex, digits: int) -> BigComplex:
    """Siegel function at the raw index v = (a1, a2):

        g_v = -q^(B2(a1)/2) e^(pi i a2 (a1 - 1)) (1 - w) prod_{n>=1} (1 - q^n w)(1 - q^n/w)

    with q = e(tau), w = e(a1 tau + a2).  The product is `_triple` over
    prod(1 - q^n).  a1 is first moved into [0, 1) exactly, by
    g_{v + (m, 0)} = (-1)^m e^(-pi i m a2) g_v, so every series term is at
    most 1 in modulus.
    """
    _require_upper(tau)
    prec = working_bits(digits)
    pt = _point(tau.re, tau.im, prec)
    m = math.floor(v.v1)
    a1 = v.v1 - m
    b2 = a1 * a1 - a1 + Fraction(1, 6)  # second Bernoulli polynomial
    # the sign, the phase and the translation factor as one exact turn
    turn = ((v.v2 * (a1 - 1 - m) + m + 1) / 2) % 1
    with mp.workprec(prec):
        t_ = tau.to_mpc()
        w = _qexp(_frac(a1) * t_ + _frac(v.v2 % 1))
        lead = _qexp(_frac(b2 / 2) * t_ + _frac(turn))
        val = lead * _triple(pt, w, float(a1)) / pt.euler
    return BigComplex.from_mpc(val, prec)


def _reduce_mod_lattice(z_, tau_):
    m = int(mpmath.nint(z_.imag / tau_.imag))
    z_ = z_ - m * tau_
    n = int(mpmath.nint(z_.real))
    return z_ - n


def wp(z: BigComplex, tau: BigComplex, digits: int) -> Tuple[BigComplex, BigComplex]:
    """(wp, wp') for the lattice [tau, 1] by the classical q-series."""
    _require_upper(tau)
    prec = working_bits(digits)
    with mp.workprec(prec):
        t_ = tau.to_mpc()
        z_ = _reduce_mod_lattice(z.to_mpc(), t_)
        q = _qexp(t_)
        u = _qexp(z_)
        if abs(1 - u) < mpmath.mpf(2) ** (-prec // 2):
            raise DomainError("wp pole: z lies on the lattice")
        nmax = _nterms(abs(q), digits, extra=4)
        twopii = 2j * mpmath.pi
        # cubes are multiplied out: mpmath's integer power takes a log and an
        # exp once the parts' exponents are far apart, as in 1 - q^n u
        w = 1 - u
        p = mpmath.mpf(1) / 12 + u / w**2
        dp = u * (1 + u) / (w * w * w)
        qn = mpmath.mpc(1)
        for _ in range(1, nmax + 1):
            qn *= q
            a = qn * u
            b = qn / u
            wa, wb = 1 - a, 1 - b
            p += a / wa**2 + b / wb**2 - 2 * qn / (1 - qn) ** 2
            dp += a * (1 + a) / (wa * wa * wa) - b * (1 + b) / (wb * wb * wb)
        val_p = twopii**2 * p
        val_dp = twopii**3 * dp
    return BigComplex.from_mpc(val_p, prec), BigComplex.from_mpc(val_dp, prec)


def fricke(v: FrickeIndex, tau: BigComplex, digits: int) -> BigComplex:
    """Fricke function: -2^7 3^3 (g2 g3 / Delta) wp(v1*tau + v2)."""
    _require_upper(tau)
    prec = working_bits(digits)
    vn = v.normalized()
    g2, g3, delta = g2_g3_delta(tau, digits)
    with mp.workprec(prec):
        z = BigComplex.from_mpc(_frac(vn.v1) * tau.to_mpc() + _frac(vn.v2), prec)
    p, _ = wp(z, tau, digits)
    with mp.workprec(prec):
        val = -(2**7) * 3**3 * g2.to_mpc() * g3.to_mpc() / delta.to_mpc() * p.to_mpc()
    return BigComplex.from_mpc(val, prec)


def elliptic_model(ctx: OrderContext, digits: int) -> EllipticModel:
    """Weierstrass coefficients A, B built from j(O); needs D != -3, -4."""
    if ctx.disc in (-3, -4):
        raise DomainError("model undefined when g2*g3 = 0")
    tau = ctx.tau(digits)
    _, j = delta_j(tau, digits)
    prec = working_bits(digits)
    with mp.workprec(prec):
        jj = j.to_mpc()
        A = jj * (jj - 1728) / (2**12 * 3**9)
        B = jj * (jj - 1728) ** 2 / (2**18 * 3**15)
    return EllipticModel(BigComplex.from_mpc(A, prec), BigComplex.from_mpc(B, prec))


def torsion_xy(ctx: OrderContext, v: FrickeIndex, digits: int) -> Tuple[BigComplex, BigComplex]:
    """Coordinates (X_v, Y_v) of the torsion point indexed by v on the model.

    Y uses the principal branch of sqrt((g2 g3/Delta)^3); only Y ratios and
    Y^2 are convention-free.
    """
    if ctx.disc in (-3, -4):
        raise DomainError("model undefined when g2*g3 = 0")
    prec = working_bits(digits)
    tau = ctx.tau(digits)
    g2, g3, delta = g2_g3_delta(tau, digits)
    with mp.workprec(prec):
        z = BigComplex.from_mpc(_frac(v.v1) * tau.to_mpc() + _frac(v.v2), prec)
    p, dp = wp(z, tau, digits)
    with mp.workprec(prec):
        scale = g2.to_mpc() * g3.to_mpc() / delta.to_mpc()
        X = scale * p.to_mpc()
        Y = mpmath.sqrt(scale**3) * dp.to_mpc()
    return BigComplex.from_mpc(X, prec), BigComplex.from_mpc(Y, prec)
