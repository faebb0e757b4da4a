"""High-precision evaluation of eta, Delta, j, Siegel, Weierstrass and Fricke
functions by q-series.

All evaluators take a target decimal-digit count; work happens at
`working_bits(digits)`, and results carry that precision.  Eta and Siegel
use theta series with q^(n^2/2) decay: the Jacobi triple product and
Euler's pentagonal series, cut by a stated remainder bound.  They run in
fixed-point Gaussian integers: each point keeps one root of q, its powers and
the series coefficients as ints scaled by 2^F (`_point`), so the classes at a
point share two exponentials and every Siegel value is integer arithmetic
with a stated error bound (`siegel_fixed`, which hands the fixed-point pair
to callers that go on in integers).  The Eisenstein and Weierstrass q-series
work in mpmath and are truncated once their geometric tail bound drops below
2^-working_bits.

A Siegel, Fricke or torsion index v in (1/d)Z^2 \\ Z^2 is the integer triple
(u1, u2, d) with v = (u1/d, u2/d); `_row` divides it by gcd(u1, u2, d), so
(2, 4, 6) and (1, 2, 3) name the same index, and rejects a row with d | u1
and d | u2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import mpmath
from mpmath import mp

from .numerics import BigComplex, DomainError, working_bits
from .quadforms import OrderContext

__all__ = [
    "EllipticModel",
    "eta",
    "delta_j",
    "j_eisenstein",
    "siegel",
    "siegel_fixed",
    "wp",
    "fricke",
    "g2_g3_delta",
    "elliptic_model",
    "torsion_xy",
]

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


def _row(index) -> Tuple[int, int, int]:
    """The index v = (u1/d, u2/d) of index = (u1, u2, d) as the row over its
    level: (u1, u2, d) divided by gcd(u1, u2, d)."""
    u1, u2, d = index
    if d < 1:
        raise DomainError("index level must be positive")
    g = math.gcd(u1, u2, d)
    if g == d:
        raise DomainError("index vector must be nonintegral")
    return u1 // g, u2 // g, d // g


def _lattice_point(u1: int, u2: int, d: int, tau: BigComplex, prec: int) -> BigComplex:
    """(u1 tau + u2)/d at prec bits, the point of wp for the index (u1/d, u2/d)."""
    with mp.workprec(prec):
        z = mpmath.mpf(u1) / d * tau.to_mpc() + mpmath.mpf(u2) / d
    return BigComplex.from_mpc(z, prec)


# Fixed point: a pair (x, y) of ints stands for (x + iy) 2^-F at a point's
# F bits.  Products are floored, so each is within 2^(1/2 - F) of exact.


def _fixed(z: mpmath.mpc, F: int) -> Tuple[int, int]:
    """z 2^F with each part truncated to an int."""
    return int(mpmath.ldexp(z.real, F)), int(mpmath.ldexp(z.imag, F))


def _mul(a, b, F: int) -> Tuple[int, int]:
    (x1, y1), (x2, y2) = a, b
    return (x1 * x2 - y1 * y2) >> F, (x1 * y2 + x2 * y1) >> F


def _pow(a, k: int, F: int) -> Tuple[int, int]:
    """a^k for k >= 0 by squaring."""
    z = (1 << F, 0)
    for bit in bin(k)[2:]:
        z = _mul(z, z, F)
        if bit == "1":
            z = _mul(z, a, F)
    return z


def _inv(a, F: int) -> Tuple[int, int]:
    x, y = a
    n = x * x + y * y
    return (x << 2 * F) // n, (-y << 2 * F) // n


# bits of 1/|q|^(1/12) per unit of Im tau: what the least Siegel lead
# |q|^(B2(a1)/2) >= |q|^(1/12) takes from a value's relative precision
_LEAD_BITS = 2 * math.pi / (12 * math.log(2))


def fixed_bits(im: float, prec: int, d: int) -> int:
    """Fixed-point bits F of the series at a point of imaginary part im for
    index level d: prec plus the guard bits of `siegel`'s error bound."""
    return prec + math.ceil(_LEAD_BITS * im) + (12 * d * d).bit_length() + 8


class _Point(NamedTuple):
    """Series data that depend only on (tau, prec, d), shared by every value at
    tau of index level d: fixed-point pairs at `bits`, built from the root
    rho = e(tau/(12 d^2)) and sigma = rho^(12 d) = e(tau/d), so q = sigma^d."""

    bits: int
    coef: Tuple[Tuple[int, int], ...]  # (-1)^k q^(k(k-1)/2) for k = 0, 1, ...
    inv_euler: Tuple[int, int]  # 1/prod_{n>=1} (1 - q^n)
    euler_terms: int
    cut: float  # c of the remainder bound, in units of -ln|q|
    powers: Tuple[Tuple[int, int], ...]  # sigma^j, j = 0..d
    leads: Tuple[Tuple[int, int], ...]  # rho^(6r^2 - 6rd + d^2) = e(B2(r/d)/2 tau), r < d
    units: Tuple[Tuple[int, int], ...]  # e(j/d), j < d
    fine: Tuple[Tuple[int, int], ...]  # e(j/(2d^2)), j < 2d

    def terms(self, b: float) -> int:
        """Number of terms of sum_k coef[k] x^k taken when |x| = |q|^b, 0 <= b <= 1."""
        return _least_n(self.cut, b)

    def root(self, u: int) -> Tuple[int, int]:
        """e(u/(2d^2)) for 0 <= u < 2d^2, as e(k/d) e(j/(2d^2)) with u = 2dk + j."""
        k, j = divmod(u, 2 * len(self.units))
        return _mul(self.units[k], self.fine[j], self.bits)


def _least_n(c: float, b: float) -> int:
    """Least n >= 1 with n(n - 1)/2 + n*b >= c."""
    n = 1
    while n * (n - 1) / 2 + n * b < c:
        n += 1
    return n


# one entry per point, precision and index level: minpoly's probe and pass
# fill one per evaluation point each (8 on (-104, 5)); an entry holds 11-14 KB
# at 283 digits and d = 5, and 170-280 KB at 5621 digits and d = 7, most of
# it the tables of powers, leads and roots of unity
@functools.lru_cache(maxsize=16)
def _point(re, im, prec: int, d: int) -> _Point:
    """The series data at tau = re + i*im for index level d, from two
    exponentials, rho = e(tau/(12 d^2)) and e(1/(2 d^2)); every power of q and
    every table entry is a fixed-point product at F = fixed_bits(im, prec, d).

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
    F = fixed_bits(float(im), prec, d)
    one = (1 << F, 0)
    with mp.workprec(F + 8):
        rho = _fixed(_qexp(mpmath.mpc(re, im) / (12 * d * d)), F)
        zeta = _fixed(_qexp(mpmath.mpf(1) / (2 * d * d)), F)
    sigma = _pow(rho, 12 * d, F)
    powers = [one]
    for _ in range(d):
        powers.append(_mul(powers[-1], sigma, F))
    q = powers[d]
    coef = [one, (-one[0], 0)]
    qk = one
    for _ in range(_least_n(cut, 0) - 2):
        qk = _mul(qk, q, F)
        x, y = _mul(coef[-1], qk, F)
        coef.append((-x, -y))
    euler_terms = _least_n(cut / 3, 1 / 3) - 1
    q3 = _mul(_mul(q, q, F), q, F)
    step = q  # q^(3k-2)
    pent = one  # q^(k(3k-1)/2)
    qk = one
    ex, ey = one
    for k in range(1, euler_terms + 1):
        pent = _mul(pent, step, F)
        step = _mul(step, q3, F)
        qk = _mul(qk, q, F)
        x, y = _mul(pent, qk, F)
        sign = -1 if k % 2 else 1
        ex, ey = ex + sign * (pent[0] + x), ey + sign * (pent[1] + y)
    rho_inv = _inv(rho, F)
    leads = []
    for r in range(d):
        e = 6 * r * r - 6 * r * d + d * d
        leads.append(_pow(rho if e >= 0 else rho_inv, abs(e), F))
    fine = [one]
    for _ in range(2 * d):
        fine.append(_mul(fine[-1], zeta, F))
    unit = fine.pop()  # e(1/d)
    units = [one]
    for _ in range(d - 1):
        units.append(_mul(units[-1], unit, F))
    return _Point(
        F, tuple(coef), _inv((ex, ey), F), euler_terms, cut,
        tuple(powers), tuple(leads), tuple(units), tuple(fine),
    )


def _power_sum(coef, x, n: int, F: int) -> Tuple[int, int]:
    """sum_{k<n} coef[k] x^k by Horner's rule, in fixed point."""
    xr, xi = x
    ar, ai = coef[n - 1]
    for cr, ci in reversed(coef[: n - 1]):
        ar, ai = ((ar * xr - ai * xi) >> F) + cr, ((ar * xi + ai * xr) >> F) + ci
    return ar, ai


def eta(tau: BigComplex, digits: int) -> BigComplex:
    """Dedekind eta q^(1/24) prod(1 - q^n), the product by Euler's pentagonal
    series (see `_point` for the remainder bound).  q^(1/24) is the inverse of
    the Siegel lead e(B2(1/2)/2 tau) = e(-tau/24), so eta is read off the
    point's data at index level 2, which delta_j's Siegel value shares."""
    _require_upper(tau)
    prec = working_bits(digits)
    pt = _point(tau.re, tau.im, prec, 2)
    x, y = _inv(_mul(pt.leads[1], pt.inv_euler, pt.bits), pt.bits)
    return BigComplex.from_ints(x, y, -pt.bits, prec)


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
        x = siegel((0, 1, 2), tau, digits).to_mpc() ** 12
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


def siegel(index, tau: BigComplex, digits: int) -> BigComplex:
    """Siegel function at the raw index v = (a1, a2) = (u1/d, u2/d) of
    index = (u1, u2, d), by `siegel_fixed` at the index's level, the row
    divided by gcd(u1, u2, d):

        g_v = -q^(B2(a1)/2) e^(pi i a2 (a1 - 1)) (1 - w) prod_{n>=1} (1 - q^n w)(1 - q^n/w)

    with q = e(tau), w = e(a1 tau + a2).  The fixed-point value is converted to
    BigComplex once, within relative 2^-prec (2 + 1/|T|) of g_v (see
    `siegel_fixed`)."""
    _require_upper(tau)
    prec = working_bits(digits)
    x, y, F = siegel_fixed(*_row(index), tau, prec)
    return BigComplex.from_ints(x, y, -F, prec)


def siegel_fixed(u1: int, u2: int, d: int, tau: BigComplex, prec: int) -> Tuple[int, int, int]:
    """(x, y, F) with (x + iy) 2^-F the Siegel function at the raw index
    (a1, a2) = (u1/d, u2/d) and tau, at prec bits; the integer kernel of
    `siegel` and of `invariants`' 12N-th Siegel powers.

    a1 is first moved into [0, 1) exactly, by g_{v + (m, 0)} =
    (-1)^m e^(-pi i m a2) g_v, so every series term is at most 1 in modulus.
    The product is the Jacobi triple sum
    T = sum_{k>=0} coef[k] w^k + sum_{k>=0} coef[k] (q/w)^k - 1 over
    prod(1 - q^n), from `_point` at d.  Everything runs in fixed point at
    F = fixed_bits(Im tau, prec, d) bits.  With a1 = r/d and a2 = s/d mod 1,
    w = sigma^r e(s/d), q/w = sigma^(d-r) e(-s/d), and the lead
    e(B2(a1)/2 tau + turn) is rho^(6r^2 - 6rd + d^2) times the 2d^2-th root of
    unity e(turn): the sign, the phase and the translation factor make one
    turn (u2 (r - d(m + 1)) + (m + 1) d^2)/(2d^2), taken mod 2d^2 in ints.

    Error bound, in ulps of 2^-F.  rho and e(1/(2d^2)) are within 2 ulps.
    Every operand has modulus at most |q|^(-1/24) and every product is
    floored, so a power a^k is within 4k ulps, and w, q/w and q within
    60 d^2.  The Horner sums move by at most twice the error of their
    argument, so with the coefficients' and the steps' roundings T is
    within 400 d^2 + 12n <= 800 d^2 ulps for a cut of n <= 33 d^2 terms (n
    passes 132 only beyond about 20000 digits).  The lead has modulus at
    least |q|^(1/12) = 2^(-0.755 Im tau) and is within 8 d^2 ulps, and the
    closing products add 2 ulps each.  So the fixed-point value is within
    relative 2^(log2(800 d^2) + 0.755 Im tau - F) (1 + 1/|T|) of the cut
    series, and F = prec + ceil(0.755 Im tau) + bitlen(12 d^2) + 8 makes
    that at most 2^-(prec+1) (1 + 1/|T|), whatever |g| is.  The cut adds
    2^-(prec+1)/|T|, so (x + iy) 2^-F is within relative
    2^-prec (1 + 1/|T|) of g_v; `invariants.G_ON_LOSS_BITS` allows for |T|
    down to 2^-7.
    """
    pt = _point(tau.re, tau.im, prec, d)
    F = pt.bits
    m, r = divmod(u1, d)
    s = u2 % d
    turn = (u2 * (r - d * (m + 1)) + (m + 1) * d * d) % (2 * d * d)
    w = _mul(pt.powers[r], pt.units[s], F)
    qw = _mul(pt.powers[d - r], pt.units[-s % d], F)
    b = r / d
    sx, sy = _power_sum(pt.coef, w, pt.terms(b), F)
    tx, ty = _power_sum(pt.coef, qw, pt.terms(1 - b), F)
    triple = (sx + tx - (1 << F), sy + ty)
    lead = _mul(pt.leads[r], pt.root(turn), F)
    x, y = _mul(_mul(lead, triple, F), pt.inv_euler, F)
    return x, y, F


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


def fricke(index, tau: BigComplex, digits: int) -> BigComplex:
    """Fricke function -2^7 3^3 (g2 g3 / Delta) wp((u1 tau + u2)/d) at
    index = (u1, u2, d).  wp is even, so the row is first taken mod d and
    the lesser of +-row kept."""
    _require_upper(tau)
    prec = working_bits(digits)
    u1, u2, d = _row(index)
    u1, u2 = min((u1 % d, u2 % d), (-u1 % d, -u2 % d))
    g2, g3, delta = g2_g3_delta(tau, digits)
    p, _ = wp(_lattice_point(u1, u2, d, tau, prec), tau, digits)
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


def torsion_xy(ctx: OrderContext, index, digits: int) -> Tuple[BigComplex, BigComplex]:
    """Coordinates (X_v, Y_v) of the torsion point indexed by v = (u1/d, u2/d),
    index = (u1, u2, d), on the model.

    Y uses the principal branch of sqrt((g2 g3/Delta)^3); only Y ratios and
    Y^2 are convention-free.
    """
    if ctx.disc in (-3, -4):
        raise DomainError("model undefined when g2*g3 = 0")
    row = _row(index)
    prec = working_bits(digits)
    tau = ctx.tau(digits)
    g2, g3, delta = g2_g3_delta(tau, digits)
    p, dp = wp(_lattice_point(*row, tau, prec), tau, digits)
    with mp.workprec(prec):
        scale = g2.to_mpc() * g3.to_mpc() / delta.to_mpc()
        X = scale * p.to_mpc()
        Y = mpmath.sqrt(scale**3) * dp.to_mpc()
    return BigComplex.from_mpc(X, prec), BigComplex.from_mpc(Y, prec)
