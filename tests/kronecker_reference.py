"""The first Jacobi theta function and the closed forms of Kronecker's limit
formula, kept as test references.

Nothing in classfield calls them: the L-derivatives take ln|g(C)| from the
Siegel functions (`invariants.g_ON`), and the tests compare those logarithms
against `kronecker_xi`.  theta1 sums the triple product by the mpmath series
of `series_reference`, not by `modfun`'s fixed-point kernel, so that
comparison shares no series code with `modfun.siegel`.
"""

from __future__ import annotations

from typing import Tuple

import mpmath
from mpmath import mp

from classfield import modfun
from classfield.numerics import BigComplex, DomainError, working_bits
from series_reference import point, triple


def theta1(omega: BigComplex, z: BigComplex, digits: int) -> BigComplex:
    """First Jacobi theta 2 q^(1/8) sin(pi omega) prod_{n>=1} (1 - q^n)(1 - q^n x)(1 - q^n/x),
    q = e(z), x = e(omega).

    As 2 sin(pi omega) = i e(-omega/2) (1 - x), this is i q^(1/8) e(-omega/2)
    times the triple sum.  omega is first moved into 0 <= Im omega < Im z by
    theta1(omega + m z) = (-1)^m e(-m^2 z/2 - m omega) theta1(omega).
    """
    modfun._require_upper(z)
    prec = working_bits(digits)
    pt = point(z.re, z.im, prec)
    with mp.workprec(prec):
        z_ = z.to_mpc()
        w = omega.to_mpc()
        m = int(mpmath.floor(w.imag / z_.imag))
        w -= m * z_
        b = min(max(float(w.imag / z_.imag), 0.0), 1.0)
        lead = modfun._qexp(z_ / 8 - w / 2 - m * m * z_ / 2 - m * w)
        val = (-1) ** m * 1j * lead * triple(pt, modfun._qexp(w), b)
    return BigComplex.from_mpc(val, prec)


def on_lattice(omega: BigComplex, z: BigComplex, prec: int) -> bool:
    with mp.workprec(prec):
        m = mpmath.nint(omega.im / z.im)
        n = mpmath.nint(omega.re - m * z.re)
        r = abs(omega.to_mpc() - (m * z.to_mpc() + n))
        return bool(r < mpmath.mpf(2) ** (-prec // 2))


def kronecker_xi(
    inside: bool, omega: BigComplex, z: BigComplex, digits: int
) -> Tuple[BigComplex, BigComplex]:
    """Closed forms (xi(0), xi'(0)) of the shifted lattice zeta.

    inside=True is the branch omega in [z, 1]: (-1, -ln|4 pi^2 eta(z)^4|).
    Outside the lattice: (0, -ln|theta1(omega, z)/eta(z) * exp(pi i omega
    (omega - conj omega)/(z - conj z))|^2).
    """
    prec = working_bits(digits)
    if not z.im > 0:
        raise DomainError("z must lie in the upper half-plane")
    e = modfun.eta(z, digits)
    if inside:
        with mp.workprec(prec):
            xi0 = BigComplex(-1, 0, prec)
            val = -mpmath.log(abs(4 * mpmath.pi**2 * e.to_mpc() ** 4))
        return xi0, BigComplex.from_mpc(val, prec)
    if on_lattice(omega, z, prec):
        raise DomainError("omega lies on the lattice in the outside branch")
    th = theta1(omega, z, digits)
    with mp.workprec(prec):
        w = omega.to_mpc()
        zz = z.to_mpc()
        corr = mpmath.exp(1j * mpmath.pi * w * (w - mpmath.conj(w)) / (zz - mpmath.conj(zz)))
        val = -2 * mpmath.log(abs(th.to_mpc() / e.to_mpc() * corr))
    return BigComplex(0, 0, prec), BigComplex.from_mpc(val, prec)
