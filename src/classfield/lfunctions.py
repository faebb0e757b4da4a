"""Partial zeta sums for ray classes, the Kronecker limit formula evaluator,
and derivatives of the order L-functions at s = 0.

Two independent routes compute the same partial zeta data: a direct sum over
integral ideals bucketed by ray class, and the shifted lattice sum attached to
a representing form.  The s = 0 derivative itself is the closed-form finite
sum over class invariants; no analytic continuation machinery is implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp

from . import modfun
from .invariants import g_ON
from .modfun import GUARD_DIGITS
from .numerics import BigComplex, DomainError, bits_for_digits
from .orderideals import (
    _class_bases,
    _unit_elems,
    integral_ideals,
    ray_label,
)
from .quadforms import ClassGroup, Form, OrderContext

__all__ = [
    "Character",
    "ZetaPartial",
    "gamma_ON",
    "zeta_ideal_partial_all",
    "zeta_lattice_partial",
    "log_g_values",
    "lderiv0",
    "fourier_inversion_residual",
    "kronecker_xi",
]


@dataclass(frozen=True)
class Character:
    """A character of the class group, stored as exact exponents in Q/Z."""

    exponents: Tuple[Fraction, ...]

    @classmethod
    def from_class_group(cls, G: ClassGroup, k: int) -> "Character":
        return cls(tuple(G.characters[k]))

    @property
    def order(self) -> int:
        o = 1
        for r in self.exponents:
            o = o * r.denominator // gcd(o, r.denominator)
        return o

    def is_trivial(self) -> bool:
        return all(r == 0 for r in self.exponents)

    def is_real(self) -> bool:
        return all(r.denominator <= 2 for r in self.exponents)

    def conj(self) -> "Character":
        return Character(tuple((-r) % 1 for r in self.exponents))

    def value(self, i: int, prec: int) -> mpmath.mpc:
        r = self.exponents[i]
        with mp.workprec(prec):
            return mpmath.exp(2j * mpmath.pi * mpmath.mpf(r.numerator) / r.denominator)


def gamma_ON(ctx: OrderContext, N: int) -> int:
    """Number of units of O congruent to 1 mod N*O; counted, not assumed."""
    count = 0
    for z in _unit_elems(ctx):
        if (z.x - 1) % N == 0 and z.y % N == 0:
            count += 1
    return count


@dataclass
class ZetaPartial:
    value: BigComplex
    terms: int
    tail_bound: float


def _require_res_gt1(s: BigComplex) -> None:
    if not s.re > 1:
        raise DomainError("partial zeta sums need Re(s) > 1")


def _sympy_roots(ctx: OrderContext):
    from sympy.ntheory.residue_ntheory import sqrt_mod

    def roots(a: int) -> List[int]:
        r = sqrt_mod(ctx.disc, 4 * a, all_roots=True)
        return sorted(r) if r else []

    return roots


def zeta_ideal_partial_all(
    ctx: OrderContext, N: int, s: BigComplex, bound: int, digits: int = 30
) -> Dict[Tuple, ZetaPartial]:
    """Partial zeta values for every ray class at once, from one enumeration."""
    _require_res_gt1(s)
    bases = _class_bases(ctx, N)
    norms: Dict[Tuple, List[int]] = {}
    roots = _sympy_roots(ctx)
    for norm, L in integral_ideals(ctx, bound, coprime_to=N, sqrt_roots=roots):
        lab = ray_label(L, N, bases)
        norms.setdefault(lab, []).append(norm)
    prec = bits_for_digits(digits + GUARD_DIGITS)
    out = {}
    with mp.workprec(prec):
        s_ = s.to_mpc()
        for lab, ns in norms.items():
            ns.sort()
            total = mpmath.mpc(0)
            for n in ns:
                total += mpmath.exp(-s_ * mpmath.log(n))
            # near-linear ideal count growth: sum_{n > B} count'(n)/n^Re(s)
            kappa = len(ns) / bound
            tail = float(2 * kappa * bound ** (1 - float(s.re)) / (float(s.re) - 1))
            out[lab] = ZetaPartial(BigComplex.from_mpc(total, prec), len(ns), tail)
    return out


def zeta_lattice_partial(
    Q: Form, ctx: OrderContext, N: int, s: BigComplex, M: int, digits: int = 30
) -> ZetaPartial:
    """The form-side lattice sum over the box max(|m|, |n|) <= M.

    Terms are accumulated in decreasing magnitude; the tail bound is the
    integral estimate for the square cutoff.
    """
    _require_res_gt1(s)
    if gcd(Q.a, N) != 1:
        raise DomainError("form must be coprime to the level")
    a = Q.a
    a_inv = pow(a, -1, N) if N > 1 else 1
    gamma = gamma_ON(ctx, N)
    prec = bits_for_digits(digits + GUARD_DIGITS)
    w = Q.point(digits + GUARD_DIGITS)
    with mp.workprec(prec):
        wx, wy = w.re, w.im
        shift = mpmath.mpf(a_inv) / N
        sr = float(s.re)
        s_int = int(s.re) if (s.im == 0 and s.re == int(s.re)) else None
        s_ = s.to_mpc()
        one = mpmath.mpf(1)
        # |mw + n + shift|^2 per term, row-incrementally; ranked largest first
        terms = []
        for m in range(-M, M + 1):
            row_re = m * wx + shift - (M + 1)
            my2 = (m * wy) ** 2
            for n in range(-M, M + 1):
                row_re += 1
                if N == 1 and m == 0 and n == -a_inv:
                    continue
                z2 = row_re * row_re + my2
                terms.append((float(z2), z2))
        terms.sort(key=lambda t: t[0])
        total = mpmath.mpc(0)
        if s_int is not None:
            for _, z2 in terms:
                total += one / z2**s_int
        else:
            for _, z2 in terms:
                total += mpmath.exp(-s_ * mpmath.log(z2))
        pref = mpmath.exp(-s_ * mpmath.log(mpmath.mpf(N * N * a))) / gamma
        total *= pref
        # |m w + n + shift| >= kappa * max(|m|, |n|) on rings beyond the box
        kappa = min(float(wy) / (2 * (abs(float(wx)) + 1)), 0.25)
        tail = 8 * kappa ** (-2 * sr) * M ** (2 - 2 * sr) / (2 * sr - 2)
        tail *= abs(float((N * N * a) ** (-sr))) / gamma
    return ZetaPartial(BigComplex.from_mpc(total, prec), len(terms), float(tail))


def log_g_values(G: ClassGroup, ctx: OrderContext, digits: int) -> List[mpmath.mpf]:
    """ln|g(C)| for every class, at working precision."""
    prec = bits_for_digits(digits + GUARD_DIGITS)
    out = []
    for Q in G.reps:
        g = g_ON(Q, ctx, G.level, digits)
        with mp.workprec(prec):
            out.append(mpmath.log(abs(g.to_mpc())))
    return out


def lderiv0(
    chi: Character,
    G: ClassGroup,
    ctx: OrderContext,
    digits: int,
    logs: Optional[Sequence[mpmath.mpf]] = None,
) -> BigComplex:
    """L'(0, chi) = -1/(gamma 6N) * sum_C chi(C) ln|g(C)|."""
    N = G.level
    logs = logs if logs is not None else log_g_values(G, ctx, digits)
    gamma = gamma_ON(ctx, N)
    prec = bits_for_digits(digits + GUARD_DIGITS)
    with mp.workprec(prec):
        total = mpmath.mpc(0)
        for i in range(G.order):
            total += chi.value(i, prec) * logs[i]
        total *= mpmath.mpf(-1) / (gamma * 6 * N)
    return BigComplex.from_mpc(total, prec)


def fourier_inversion_residual(
    G: ClassGroup,
    ctx: OrderContext,
    values: Sequence[BigComplex],
    logs: Sequence[mpmath.mpf],
    prec: int,
) -> mpmath.mpf:
    """max_i |scale * sum_k conj chi_k(C_i) L'(0, chi_k) - ln|g(C_i)||.

    Finite Fourier inversion of lderiv0 with scale = -gamma 6N / |G|:
    values[k] is L'(0, chi_k) for every character k, at `prec` bits.
    """
    chars = [Character.from_class_group(G, k) for k in range(G.order)]
    with mp.workprec(prec):
        scale = mpmath.mpf(-gamma_ON(ctx, G.level) * 6 * G.level) / G.order
        worst = mpmath.mpf(0)
        for i in range(G.order):
            acc = mpmath.mpc(0)
            for k in range(G.order):
                acc += mpmath.conj(chars[k].value(i, prec)) * values[k].to_mpc()
            worst = max(worst, abs(scale * acc - logs[i]))
    return worst


def _on_lattice(omega: BigComplex, z: BigComplex, prec: int) -> bool:
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
    (omega - conj omega)/(z - conj z))|^2).  Formula evaluator only.
    """
    prec = bits_for_digits(digits + GUARD_DIGITS)
    if not z.im > 0:
        raise DomainError("z must lie in the upper half-plane")
    e = modfun.eta(z, digits)
    if inside:
        with mp.workprec(prec):
            xi0 = BigComplex(-1, 0, prec)
            val = -mpmath.log(abs(4 * mpmath.pi**2 * e.to_mpc() ** 4))
        return xi0, BigComplex.from_mpc(val, prec)
    if _on_lattice(omega, z, prec):
        raise DomainError("omega lies on the lattice in the outside branch")
    th = modfun.theta1(omega, z, digits)
    with mp.workprec(prec):
        w = omega.to_mpc()
        zz = z.to_mpc()
        corr = mpmath.exp(1j * mpmath.pi * w * (w - mpmath.conj(w)) / (zz - mpmath.conj(zz)))
        val = -2 * mpmath.log(abs(th.to_mpc() / e.to_mpc() * corr))
    return BigComplex(0, 0, prec), BigComplex.from_mpc(val, prec)
