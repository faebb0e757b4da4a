"""Ray class invariants of Fricke families, their Galois orbits, and integer
minimal-polynomial reconstruction.

A class [Q] is evaluated through the explicit matrix route: the invariant is
the family member at index v*M evaluated at -conj(omega_Q), with
M = [[1, -a'(b+b0)/2], [0, a']] and a*a' = 1 mod N.  The general ideal route
is kept alongside as the independence check: it reads a basis of the inverse
ideal and the change-of-basis matrix off any integral ideal's form, in exact
integers (orderideals._ideal_form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Literal, Optional, Tuple

import mpmath
from mpmath import mp

from . import modfun
from .modfun import FrickeIndex
from .numerics import (
    GUARD_DIGITS,
    BigComplex,
    DomainError,
    PrecisionPolicy,
    bits_for_digits,
    recognize_integer,
    working_bits,
)
from .orderideals import QuadLattice, _ideal_form, form_to_lattice
from .quadforms import ClassGroup, Form, OrderContext, class_enumerate, reduce_form

__all__ = [
    "FamilyId",
    "InvariantValue",
    "MinimalPolynomialResult",
    "class_invariant",
    "general_invariant",
    "g_ON",
    "g_ON_from_ideal",
    "conjugate_orbit",
    "minimal_polynomial",
]

FamilyKind = Literal["fricke_f", "siegel_12N", "j_rational"]


@dataclass(frozen=True)
class FamilyId:
    """A Fricke family (or a rational function of j) used as invariant source."""

    kind: FamilyKind
    index: Optional[FrickeIndex] = None

    def __post_init__(self):
        if self.kind in ("fricke_f", "siegel_12N") and self.index is None:
            raise DomainError(f"{self.kind} needs a base index vector")

    @classmethod
    def siegel_power(cls, N: int) -> "FamilyId":
        return cls("siegel_12N", FrickeIndex.of(0, Fraction(1, N)))

    @classmethod
    def fricke(cls, v1, v2) -> "FamilyId":
        return cls("fricke_f", FrickeIndex.of(v1, v2))

    @classmethod
    def j(cls) -> "FamilyId":
        return cls("j_rational")


@dataclass(frozen=True)
class InvariantValue:
    class_index: int
    value: BigComplex
    family: FamilyId
    matrix: Tuple[int, int, int, int]


def _check_ctx(ctx: OrderContext) -> None:
    if ctx.disc in (-3, -4):
        raise DomainError("discriminants -3 and -4 are excluded here")


def _family_value_at(family: FamilyId, index_matrix, Qxi: Form, N: int, digits: int) -> BigComplex:
    """Family member at index v*M, evaluated at the root xi of Qxi via a
    Gauss-reduced point.

    h_w(xi) = h_{w gamma}(omega_R) for the reduction witness Q_xi^gamma = R,
    which keeps the evaluation point high in the upper half-plane regardless
    of the representative's size.
    """
    R, gam = reduce_form(Qxi)
    point = R.omega(digits + GUARD_DIGITS)
    if family.kind == "j_rational":
        return modfun.delta_j(point, digits)[1]
    idx = family.index.act(index_matrix).act(tuple(gam)).normalized()
    if family.kind == "fricke_f":
        return modfun.fricke(idx, point, digits)
    # 12N-th Siegel power: the family axiom moves the index, the power is fixed
    return modfun.siegel(idx, point, digits) ** (12 * N)


def _fmatrix(Q: Form, ctx: OrderContext, N: int) -> Tuple[int, int, int, int]:
    a_inv = pow(Q.a, -1, N) if N > 1 else 1
    return (1, -a_inv * (Q.b + ctx.b0) // 2, 0, a_inv)


def class_invariant(
    family: FamilyId, Q: Form, ctx: OrderContext, N: int, digits: int
) -> BigComplex:
    """Invariant of the class [Q] via the explicit matrix route."""
    _check_ctx(ctx)
    if Q.disc != ctx.disc:
        raise DomainError("form does not belong to the order")
    if gcd(Q.a, N) != 1:
        raise DomainError("leading coefficient must be coprime to the level")
    M = _fmatrix(Q, ctx, N)
    # the evaluation point -conj(omega_Q) = (b + sqrt(D))/(2a) is the root of (a, -b, c)
    return _family_value_at(family, M, Form(Q.a, -Q.b, Q.c), N, digits)


def general_invariant(
    family: FamilyId, ideal: QuadLattice, ctx: OrderContext, N: int, digits: int
) -> BigComplex:
    """Invariant from an arbitrary integral ideal representative.

    For L = g*(Z(tau + h) + Z*a) with form Q = (a, b, c), the inverse ideal
    conj(L)/N(L) has the basis xi1 = (tau + b0 - h)/(g*a), xi2 = 1/g, so
    (tau, 1)^t = A (xi1, xi2)^t with A = [[g*a, g*(h - b0)], [0, g]].  The
    family index moves by A and the evaluation point xi1/xi2 = (b + sqrt(D))/(2a)
    is the root of (a, -b, c).
    """
    _check_ctx(ctx)
    if not ideal.is_integral():
        raise DomainError("need an integral proper O-ideal")
    g, h, Q = _ideal_form(ideal)
    if gcd(g * Q.a, N) != 1:
        raise DomainError("ideal must be prime to the level")
    A = (g * Q.a, g * (h - ctx.b0), 0, g)
    return _family_value_at(family, A, Form(Q.a, -Q.b, Q.c), N, digits)


def g_ON(Q: Form, ctx: OrderContext, N: int, digits: int) -> BigComplex:
    """The class invariant used in the L-derivative formula.

    N >= 2: the 12N-th Siegel power at index [0, 1/N].  N = 1: the positive
    real (2 pi)^12 N([xi,1])^6 |eta(xi)|^24 from any ideal representative.
    """
    if N >= 2:
        return class_invariant(FamilyId.siegel_power(N), Q, ctx, N, digits)
    return g_ON_from_ideal(form_to_lattice(ctx, Q), ctx, 1, digits)


def g_ON_from_ideal(L: QuadLattice, ctx: OrderContext, N: int, digits: int) -> BigComplex:
    if N >= 2:
        return general_invariant(FamilyId.siegel_power(N), L, ctx, N, digits)
    # (2 pi)^12 N([xi,1])^6 |Delta([xi,1])| is basis- and scale-free, so it may
    # be read off the reduced form of the inverse ideal's class, (a, -b, c);
    # L may be fractional, since its form does not see the scale
    _, _, Q = _ideal_form(L)
    R, _ = reduce_form(Form(Q.a, -Q.b, Q.c))
    prec = working_bits(digits)
    e = modfun.eta(R.omega(digits + GUARD_DIGITS), digits)
    with mp.workprec(prec):
        val = (2 * mpmath.pi) ** 12 * mpmath.mpf(R.a) ** -6 * abs(e.to_mpc()) ** 24
    return BigComplex.from_mpc(val, prec)


def conjugate_orbit(
    family: FamilyId, G: ClassGroup, ctx: OrderContext, digits: int
) -> List[InvariantValue]:
    """All Galois conjugates {f(C)}: one invariant per class, no field arithmetic."""
    out = []
    for i, Q in enumerate(G.reps):
        M = _fmatrix(Q, ctx, G.level)
        val = class_invariant(family, Q, ctx, G.level, digits)
        out.append(InvariantValue(i, val, family, M))
    return out


@dataclass
class MinimalPolynomialResult:
    disc: int
    level: int
    degree: int
    ok: bool
    coefficients: Optional[List[int]]  # descending, leading first
    residuals: List[float]
    precision_used: int  # decimal digits of the successful (or last) pass
    escalations: int
    unrecognized: Optional[List[str]] = None

    def to_json(self) -> dict:
        out = {
            "disc": str(self.disc),
            "level": str(self.level),
            "degree": str(self.degree),
            "ok": self.ok,
            "coefficients": [str(c) for c in self.coefficients] if self.ok else None,
            "residuals": [float(r) for r in self.residuals],
            "precision_used": str(self.precision_used),
            "escalations": str(self.escalations),
        }
        if self.unrecognized is not None:
            out["unrecognized"] = self.unrecognized
        return out


def _expand_monic(values: List[BigComplex], prec: int) -> List[mpmath.mpc]:
    """Coefficients (ascending) of prod (x - v)."""
    with mp.workprec(prec):
        coeffs = [mpmath.mpc(1)]
        for v in values:
            z = v.to_mpc()
            new = [mpmath.mpc(0)] * (len(coeffs) + 1)
            for k, ck in enumerate(coeffs):
                new[k] -= ck * z
                new[k + 1] += ck
            coeffs = new
    return coeffs


def minimal_polynomial(
    ctx: OrderContext,
    N: int,
    policy: PrecisionPolicy,
    class_group: Optional[ClassGroup] = None,
) -> MinimalPolynomialResult:
    """Expand prod_C (x - g_ON(C)) and recognize integer coefficients.

    On recognition failure the target precision doubles, up to the policy's
    escalation budget; a persistent failure returns the high-precision
    coefficients and residuals instead of rounding anything silently.
    """
    _check_ctx(ctx)
    if N < 2:
        raise DomainError("minimal polynomial needs level >= 2")
    G = class_group or class_enumerate(ctx, N)
    tol = policy.recognition_tol()
    pol = policy
    for attempt in range(policy.max_escalations + 1):
        digits, working = pol.target_decimal_digits, pol.working_digits
        prec = bits_for_digits(working)
        values = [g_ON(Q, ctx, N, digits) for Q in G.reps]
        coeffs = _expand_monic(values, prec)
        ints: List[Optional[int]] = []
        residuals: List[float] = []
        with mp.workprec(prec):
            for c in coeffs:
                bc = BigComplex.from_mpc(c, prec)
                n = recognize_integer(bc, tol)
                ints.append(n)
                r = abs(c.imag) if n is None else max(abs(c.real - n), abs(c.imag))
                residuals.append(float(r))
        ints_desc = ints[::-1]
        residuals_desc = residuals[::-1]
        if all(n is not None for n in ints_desc):
            return MinimalPolynomialResult(
                ctx.disc, N, G.order, True, ints_desc, residuals_desc, digits, attempt
            )
        pol = pol.escalate()
    with mp.workprec(prec):
        raw = [BigComplex.from_mpc(c, prec).to_decimal(working) for c in coeffs[::-1]]
    return MinimalPolynomialResult(
        ctx.disc, N, G.order, False, None, residuals_desc, digits, policy.max_escalations, raw
    )
