"""Fraction-backed reference algebra for the integer ideals of
classfield.orderideals.

QuadElem is x + y*tau with rational x, y; QuadLattice is a rank-2 lattice
(1/den)(Z(g*tau + t) + Z*m), possibly fractional.  principal_generator and
same_ray_class are the slow-path P_N(O) tests that ray labels are checked
against.  to_ideal and to_lattice convert between a reference lattice and
the integer Ideal that production code uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from classfield.numerics import DomainError, InvariantViolation
from classfield.orderideals import Ideal
from classfield.quadforms import Form, OrderContext, _unit_coords, reduce_form, xgcd


@dataclass(frozen=True)
class QuadElem:
    """x + y*tau with rational x, y; arithmetic uses tau^2 = -b0*tau - c0."""

    ctx: OrderContext
    x: Fraction
    y: Fraction

    @classmethod
    def of(cls, ctx: OrderContext, x, y=0) -> "QuadElem":
        return cls(ctx, Fraction(x), Fraction(y))

    def __add__(self, o: "QuadElem") -> "QuadElem":
        return QuadElem(self.ctx, self.x + o.x, self.y + o.y)

    def __sub__(self, o: "QuadElem") -> "QuadElem":
        return QuadElem(self.ctx, self.x - o.x, self.y - o.y)

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.ctx, -self.x, -self.y)

    def __mul__(self, o) -> "QuadElem":
        if isinstance(o, (int, Fraction)):
            return QuadElem(self.ctx, self.x * o, self.y * o)
        b0, c0 = self.ctx.b0, self.ctx.c0
        x1, y1, x2, y2 = self.x, self.y, o.x, o.y
        return QuadElem(
            self.ctx,
            x1 * x2 - c0 * y1 * y2,
            x1 * y2 + x2 * y1 - b0 * y1 * y2,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadElem":
        # conj(tau) = -b0 - tau
        return QuadElem(self.ctx, self.x - self.ctx.b0 * self.y, -self.y)

    def norm(self) -> Fraction:
        return self.x * self.x - self.ctx.b0 * self.x * self.y + self.ctx.c0 * self.y * self.y

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise DomainError("division by zero")
        return self.conj() * (Fraction(1) / n)

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __repr__(self):
        return f"QuadElem({self.x} + {self.y}*tau)"


class QuadLattice:
    """Rank-2 lattice in K, canonical basis (1/den)*(Z(g*tau + t) + Z*m).

    Invariants: g, m > 0, 0 <= t < m, gcd(den, g, t, m) = 1.  The ordered
    basis (alpha, beta) = ((g*tau + t)/den, m/den) has Im(alpha/beta) > 0.
    """

    __slots__ = ("ctx", "den", "g", "t", "m")

    def __init__(self, ctx: OrderContext, den: int, g: int, t: int, m: int):
        if den <= 0 or g <= 0 or m <= 0:
            raise DomainError("degenerate lattice")
        t %= m
        d = gcd(gcd(den, g), gcd(t, m)) or 1
        self.ctx = ctx
        self.den = den // d
        self.g = g // d
        self.t = t // d
        self.m = m // d

    # -- construction ----------------------------------------------------

    @classmethod
    def from_elems(cls, ctx: OrderContext, elems: Sequence[QuadElem]) -> "QuadLattice":
        """Hermite form of the Z-span of the given elements."""
        den = lcm(*(lcm(e.x.denominator, e.y.denominator) for e in elems)) if elems else 1
        rows = [(int(e.x * den), int(e.y * den)) for e in elems if not e.is_zero()]
        if not rows:
            raise DomainError("zero lattice")
        # eliminate the tau-coordinate: bring to a single (t, g) with minimal g > 0
        g, tcoef = 0, 0
        rest = []
        for (x, y) in rows:
            if y == 0:
                rest.append(x)
                continue
            if g == 0:
                g, tcoef = abs(y), x if y > 0 else -x
                continue
            d, u, v = xgcd(g, y)
            # new generator with tau-part d; the eliminated combination stays
            new_t = u * tcoef + v * x
            rest.append((g // d) * x - (y // d) * tcoef)
            g, tcoef = d, new_t
        if g == 0:
            raise DomainError("lattice has rank < 2")
        m = 0
        for x in rest:
            m = gcd(m, x)
        if m == 0:
            raise DomainError("lattice has rank < 2")
        return cls(ctx, den, g, tcoef, m)

    @classmethod
    def order(cls, ctx: OrderContext) -> "QuadLattice":
        return cls(ctx, 1, 1, 0, 1)

    def basis(self) -> Tuple[QuadElem, QuadElem]:
        a = QuadElem(self.ctx, Fraction(self.t, self.den), Fraction(self.g, self.den))
        b = QuadElem(self.ctx, Fraction(self.m, self.den), Fraction(0))
        return a, b

    # -- predicates ------------------------------------------------------

    def key(self) -> Tuple[int, int, int, int]:
        return (self.den, self.g, self.t, self.m)

    def __eq__(self, other):
        return isinstance(other, QuadLattice) and self.key() == other.key() and self.ctx == other.ctx

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"QuadLattice((({self.g}*tau + {self.t}) Z + {self.m} Z)/{self.den})"

    def contains(self, e: QuadElem) -> bool:
        yy = e.y * self.den
        if yy.denominator != 1 or int(yy) % self.g:
            return False
        n2 = int(yy) // self.g
        xx = e.x * self.den - n2 * self.t
        return xx.denominator == 1 and int(xx) % self.m == 0

    def is_o_module(self) -> bool:
        tau = QuadElem(self.ctx, Fraction(0), Fraction(1))
        a, b = self.basis()
        return self.contains(tau * a) and self.contains(tau * b)

    def is_integral(self) -> bool:
        return self.den == 1

    def norm(self) -> Fraction:
        """Generalized index |O / L|, multiplicative on proper ideals."""
        return Fraction(self.g * self.m, self.den * self.den)

    # -- arithmetic ------------------------------------------------------

    def mul(self, other: "QuadLattice") -> "QuadLattice":
        a1, b1 = self.basis()
        a2, b2 = other.basis()
        return QuadLattice.from_elems(self.ctx, [a1 * a2, a1 * b2, b1 * a2, b1 * b2])

    def scale(self, s) -> "QuadLattice":
        a, b = self.basis()
        if isinstance(s, QuadElem):
            return QuadLattice.from_elems(self.ctx, [a * s, b * s])
        s = Fraction(s)
        return QuadLattice.from_elems(self.ctx, [a * s, b * s])

    def conj(self) -> "QuadLattice":
        a, b = self.basis()
        return QuadLattice.from_elems(self.ctx, [a.conj(), b.conj()])

    def to_form(self) -> Form:
        """The quadratic form N(x*beta - y*alpha)/N(L) attached to the basis."""
        a, b = self.basis()
        n = self.norm()
        fa = b.norm() / n
        fb = -(a * b.conj() + a.conj() * b).x / n  # trace of alpha*conj(beta)
        fc = a.norm() / n
        if any(v.denominator != 1 for v in (fa, fb, fc)):
            raise DomainError("lattice is not proper for this order")
        return Form(int(fa), int(fb), int(fc))

    def is_proper_ideal(self) -> bool:
        if not self.is_o_module():
            return False
        try:
            return self.to_form().disc == self.ctx.disc
        except DomainError:
            return False


def fractional_omega_lattice(ctx: OrderContext, Q: Form) -> QuadLattice:
    """[omega_Q, 1] itself (fractional unless a = 1)."""
    half = (ctx.b0 - Q.b) // 2
    return QuadLattice(ctx, Q.a, 1, half % (Q.a), Q.a)


def principal_generator(L: QuadLattice) -> Optional[QuadElem]:
    """nu with L = nu*O, or None; via reduction of the attached form.

    The reduction witness, applied to the basis, lands the basis ratio on
    tau itself, so the second transformed basis vector is a generator.
    """
    try:
        Q = L.to_form()
    except DomainError:
        return None
    R, gam = reduce_form(Q)
    if R != L.ctx.principal_form():
        return None
    # applying gamma to the form transforms the basis by gamma^-1
    p, q, r, s = gam
    alpha, beta = L.basis()
    alpha2 = alpha * s - beta * q
    beta2 = beta * p - alpha * r
    tau = QuadElem(L.ctx, Fraction(0), Fraction(1))
    if alpha2 != beta2 * tau:
        raise InvariantViolation("reduction witness did not reach the trivial basis")
    return beta2


def _unit_elems(ctx: OrderContext) -> List[QuadElem]:
    return [QuadElem.of(ctx, x, y) for (x, y) in _unit_coords(ctx)]


def _congruent_mod_no(w: QuadElem, v: QuadElem, N: int) -> bool:
    d = w - v
    return (
        d.x.denominator == 1
        and d.y.denominator == 1
        and int(d.x) % N == 0
        and int(d.y) % N == 0
    )


def _integral_ray_model(L: QuadLattice, N: int) -> QuadLattice:
    """Integral ideal in the same ray class: scale by den*(den^-1 mod N), a
    positive multiple of den that is 1 mod N (den itself at N = 1)."""
    if L.den == 1:
        return L
    if gcd(L.den, N) != 1:
        raise DomainError("ideal is not prime to the level")
    k = L.den * pow(L.den, -1, N) if N > 1 else L.den
    return QuadLattice(L.ctx, L.den, k * L.g, k * L.t, k * L.m)


def same_ray_class(a: QuadLattice, b: QuadLattice, N: int) -> bool:
    """Whether b*a^-1 lies in P_N(O).

    For integral a, b prime to N this reduces to: the integral ideal
    b*conj(a) is principal with generator w satisfying w = zeta * N(a)
    mod N*O for some unit zeta.
    """
    ctx = a.ctx
    for L in (a, b):
        if not L.is_proper_ideal():
            raise DomainError("input is not a proper O-ideal")
    a = _integral_ray_model(a, N)
    b = _integral_ray_model(b, N)
    for L in (a, b):
        if gcd(int(L.norm()), N) != 1:
            raise DomainError("ideal is not prime to the level")
    w = principal_generator(b.mul(a.conj()))
    if w is None:
        return False
    na = QuadElem.of(ctx, int(a.norm()), 0)
    return any(_congruent_mod_no(w, z * na, N) for z in _unit_elems(ctx))


def to_ideal(L: QuadLattice) -> Ideal:
    """The Ideal with the Hermite basis of an integral reference lattice."""
    if not L.is_integral():
        raise DomainError("an Ideal is integral")
    return Ideal(L.g, L.t, L.m)


def to_lattice(ctx: OrderContext, ideal: Ideal) -> QuadLattice:
    """The reference lattice of an Ideal."""
    return QuadLattice(ctx, 1, *ideal)


def scaled(ctx: OrderContext, ideal: Ideal, s) -> Ideal:
    """s*ideal for an integer or an integral QuadElem s, through the reference."""
    return to_ideal(to_lattice(ctx, ideal).scale(s))
