"""Exact ideal arithmetic in imaginary quadratic orders and the ideal-side
ray class group oracle.

Elements are x + y*tau over Q, lattices are kept in a canonical Hermite basis
(1/d)(Z(g*tau + t) + Z*m).  A ray class modulo N is named by an exact integer
label: the reduced form of the class and, up to units, the generator residue
mod N*O of the ideal times a fixed base ideal's conjugate.  The oracle buckets
integral ideals by label and fills its table from the label group law.  This
module is the independent ground truth against which the form-side class group
is checked.

An ideal's form, its reduced form and the matching basis change come from one
integer pair, _ideal_form and _reduced_basis, which serves the ray labels, the
base ideals' generators and invariants.general_invariant.  The Fraction
algebra of QuadElem and QuadLattice multiplies the base ideals of the oracle's
table law and backs the references principal_generator and same_ray_class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .numerics import DomainError, InvariantViolation, ResourceError
from .quadforms import (
    Form,
    OrderContext,
    _expected_order,
    _unit_coords,
    enumerate_reduced,
    make_coprime,
    reduce_form,
    xgcd,
)

__all__ = [
    "QuadElem",
    "QuadLattice",
    "IdealClassOracle",
    "same_ray_class",
    "oracle_class_group",
    "form_to_lattice",
    "principal_generator",
    "integral_ideals",
]


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


def form_to_lattice(ctx: OrderContext, Q: Form, scale: int = 1) -> QuadLattice:
    """scale * a * [omega_Q, 1], the integral ideal attached to Q."""
    if Q.disc != ctx.disc:
        raise DomainError("form and order discriminants differ")
    # a*omega_Q = ((b0 - b)/2 + tau), basis {a*omega, a}
    half = (ctx.b0 - Q.b) // 2
    return QuadLattice(ctx, 1, scale, scale * half % (scale * Q.a), scale * Q.a)


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


# ---------------------------------------------------------------------------
# enumeration and the oracle class group


def _sqrt_mod_prime(n: int, p: int) -> Optional[int]:
    """A square root of n modulo the odd prime p, or None (Tonelli-Shanks)."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, r, t = pow(z, q, p), pow(n, (q + 1) // 2, p), pow(n, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        r, c, t, e = r * b % p, b * b % p, t * b * b % p, i
    return r


def _disc_roots(D: int, a: int) -> List[int]:
    """The b in [0, 2a) with b^2 = D mod 4a, ascending.

    Roots mod 2m are built up as m runs through the prime factors of a, found
    by trial division.  The first power of an odd prime p joins the roots
    +-s of D mod p to those mod 2m by CRT; for p = 2 or a repeated p, each
    root r mod 2m is tried at its p lifts r + 2m*k.
    """
    roots = [b for b in (0, 1) if (b * b - D) % 4 == 0]
    m, rest, p = 1, a, 2
    while rest > 1 and roots:
        if p * p > rest:
            p = rest
        if rest % p:
            p += 1
            continue
        rest //= p
        if p > 2 and m % p:
            s = _sqrt_mod_prime(D, p)
            if s is None:
                return []
            k = pow(2 * m, -1, p)
            roots = [r + 2 * m * ((t - r) * k % p) for r in roots for t in {s, -s % p}]
        else:
            step, mod = 2 * m, 4 * m * p
            roots = [b for r in roots for b in range(r, step * p, step) if (b * b - D) % mod == 0]
        m *= p
    return sorted(roots)


def integral_ideals(
    ctx: OrderContext, bound: int, coprime_to: int = 1
) -> Iterator[Tuple[int, QuadLattice]]:
    """(norm, ideal) for proper integral ideals of norm <= bound prime to
    `coprime_to`; primitive ideals come from forms (a, b mod 2a), and integer
    multiples m*ideal account for the imprimitive ones.

    Ideals come in order of a, then b ascending in [0, 2a), then m; the
    oracle's representatives are the first ideal of each class in this order.
    """
    for a in range(1, bound + 1):
        if gcd(a, coprime_to) != 1:
            continue
        for b in _disc_roots(ctx.disc, a):
            c = (b * b - ctx.disc) // (4 * a)
            if gcd(gcd(a, b), c) != 1:
                continue  # not a proper O-ideal
            Q = Form(a, b, c)
            m = 1
            while m * m * a <= bound:
                if gcd(m, coprime_to) == 1:
                    yield m * m * a, form_to_lattice(ctx, Q, scale=m)
                m += 1


@dataclass
class IdealClassOracle:
    """Ray classes of C_N(O) found by direct bucketing of integral ideals."""

    ctx: OrderContext
    level: int
    reps: List[QuadLattice]
    labels: List[Tuple]
    table: List[List[int]]
    norm_bound: int
    bases: ClassBases = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.reps)

    def __post_init__(self):
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, L: QuadLattice) -> int:
        """Index of the ray class of L, a proper ideal prime to N."""
        if gcd(L.den * L.g * L.m, self.level) != 1:
            raise DomainError(f"{L} is not prime to the level {self.level}")
        lab = ray_label(_integral_ray_model(L, self.level), self.level, self.bases)
        i = self._index.get(lab)
        if i is None:
            raise InvariantViolation(f"{L} has ray label {lab}, which no class has")
        return i

    def to_json(self) -> dict:
        return {
            "disc": str(self.ctx.disc),
            "level": str(self.level),
            "reps": [[str(v) for v in L.key()] for L in self.reps],
            "table": self.table,
            "norm_bound": str(self.norm_bound),
        }


class ClassBases(NamedTuple):
    """One base ideal B_R per reduced form R, prime to l_O*N so generator
    residues of quotients land in (O/NO)*, and the generator c_R = (x, y),
    meaning x + y*tau, of the principal ideal form_to_lattice(R)*conj(B_R)."""

    lattice: Dict[Form, QuadLattice]
    gen: Dict[Form, Tuple[int, int]]


def _class_bases(ctx: OrderContext, N: int) -> ClassBases:
    lattice, gen = {}, {}
    for R in enumerate_reduced(ctx.disc):
        _, lifted = make_coprime(R, ctx.conductor * N)
        B = form_to_lattice(ctx, lifted)
        # B = (beta/a_R)*F_R, so F_R*conj(B) = conj(beta)*N(F_R)/a_R = conj(beta)*O
        R_B, (x, y) = _reduced_basis(B)
        if R_B != R:
            raise InvariantViolation("a reduced form and its base ideal are not in one class")
        lattice[R], gen[R] = B, (x - ctx.b0 * y, -y)
    return ClassBases(lattice, gen)


def _elem_mul(ctx: OrderContext, u: Tuple[int, int], v: Tuple[int, int]) -> Tuple[int, int]:
    # (x1 + y1*tau)(x2 + y2*tau) with tau^2 = -b0*tau - c0
    (x1, y1), (x2, y2) = u, v
    return x1 * x2 - ctx.c0 * y1 * y2, x1 * y2 + x2 * y1 - ctx.b0 * y1 * y2


def _unit_orbit_min(ctx: OrderContext, w: Tuple[int, int], N: int) -> Tuple[int, int]:
    # least residue mod N*O of z*w over the units z of O
    return min(
        (x % N, y % N) for (x, y) in (_elem_mul(ctx, z, w) for z in _unit_coords(ctx))
    )


def _ideal_form(L: QuadLattice) -> Tuple[int, int, Form]:
    """(g, h, Q) with L = (g/den)*(Z(tau + h) + Z*a) and Q = (a, b0 - 2h, c)
    its form, c = N(tau + h)/a; a DomainError unless L is an O-module."""
    ctx = L.ctx
    g, t, m = L.g, L.t, L.m
    if t % g or m % g:
        raise DomainError("lattice is not an O-module")
    a, h = m // g, t // g
    c, rem = divmod(h * h - ctx.b0 * h + ctx.c0, a)
    if rem:
        raise DomainError("lattice is not proper for this order")
    return g, h, Form(a, ctx.b0 - 2 * h, c)


def _reduced_basis(L: QuadLattice) -> Tuple[Form, Tuple[int, int]]:
    """(R, beta) with L = (beta/a_R)*form_to_lattice(R), R reduced, for an
    integral ideal L; beta = (x, y) means x + y*tau.

    Reduction Q^gamma = R of L's form moves L's basis (g*tau + t, m) to
    (alpha, beta) with a_R*alpha = beta*((b0 - b_R)/2 + tau).
    """
    if L.den != 1:
        raise DomainError("ray labels need an integral ideal")
    ctx = L.ctx
    g, t, m = L.g, L.t, L.m
    R, (p, q, r, s) = reduce_form(_ideal_form(L)[2])
    beta = (m * p - t * r, -g * r)
    if _elem_mul(ctx, beta, ((ctx.b0 - R.b) // 2, 1)) != (R.a * (t * s - m * q), R.a * g * s):
        raise InvariantViolation("reduction witness did not reach the reduced basis")
    return R, beta


def ray_label(L: QuadLattice, N: int, bases: ClassBases) -> Tuple:
    """Exact ray-class label of an integral ideal L: (reduced form R, least
    generator residue of L*conj(B_R) in (O/NO)* over the units of O).

    With L = (beta/a_R)*form_to_lattice(R) from _reduced_basis,
    beta*c_R/a_R generates L*conj(B_R).
    """
    ctx = L.ctx
    R, beta = _reduced_basis(L)
    x, y = _elem_mul(ctx, beta, bases.gen[R])
    if x % R.a or y % R.a:
        raise InvariantViolation("ideal and its reduction base are not in one class")
    return (tuple(R), _unit_orbit_min(ctx, (x // R.a, y // R.a), N))


def oracle_class_group(
    ctx: OrderContext, N: int, norm_bound: Optional[int] = None
) -> IdealClassOracle:
    """Representatives and group table of C_N(O) by exhaustive bucketing.

    Ideals prime to l_O*N are enumerated up to a norm bound and grouped by
    ray label.  The bound starts at norm_bound (None for a default from D and
    N; below 1 is a DomainError) and is doubled until the independently
    known class count is reached, over at most nine tries; ResourceError
    names the last bound searched.
    The table follows from the label group law: if w1, w2 generate
    L1*conj(B1), L2*conj(B2) and c12 generates B1*B2*conj(B3), then
    w1*w2*c12/(N(B1)*N(B2)) generates L1*L2*conj(B3).  So only the base
    products B1*B2 are labelled, once per pair of reduced forms.  Every pair
    of classes is filled from these labels on purpose: the oracle shares no
    table code with class_enumerate, so tables_isomorphic can catch a bug in
    either fill.
    """
    if N < 1:
        raise DomainError("level must be positive")
    if norm_bound is not None and norm_bound < 1:
        raise DomainError(f"norm bound must be at least 1, not {norm_bound}")
    target = _expected_order(ctx, N)
    bases = _class_bases(ctx, N)
    lN = ctx.conductor * N
    start = norm_bound or max(2 * (isqrt(-ctx.disc // 3 - 1) + 1) * N * N, 10 * N * N)
    for bound in (start * 2**k for k in range(9)):
        buckets: Dict[Tuple, QuadLattice] = {}
        for _, L in integral_ideals(ctx, bound, coprime_to=lN):
            lab = ray_label(L, N, bases)
            buckets.setdefault(lab, L)
            if len(buckets) == target:
                break
        if len(buckets) == target:
            break
    else:
        raise ResourceError(
            f"found {len(buckets)} of {target} ray classes up to norm bound {bound}"
        )
    labels = sorted(buckets)
    reps = [buckets[lab] for lab in labels]
    idx = {lab: i for i, lab in enumerate(labels)}
    base_products: Dict[Tuple, Tuple] = {}
    table = [[0] * len(reps) for _ in reps]
    for i, (R1, w1) in enumerate(labels):
        for j in range(i, len(labels)):
            R2, w2 = labels[j]
            if (R1, R2) not in base_products:
                B1, B2 = bases.lattice[R1], bases.lattice[R2]
                R3, c12 = ray_label(B1.mul(B2), N, bases)
                n12_inv = pow(B1.g * B1.m * B2.g * B2.m, -1, N)
                base_products[R1, R2] = (R3, (c12[0] * n12_inv, c12[1] * n12_inv))
            R3, c = base_products[R1, R2]
            w3 = _unit_orbit_min(ctx, _elem_mul(ctx, _elem_mul(ctx, w1, w2), c), N)
            k = idx.get((R3, w3))
            if k is None:
                raise InvariantViolation(f"product of ray classes {i} and {j} has no known label")
            table[i][j] = table[j][i] = k
    return IdealClassOracle(ctx, N, reps, labels, table, bound, bases)


def form_ideal_dictionary(oracle: IdealClassOracle, class_group) -> List[int]:
    """phi: [Q] -> [[omega_Q, 1]] as an index map from form classes to oracle classes."""
    ctx = oracle.ctx
    N = oracle.level
    out = []
    for Q in class_group.reps:
        L = fractional_omega_lattice(ctx, Q)
        out.append(oracle.index_of(L))
    if sorted(out) != list(range(oracle.order)):
        raise InvariantViolation("form-to-ideal map is not a bijection")
    return out


def tables_isomorphic(oracle: IdealClassOracle, class_group, phi: Sequence[int]) -> bool:
    """Whether phi carries the form table onto the oracle table, cell by cell."""
    table = class_group.table
    return all(
        phi[table[i][j]] == oracle.table[phi[i]][phi[j]]
        for i in range(class_group.order)
        for j in range(class_group.order)
    )
