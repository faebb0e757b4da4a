"""Exact ideal arithmetic in imaginary quadratic orders and the ideal-side
ray class group oracle.

An integral ideal is an integer Hermite triple Ideal(g, t, m), the lattice
Z(g*tau + t) + Z*m, and elements are integer pairs (x, y) meaning x + y*tau;
the order context travels as an explicit argument.  A ray class modulo N is
named by an exact integer label: the reduced form of the class and, up to
units, the generator residue mod N*O of the ideal times a fixed base ideal's
conjugate.  The oracle buckets integral ideals by label and fills its table
from Cayley rows under the label group law, multiplying base ideals by the
Hermite form of the four basis products (ideal_mul), not by Dirichlet
composition.  This module is the independent ground truth against which the
form-side class group is checked.

An ideal's form, its reduced form and the matching basis change come from one
integer pair, _ideal_form and _reduced_basis, which serves the ray labels, the
base ideals' generators and invariants.general_invariant.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from math import gcd, isqrt
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
    "Ideal",
    "IdealClassOracle",
    "oracle_class_group",
    "form_to_lattice",
    "ideal_mul",
    "integral_ideals",
    "labelled_ideals",
]


class Ideal(NamedTuple):
    """The integral ideal Z(g*tau + t) + Z*m in Hermite form: g, m > 0 and
    0 <= t < m.  Its norm |O/L| is g*m."""

    g: int
    t: int
    m: int


def _hermite(rows: Sequence[Tuple[int, int]]) -> Ideal:
    """Hermite form of the Z-span of the elements x + y*tau, (x, y) in rows."""
    g, t, m = 0, 0, 0
    for x, y in rows:
        if y == 0:
            m = gcd(m, x)
        elif g == 0:
            g, t = abs(y), x if y > 0 else -x
        else:
            # one generator with tau-part d = gcd(g, y); the eliminated
            # combination has tau-part 0
            d, u, v = xgcd(g, y)
            m = gcd(m, (g // d) * x - (y // d) * t)
            g, t = d, u * t + v * x
    if g == 0 or m == 0:
        raise DomainError("lattice has rank < 2")
    return Ideal(g, t % m, m)


def ideal_mul(ctx: OrderContext, A: Ideal, B: Ideal) -> Ideal:
    """A*B, the Hermite form of the four products of the bases
    (g*tau + t, m), multiplied with tau^2 = -b0*tau - c0."""
    return _hermite([
        _elem_mul(ctx, (A.t, A.g), (B.t, B.g)),
        (A.t * B.m, A.g * B.m),
        (A.m * B.t, A.m * B.g),
        (A.m * B.m, 0),
    ])


def form_to_lattice(ctx: OrderContext, Q: Form, scale: int = 1) -> Ideal:
    """scale * a * [omega_Q, 1], the integral ideal attached to Q."""
    if Q.disc != ctx.disc:
        raise DomainError("form and order discriminants differ")
    # a*omega_Q = ((b0 - b)/2 + tau), basis {a*omega, a}
    half = (ctx.b0 - Q.b) // 2
    return Ideal(scale, scale * half % (scale * Q.a), scale * Q.a)


def omega_ideal(ctx: OrderContext, Q: Form, N: int) -> Ideal:
    """The integral ideal in the ray class mod N of [omega_Q, 1]: that ideal
    times a*(a^-1 mod N), a positive multiple of a that is 1 mod N (a itself
    at N = 1)."""
    if gcd(Q.a, N) != 1:
        raise DomainError("ideal is not prime to the level")
    return form_to_lattice(ctx, Q, scale=pow(Q.a, -1, N) if N > 1 else 1)


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


@functools.lru_cache(maxsize=1)
def _factor_table(bound: int) -> memoryview:
    """spf[n] = the least prime factor of n for composite n <= bound, else 0.

    Each d from sqrt(bound) down to 2 is written over its multiples from d^2
    on.  The last write to a composite n is then its least divisor d > 1,
    which is prime and has d^2 <= n.  The table is a read-only view of a
    bytearray cast to unsigned 32-bit ints, 4 bytes a number: the array
    module would do the same, but loading it adds about 0.13 MB to every
    process's RSS.  The last table is kept, so integral_ideals, the label
    split of labelled_ideals and the zeta route's power product share one
    table per bound.
    """
    spf = memoryview(bytearray(4 * (bound + 1))).cast("I")
    for d in range(isqrt(bound), 1, -1):
        run = d.to_bytes(4, sys.byteorder) * len(range(d * d, bound + 1, d))
        spf[d * d :: d] = memoryview(run).cast("I")
    return spf.toreadonly()


def _prime_power_parts(a: int, spf: memoryview) -> List[int]:
    """The coprime prime powers q with a = prod q, by ascending prime, read
    off the least-prime-factor table spf (0 marks a prime)."""
    parts = []
    while a > 1:
        p = spf[a] or a
        q, a = p, a // p
        while a % p == 0:
            q, a = q * p, a // p
        parts.append(q)
    return parts


def _disc_roots(D: int, a: int, spf: memoryview, sqrts: Dict[int, Optional[int]]) -> List[int]:
    """The b in [0, 2a) with b^2 = D mod 4a, ascending.

    Roots mod 2m are built up as m runs through the prime factors of a, read
    off the least-prime-factor table spf (0 marks a prime).  The first power of an odd prime p
    joins the roots +-s of D mod p to those mod 2m by CRT, with s from the
    per-prime cache sqrts (filled here); for p = 2 or a repeated p, each root
    r mod 2m is tried at its p lifts r + 2m*k.
    """
    roots = [b for b in (0, 1) if (b * b - D) % 4 == 0]
    m, rest = 1, a
    while rest > 1 and roots:
        p = spf[rest] or rest
        rest //= p
        if p > 2 and m % p:
            if p not in sqrts:
                sqrts[p] = _sqrt_mod_prime(D, p)
            s = sqrts[p]
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
) -> Iterator[Tuple[int, Ideal]]:
    """(norm, ideal) for proper integral ideals of norm <= bound prime to
    `coprime_to`: m*a*[omega, 1] = Ideal(m, m*h mod m*a, m*a), h = (b0 - b)/2,
    for each root b of b^2 = D mod 4a with (a, b, c) primitive and each m.

    Ideals come in order of a, then b ascending in [0, 2a), then m, so every
    multiple m*L comes right after its primitive ideal L (m = 1), which
    labelled_ideals relies on; the oracle's representatives are the first
    ideal of each class in this order.  The roots b come from the
    least-prime-factor table up to the bound (4 bytes a number, shared
    through _factor_table's cache) and one square root of D per prime,
    built once per call.
    """
    spf = _factor_table(bound)
    sqrts: Dict[int, Optional[int]] = {}
    for a in range(1, bound + 1):
        if gcd(a, coprime_to) != 1:
            continue
        for b in _disc_roots(ctx.disc, a, spf, sqrts):
            c = (b * b - ctx.disc) // (4 * a)
            if gcd(gcd(a, b), c) != 1:
                continue  # not a proper O-ideal
            h = (ctx.b0 - b) // 2
            m = 1
            while m * m * a <= bound:
                if gcd(m, coprime_to) == 1:
                    yield m * m * a, Ideal(m, m * h % (m * a), m * a)
                m += 1


def labelled_ideals(
    ctx: OrderContext, bound: int, N: int, bases: ClassBases, coprime_to: int
) -> Iterator[Tuple[int, Ideal, Tuple]]:
    """(norm, ideal, ray label mod N) for the ideals of
    integral_ideals(ctx, bound, coprime_to), in its order.

    Labels are multiplicative, so only O and the primitive ideals (g = 1) of
    prime-power norm are labelled by ray_label, once per ClassBases: their
    labels are kept in bases.labels, keyed (q, t) for Z(tau + t) + Z*q (O is
    (1, 0)), so the oracle's norm-bound tries, which share its bases, label
    no ideal twice.

    A primitive ideal L = Z(tau + t) + Z*a of composite norm a = prod q, the
    q coprime prime powers read off the stream's least-prime-factor table,
    is the product of its parts Z(tau + t mod q) + Z*q: the parts meet in L
    and their product, of norm a, lies in L.  Each part is proper, since
    with L's form (a, b, c) its form (q, b, c*a/q) has
    gcd(q, b, c*a/q) = gcd(q, b, c), a divisor of gcd(a, b, c) = 1; it is
    prime to coprime_to and of norm q <= a/2, so it came earlier in the
    stream.  The label is the label-law product (_label_product) of the
    parts' labels, kept in bases.label_products (at most n^2 entries for n
    classes).  Every stored label is one of the n interned in bases.labels.

    A multiple m*L comes right after L and has L's reduced form, and its
    generator residue is m times L's, so its label is (R, least of the unit
    orbit of m*w) for L's label (R, w): the orbit of m*w is m times the
    orbit of w.
    """
    spf = _factor_table(bound)
    labels, products = bases.labels, bases.label_products
    a, parts = 0, []
    for norm, L in integral_ideals(ctx, bound, coprime_to):
        if L.g > 1:
            lab = (R, _unit_orbit_min(bases.units, (L.g * w[0], L.g * w[1]), N))
        else:
            if L.m != a:
                a, parts = L.m, _prime_power_parts(L.m, spf)
            if len(parts) < 2:  # O or a prime power
                lab = labels.get((a, L.t))
                if lab is None:
                    lab = ray_label(ctx, L, N, bases)
                    lab = labels[a, L.t] = labels.setdefault(lab, lab)
            else:
                lab = labels[parts[0], L.t % parts[0]]
                for q in parts[1:]:
                    key = (lab, labels[q, L.t % q])
                    if key not in products:
                        product = _label_product(ctx, N, bases, *key)
                        products[key] = labels.setdefault(product, product)
                    lab = products[key]
            R, w = lab
        yield norm, L, lab


@dataclass
class IdealClassOracle:
    """Ray classes of C_N(O) found by direct bucketing of integral ideals."""

    ctx: OrderContext
    level: int
    reps: List[Ideal]
    labels: List[Tuple]
    table: List[List[int]]
    norm_bound: int
    bases: ClassBases = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.reps)

    def __post_init__(self):
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, L: Ideal) -> int:
        """Index of the ray class of L, a proper integral ideal prime to N."""
        if gcd(L.g * L.m, self.level) != 1:
            raise DomainError(f"{L} is not prime to the level {self.level}")
        lab = ray_label(self.ctx, L, self.level, self.bases)
        i = self._index.get(lab)
        if i is None:
            raise InvariantViolation(f"{L} has ray label {lab}, which no class has")
        return i

    def to_json(self) -> dict:
        return {
            "disc": str(self.ctx.disc),
            "level": str(self.level),
            # (den, g, t, m) of (1/den)(Z(g*tau + t) + Z*m); den = 1 for an Ideal
            "reps": [["1", *(str(v) for v in L)] for L in self.reps],
            "table": self.table,
            "norm_bound": str(self.norm_bound),
        }


class ClassBases(NamedTuple):
    """The label state of one (ctx, N): one base ideal B_R per reduced form
    R, prime to l_O*N so generator residues of quotients land in (O/NO)*,
    and the generator c_R = (x, y), meaning x + y*tau, of the principal
    ideal form_to_lattice(R)*conj(B_R), the units of O as multiplication
    matrices (built once, for _unit_orbit_min), and the memos of the calls
    handed it: base_products, _label_product's by pair of reduced forms;
    label_products, labelled_ideals' by pair of labels; and labels, which
    maps (q, t) to the label of Z(tau + t) + Z*q, and each label (a pair of
    tuples, never a key (q, t)) to itself, its one interned object."""

    lattice: Dict[Form, Ideal]
    gen: Dict[Form, Tuple[int, int]]
    units: Tuple[Tuple[int, int, int, int], ...]
    base_products: Dict[Tuple, Tuple]
    label_products: Dict[Tuple, Tuple]
    labels: Dict[Tuple, Tuple]


def _class_bases(ctx: OrderContext, N: int) -> ClassBases:
    """Fresh bases of (ctx, N), with empty memos: the oracle hands its own to
    its tries and fill, the zeta route its own to its stream."""
    lattice, gen = {}, {}
    for R in enumerate_reduced(ctx.disc):
        _, lifted = make_coprime(R, ctx.conductor * N)
        B = form_to_lattice(ctx, lifted)
        # B = (beta/a_R)*F_R, so F_R*conj(B) = conj(beta)*N(F_R)/a_R = conj(beta)*O
        R_B, (x, y) = _reduced_basis(ctx, B)
        if R_B != R:
            raise InvariantViolation("a reduced form and its base ideal are not in one class")
        lattice[R], gen[R] = B, (x - ctx.b0 * y, -y)
    # z = a + b*tau maps x + y*tau to (ax - c0*by) + (bx + ay - b0*by)*tau
    units = tuple((a, -ctx.c0 * b, b, a - ctx.b0 * b) for a, b in _unit_coords(ctx))
    return ClassBases(lattice, gen, units, {}, {}, {})


def _elem_mul(ctx: OrderContext, u: Tuple[int, int], v: Tuple[int, int]) -> Tuple[int, int]:
    # (x1 + y1*tau)(x2 + y2*tau) with tau^2 = -b0*tau - c0
    (x1, y1), (x2, y2) = u, v
    return x1 * x2 - ctx.c0 * y1 * y2, x1 * y2 + x2 * y1 - ctx.b0 * y1 * y2


def _unit_orbit_min(units, w: Tuple[int, int], N: int) -> Tuple[int, int]:
    # least residue mod N*O of z*w over the units z of O, each given by its
    # multiplication matrix (p, q, r, s): z*(x + y*tau) = px + qy + (rx + sy)*tau
    x, y = w
    least = (N, N)
    for p, q, r, s in units:
        z = ((p * x + q * y) % N, (r * x + s * y) % N)
        if z < least:
            least = z
    return least


def _ideal_form(ctx: OrderContext, L: Ideal) -> Tuple[int, int, Form]:
    """(g, h, Q) with L = g*(Z(tau + h) + Z*a) and Q = (a, b0 - 2h, c) its
    form, c = N(tau + h)/a; a DomainError unless L is an O-module."""
    g, t, m = L
    if t % g or m % g:
        raise DomainError("lattice is not an O-module")
    a, h = m // g, t // g
    c, rem = divmod(h * h - ctx.b0 * h + ctx.c0, a)
    if rem:
        raise DomainError("lattice is not proper for this order")
    return g, h, Form(a, ctx.b0 - 2 * h, c)


def _reduced_basis(ctx: OrderContext, L: Ideal) -> Tuple[Form, Tuple[int, int]]:
    """(R, beta) with L = (beta/a_R)*form_to_lattice(R), R reduced;
    beta = (x, y) means x + y*tau.

    Reduction Q^gamma = R of L's form moves L's basis (g*tau + t, m) to
    (alpha, beta) with a_R*alpha = beta*((b0 - b_R)/2 + tau).
    """
    g, t, m = L
    R, (p, q, r, s) = reduce_form(_ideal_form(ctx, L)[2])
    beta = (m * p - t * r, -g * r)
    if _elem_mul(ctx, beta, ((ctx.b0 - R.b) // 2, 1)) != (R.a * (t * s - m * q), R.a * g * s):
        raise InvariantViolation("reduction witness did not reach the reduced basis")
    return R, beta


def ray_label(ctx: OrderContext, L: Ideal, N: int, bases: ClassBases) -> Tuple:
    """Exact ray-class label of an integral ideal L: (reduced form R, least
    generator residue of L*conj(B_R) in (O/NO)* over the units of O).

    With L = (beta/a_R)*form_to_lattice(R) from _reduced_basis,
    beta*c_R/a_R generates L*conj(B_R).
    """
    R, beta = _reduced_basis(ctx, L)
    x, y = _elem_mul(ctx, beta, bases.gen[R])
    if x % R.a or y % R.a:
        raise InvariantViolation("ideal and its reduction base are not in one class")
    return (tuple(R), _unit_orbit_min(bases.units, (x // R.a, y // R.a), N))


def _label_product(ctx: OrderContext, N: int, bases: ClassBases, lab1: Tuple, lab2: Tuple) -> Tuple:
    """Ray label of L1*L2 from the labels (R1, w1), (R2, w2) of L1, L2.

    If w1, w2 generate L1*conj(B1), L2*conj(B2) and c12 generates
    B1*B2*conj(B3), then w1*w2*c12/(N(B1)*N(B2)) generates L1*L2*conj(B3).
    So only the base product B1*B2 is labelled, once per pair of reduced
    forms, and kept in bases.base_products.
    """
    (R1, w1), (R2, w2) = lab1, lab2
    key = (R1, R2) if R1 <= R2 else (R2, R1)
    if key not in bases.base_products:
        B1, B2 = bases.lattice[R1], bases.lattice[R2]
        R3, c12 = ray_label(ctx, ideal_mul(ctx, B1, B2), N, bases)
        n12_inv = pow(B1.g * B1.m * B2.g * B2.m, -1, N)
        bases.base_products[key] = (R3, (c12[0] * n12_inv, c12[1] * n12_inv))
    R3, c = bases.base_products[key]
    return R3, _unit_orbit_min(bases.units, _elem_mul(ctx, _elem_mul(ctx, w1, w2), c), N)


def oracle_class_group(ctx: OrderContext, N: int) -> IdealClassOracle:
    """Representatives and group table of C_N(O) by exhaustive bucketing.

    Ideals prime to l_O*N are enumerated up to a norm bound and grouped by
    ray label, from labelled_ideals: one ray_label for O and for each
    primitive ideal of prime-power norm, every other ideal labelled from
    those.  The bound starts at max(2 (isqrt(-D // 3 - 1) + 1) N^2, 10 N^2)
    and is doubled until the independently known class count is reached,
    over at most nine tries.  One ClassBases serves every try and the fill,
    so a try calls ray_label only on the ideals no earlier try saw, and
    they share its memos.  The result keeps the bases without the memos,
    since index_of needs only the lattices, generators and units.
    ResourceError names the last bound searched, and the result's norm_bound
    is the bound that reached the count.

    The table follows from the label group law (_label_product), filled from
    Cayley rows.  The identity is the class of O, which is not index 0 in
    general, since classes are numbered by sorted label.  Each step takes as
    generator s the least class outside the subgroup H built so far, forms
    the product of every class with s once (n products) and closes H under s
    by breadth-first search: a class z = y*s first reached from y gets row
    z = (cay_s[v] for v in row y), since z*j = (y*j)*s.  H at least doubles
    at each step, so there are at most n*log2(n) products.  This fill is
    written here on purpose, not shared with class_enumerate, so that
    tables_isomorphic can catch a bug in either fill.
    """
    if N < 1:
        raise DomainError("level must be positive")
    target = _expected_order(ctx, N)
    bases = _class_bases(ctx, N)
    lN = ctx.conductor * N
    start = max(2 * (isqrt(-ctx.disc // 3 - 1) + 1) * N * N, 10 * N * N)
    for bound in (start * 2**k for k in range(9)):
        buckets: Dict[Tuple, Ideal] = {}
        for _, L, lab in labelled_ideals(ctx, bound, N, bases, lN):
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
    n = len(labels)
    e = idx[next(iter(buckets))]  # O = Ideal(1, 0, 1) is the first ideal of the stream
    table: List[Optional[List[int]]] = [None] * n
    table[e] = list(range(n))
    walk = [e]  # the subgroup built so far, in breadth-first order
    while len(walk) < n:
        s = table.index(None)
        cay = []  # cay[y] = index of the class of L_y*L_s
        for y, lab in enumerate(labels):
            k = idx.get(_label_product(ctx, N, bases, lab, labels[s]))
            if k is None:
                raise InvariantViolation(f"product of ray classes {y} and {s} has no known label")
            cay.append(k)
        if cay[e] != s:
            raise InvariantViolation(f"the class of O times class {s} is class {cay[e]}")
        # walk grows while it is read, so this closes the subgroup under s
        for y in walk:
            z = cay[y]
            if table[z] is None:
                table[z] = [cay[v] for v in table[y]]  # z*j = (y*j)*s
                walk.append(z)
    # index_of needs only the lattices, generators and units: the memos go
    bases = bases._replace(base_products={}, label_products={}, labels={})
    return IdealClassOracle(ctx, N, reps, labels, table, bound, bases)


def form_ideal_dictionary(oracle: IdealClassOracle, class_group) -> List[int]:
    """phi: [Q] -> [[omega_Q, 1]] as an index map from form classes to oracle classes."""
    out = [oracle.index_of(omega_ideal(oracle.ctx, Q, oracle.level)) for Q in class_group.reps]
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
