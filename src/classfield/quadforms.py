"""Binary quadratic forms of negative discriminant and their level-N class groups.

The classical layer (Gauss reduction, Dirichlet composition) follows Cox's
treatment.  On top of it sits the level-N refinement: forms with leading
coefficient coprime to N up to the congruence subgroup Gamma_1(N), composed by
the make-coprime / Dirichlet / SL2-correction procedure whose output class is
well defined.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .numerics import BigComplex, DomainError, InvariantViolation, working_bits

log = logging.getLogger(__name__)

__all__ = [
    "xgcd",
    "SL2",
    "Form",
    "OrderContext",
    "ClassGroup",
    "CompositionError",
    "reduce_form",
    "enumerate_reduced",
    "dirichlet_compose",
    "make_coprime",
    "gamma1_equivalent",
    "class_label",
    "label_form",
    "compose_level",
    "class_labels",
    "class_enumerate",
]


class CompositionError(ValueError):
    """Dirichlet composition precondition gcd(a, a'', (b+b'')/2) = 1 violated."""


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class SL2(tuple):
    """Integer matrix [[p, q], [r, s]] with determinant 1."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int, s: int):
        if p * s - q * r != 1:
            raise DomainError(f"determinant of {(p, q, r, s)} is not 1")
        return tuple.__new__(cls, (p, q, r, s))

    @property
    def p(self):
        return self[0]

    @property
    def q(self):
        return self[1]

    @property
    def r(self):
        return self[2]

    @property
    def s(self):
        return self[3]

    def __mul__(self, other: "SL2") -> "SL2":
        p, q, r, s = self
        P, Q, R, S = other
        return SL2(p * P + q * R, p * Q + q * S, r * P + s * R, r * Q + s * S)

    def inv(self) -> "SL2":
        p, q, r, s = self
        return SL2(s, -q, -r, p)

    def in_gamma1(self, n: int) -> bool:
        p, q, r, s = self
        return (p - 1) % n == 0 and r % n == 0 and (s - 1) % n == 0

    def __repr__(self):
        return f"SL2({self[0]}, {self[1]}, {self[2]}, {self[3]})"


SL2.I = SL2(1, 0, 0, 1)


class Form(tuple):
    """Primitive positive definite integer form a*x^2 + b*x*y + c*y^2."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        disc = b * b - 4 * a * c
        if disc >= 0 or disc % 4 not in (0, 1):
            raise DomainError(f"{(a, b, c)} has invalid discriminant {disc}")
        if a <= 0:
            raise DomainError("leading coefficient must be positive")
        if gcd(gcd(a, b), c) != 1:
            raise DomainError(f"{(a, b, c)} is not primitive")
        return tuple.__new__(cls, (a, b, c))

    @property
    def a(self):
        return self[0]

    @property
    def b(self):
        return self[1]

    @property
    def c(self):
        return self[2]

    @property
    def disc(self) -> int:
        a, b, c = self
        return b * b - 4 * a * c

    def apply(self, g: SL2) -> "Form":
        """Right action Q^gamma = Q(gamma * (x, y)^t)."""
        a, b, c = self
        p, q, r, s = g
        return Form(
            a * p * p + b * p * r + c * r * r,
            2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
            a * q * q + b * q * s + c * s * s,
        )

    def evaluate(self, x: int, y: int) -> int:
        a, b, c = self
        return a * x * x + b * x * y + c * y * y

    def omega(self, digits: int) -> BigComplex:
        """Root (-b + sqrt(D))/(2a) of Q(x, 1) in the upper half-plane, built
        at working_bits(digits) for an evaluation that targets `digits` digits."""
        return _form_point(self.a, -self.b, digits, self.disc)

    def __repr__(self):
        return f"Form({self[0]}, {self[1]}, {self[2]})"


# a pass evaluates its classes at few points, 4 reduced forms for the 28
# evaluated classes of (-104, 5), and builds each once; an entry is one
# BigComplex, about 1 KB at 283 digits and 5 KB at 5621 digits (64 KB and
# 320 KB when full)
@functools.lru_cache(maxsize=64)
def _form_point(a: int, b: int, digits: int, disc: int) -> BigComplex:
    """(b + sqrt(disc))/(2a) at working_bits(digits); BigComplex is
    immutable, so every caller may share the cached value."""
    prec = working_bits(digits)
    from mpmath import mp, mpf, sqrt

    with mp.workprec(prec):
        re = mpf(b) / (2 * a)
        im = sqrt(mpf(-disc)) / (2 * a)
    return BigComplex(re, im, prec)


def _is_discriminant(d: int) -> bool:
    return d < 0 and d % 4 in (0, 1)


@dataclass(frozen=True)
class OrderContext:
    """The imaginary quadratic order of discriminant `disc`.

    The order is Z*tau + Z where x^2 + b0*x + c0 is the minimal polynomial of
    tau, with b0 in {0, 1} depending on disc mod 4.  `conductor` is the index
    in the maximal order.
    """

    disc: int
    conductor: int
    b0: int
    c0: int

    @classmethod
    def from_disc(cls, disc: int) -> "OrderContext":
        if not _is_discriminant(disc):
            raise DomainError(f"{disc} is not a negative discriminant")
        if disc % 4 == 0:
            b0, c0 = 0, -disc // 4
        else:
            b0, c0 = 1, (1 - disc) // 4
        return cls(disc, _conductor(disc), b0, c0)

    @property
    def fundamental_disc(self) -> int:
        return self.disc // (self.conductor**2)

    def principal_form(self) -> Form:
        return Form(1, self.b0, self.c0)

    def tau(self, digits: int) -> BigComplex:
        """tau = (-b0 + sqrt(disc))/2 in the upper half-plane, at working_bits(digits)."""
        return _form_point(1, -self.b0, digits, self.disc)

    def elem_norm(self, x: int, y: int) -> int:
        """Norm of x + y*tau over Q."""
        return x * x - self.b0 * x * y + self.c0 * y * y


def _is_fundamental(d: int) -> bool:
    if not _is_discriminant(d):
        return False
    if d % 4 == 1:
        return _squarefree(d)
    m = d // 4
    return _squarefree(m) and m % 4 in (2, 3)


def _squarefree(n: int) -> bool:
    n = abs(n)
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def _conductor(disc: int) -> int:
    best = 1
    f = 1
    while f * f <= -disc:
        if disc % (f * f) == 0 and _is_fundamental(disc // (f * f)):
            best = f
        f += 1
    return best


# ---------------------------------------------------------------------------
# reduction


def reduce_form(Q: Form) -> Tuple[Form, SL2]:
    """Gauss reduction; returns (R, gamma) with Q^gamma = R reduced.

    gamma = (p, q, r, s) is carried as four integers, multiplied on the right
    by S = [[0, -1], [1, 0]] or T^k = [[1, k], [0, 1]] at each step, and
    becomes one SL2 at the end.
    """
    a, b, c = Q
    p, q, r, s = 1, 0, 0, 1
    while True:
        if a > c:
            a, b, c = c, -b, a
            p, q, r, s = q, -p, s, -r  # gamma * S
            continue
        if b <= -a or b > a:
            k = (a - b) // (2 * a)  # translate b into (-a, a]
            b2 = b + 2 * a * k
            c = a * k * k + b * k + c
            b = b2
            q, s = p * k + q, r * k + s  # gamma * T^k
            continue
        if b < 0 and (b == -a or a == c):
            if b == -a:
                c = a + b + c
                b = b + 2 * a
                q, s = p + q, r + s  # gamma * T
            else:
                a, b, c = c, -b, a
                p, q, r, s = q, -p, s, -r  # gamma * S
            continue
        break
    R = Form(a, b, c)
    g = SL2(p, q, r, s)
    assert Q.apply(g) == R
    return R, g


def enumerate_reduced(D: int) -> List[Form]:
    """All reduced forms of discriminant D, sorted lexicographically."""
    if not _is_discriminant(D):
        raise DomainError(f"{D} is not a negative discriminant")
    out = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or gcd(gcd(a, b), c) != 1:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            out.append(Form(a, b, c))
    return sorted(out)


def class_number(D: int) -> int:
    return len(enumerate_reduced(D))


# ---------------------------------------------------------------------------
# composition


def dirichlet_compose(Q: Form, Q2: Form) -> Form:
    """Dirichlet composite a*a''*x^2 + B*x*y + ... with B solving the three
    congruences B = b (2a), B = b'' (2a''), B^2 = D (4aa''); B is reduced to
    the least nonnegative residue mod 2aa''."""
    D = Q.disc
    if Q2.disc != D:
        raise DomainError("discriminants differ")
    a, b, _ = Q
    a2, b2, _ = Q2
    e = (b + b2) // 2
    g1, x1, y1 = xgcd(a, a2)
    g, u, z = xgcd(g1, e)
    if g != 1:
        raise CompositionError(f"gcd({a}, {a2}, {e}) = {g} != 1")
    x, y = x1 * u, y1 * u
    m = 2 * a * a2
    B = (x * a * b2 + y * a2 * b + z * (b * b2 + D) // 2) % m
    if (B - b) % (2 * a) or (B - b2) % (2 * a2) or (B * B - D) % (2 * m):
        raise InvariantViolation("composition congruences failed")
    return Form(a * a2, B, (B * B - D) // (4 * a * a2))


def _part_prime_to(m: int, n: int) -> int:
    """Largest divisor of m > 0 prime to n, by gcd-stripping (no factoring)."""
    g = gcd(m, n)
    while g > 1:
        m //= g
        g = gcd(m, g)
    return m


def make_coprime(Q: Form, M: int) -> Tuple[SL2, Form]:
    """gamma in SL2(Z) with leading coefficient of Q^gamma prime to M.

    Q^gamma has leading coefficient Q(p, r) for the first column (p, r) of
    gamma.  gamma = I when gcd(a, M) = 1.  Otherwise r is the part of M prime
    to a and p the part of M/r prime to c (Cox, Lemma 2.25).  Every prime of
    M/r divides a and none of r does, so gcd(p, r) = 1 and xgcd completes the
    column.  For a prime l | M: if l does not divide a, then l | r and l does
    not divide p, so Q(p, r) = a*p^2 mod l; if l | a but not c, then l | p and
    not r, so Q(p, r) = c*r^2 mod l; if l divides a and c, it divides neither
    b (Q is primitive) nor p nor r, so Q(p, r) = b*p*r mod l.  In every case
    l does not divide Q(p, r).
    """
    if M < 1:
        raise DomainError("modulus must be positive")
    a, _, c = Q
    if gcd(a, M) == 1:
        return SL2.I, Q
    r = _part_prime_to(M, a)
    p = _part_prime_to(M // r, c)
    _, x, y = xgcd(p, r)
    g = SL2(p, -y, r, x)
    return g, Q.apply(g)


def _reduced_automorphisms(R: Form) -> List[SL2]:
    # proper automorphisms of a reduced form; {+-I} except for D = -3, -4
    auts = [SL2.I, SL2(-1, 0, 0, -1)]
    if R.disc == -4 and (R.a, R.b, R.c) == (1, 0, 1):
        S = SL2(0, -1, 1, 0)
        auts += [S, S * SL2(-1, 0, 0, -1)]
    elif R.disc == -3 and (R.a, R.b, R.c) == (1, 1, 1):
        U = SL2(0, -1, 1, 1)
        auts += [U, U * U, U * SL2(-1, 0, 0, -1), U * U * SL2(-1, 0, 0, -1)]
    return auts


def gamma1_equivalent(Q: Form, Q2: Form, N: int) -> Optional[SL2]:
    """Witness gamma in Gamma_1(N) with Q^gamma = Q2, or None.

    The full solution set is gamma0 * Aut(Q2); each member is tested for
    membership in Gamma_1(N).
    """
    if Q.disc != Q2.disc:
        raise DomainError("discriminants differ")
    if gcd(Q.a, N) != 1 or gcd(Q2.a, N) != 1:
        raise DomainError("leading coefficients must be coprime to the level")
    R1, g1 = reduce_form(Q)
    R2, g2 = reduce_form(Q2)
    if R1 != R2:
        return None
    g0 = g1 * g2.inv()
    for aut in _reduced_automorphisms(R2):
        g = g0 * (g2 * aut * g2.inv())
        if g.in_gamma1(N):
            return g
    return None


def sl2_lift_bottom_row(u: int, v: int, N: int) -> SL2:
    """sigma in SL2(Z) with bottom row congruent to (u, v) mod N.

    With u, v reduced mod N and u = 0 replaced by N, the bottom row is
    (u, v + t*N) for the least t >= 0 with gcd(u, v + t*N) = 1, completed by
    xgcd.  Some t < u works (Shimura, Lemma 1.38): take t0, the part of u
    prime to v.  For a prime l | u: if l | v, then l does not divide N (as
    gcd(u, v, N) = 1) nor t0, so l does not divide v + t0*N; if l does not
    divide v, then l | t0 and v + t0*N = v mod l.  And t0 < u unless
    gcd(u, v) = 1, when t = 0 works.
    """
    if N < 1:
        raise DomainError("level must be positive")
    if gcd(gcd(u, v), N) != 1:
        raise DomainError("gcd(u, v, N) must be 1")
    u, v = u % N or N, v % N
    while gcd(u, v) != 1:
        v += N
    _, al, be = xgcd(v, u)
    return SL2(al, -be, u, v)


Label = Tuple[Form, Tuple[int, int]]


def class_label(Q: Form, N: int) -> Label:
    """Canonical hashable label of the Gamma_1(N) class of Q.

    With Q^g = R reduced, the matrices taking Q to R are exactly g * Aut(R),
    and the right coset Gamma_1(N) h is fixed by the bottom row of h mod N.
    So (R, least bottom row of g*aut mod N over aut in Aut(R)) names the class.
    """
    if gcd(Q.a, N) != 1:
        raise DomainError("leading coefficient must be coprime to the level")
    R, (_, _, u, v) = reduce_form(Q)
    return R, _least_row(u, v, _reduced_automorphisms(R), N)


def _least_row(u: int, v: int, auts: Sequence[SL2], N: int) -> Tuple[int, int]:
    """Least row (u, v)*aut mod N over the automorphisms auts."""
    return min(((u * p + v * r) % N, (u * q + v * s) % N) for p, q, r, s in auts)


def label_form(label: Label, N: int) -> Form:
    """A form with the given class_label: R^(sigma^-1), sigma lifting the row."""
    R, (u, v) = label
    if N == 1:
        return R
    return R.apply(sl2_lift_bottom_row(u, v, N).inv())


def compose_level(Q: Form, Q2: Form, ctx: OrderContext, N: int) -> Form:
    """Product representative of [Q][Q2] in the level-N class group.

    Procedure: move Q2 by gamma so its leading coefficient is coprime to a*N,
    Dirichlet-compose, solve u*nu1 + v*nu2 = 1 exactly for the bottom row of
    the SL2 correction, and undo it on the composite.  The output is well
    defined up to Gamma_1(N)-equivalence.
    """
    if Q.disc != ctx.disc or Q2.disc != ctx.disc:
        raise DomainError("form discriminants must match the order")
    if gcd(Q.a, N) != 1 or gcd(Q2.a, N) != 1:
        raise DomainError("forms must lie in Q(D, N)")
    a = Q.a
    gam, Qc = make_coprime(Q2, a * N)
    Q3 = dirichlet_compose(Q, Qc)
    B = Q3.b
    _, _, r, s = gam
    a2, b2, _ = Qc
    # u*omega''' + v = j(gamma, omega'') = r*omega'' + s, solved in Q(sqrt D)
    u = r * a
    v = s + r * (B - b2) // (2 * a2)
    if gcd(gcd(u, v), N) != 1:
        raise InvariantViolation("gcd(u, v, N) != 1 contradicts primality of the product ideal")
    return Q3.apply(sl2_lift_bottom_row(u, v, N).inv())


# ---------------------------------------------------------------------------
# the class group


@dataclass
class ClassGroup:
    """Level-N form class group: representatives, table, structure, characters.

    Classes are numbered by sorted class_label and reps[i] is the label_form
    of the i-th label, so index 0 is the class of the principal form.
    `table[i][j]` is the index of [reps[i]][reps[j]]; class_enumerate fills
    it from a coset walk that names each class with one composition, and
    derives each generator's Cayley row from the walk's coordinates.
    invariant_factors and characters come from group_structure_from_table's
    greedy walk over the table.  Characters are stored as integers over the
    group exponent e: characters[k][i] = v in [0, e) means chi_k(reps[i]) =
    e^(2 pi i v/e), and characters[0] is the trivial character.  The walk
    itself is kept as `_walk` (a Walk, outside equality and to_json, like
    `_index`): lfunctions runs its Fourier transforms over the characters
    along it.
    """

    disc: int
    level: int
    reps: List[Form]
    table: List[List[int]]
    invariant_factors: List[int]
    characters: List[List[int]]
    # class_label -> index and the greedy walk, filled in by class_enumerate
    _index: Dict[Tuple, int] = field(init=False, repr=False, compare=False)
    _walk: Walk = field(init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.reps)

    @property
    def exponent(self) -> int:
        """The group exponent e, the largest invariant factor (1 when trivial)."""
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def characters_qz(self) -> List[List[str]]:
        """`characters` as exponents in Q/Z, each v the string of v/e in lowest terms."""
        e = self.exponent
        names = [str(Fraction(v, e)) for v in range(e)]
        return [[names[v] for v in row] for row in self.characters]

    def index_of(self, Q: Form) -> int:
        """Index of the class of Q: a dict lookup on its class_label."""
        if Q.disc != self.disc:
            raise DomainError(f"{Q} has discriminant {Q.disc}, not {self.disc}")
        if gcd(Q.a, self.level) != 1:
            raise DomainError(f"leading coefficient of {Q} is not coprime to the level")
        i = self._index.get(class_label(Q, self.level))
        if i is None:
            raise DomainError(f"{Q} does not lie in any known class")
        return i

    def to_json(self) -> dict:
        return {
            "disc": str(self.disc),
            "level": str(self.level),
            "reps": [[str(x) for x in Q] for Q in self.reps],
            "table": self.table,
            "invariant_factors": [str(d) for d in self.invariant_factors],
            "characters": self.characters_qz(),
        }

    def format_table(self) -> str:
        """Text layout with rows/columns labelled g1..g|G|."""
        n = self.order
        w = len(f"g{n}")
        head = " " * w + " | " + " ".join(f"g{j + 1}".rjust(w) for j in range(n))
        lines = [head, "-" * len(head)]
        for i in range(n):
            row = " ".join(f"g{self.table[i][j] + 1}".rjust(w) for j in range(n))
            lines.append(f"g{i + 1}".rjust(w) + " | " + row)
        return "\n".join(lines)


def unit_group(ctx: OrderContext, N: int) -> List[Tuple[int, int]]:
    """The (s, t) of every unit s*tau + t of O/NO: those whose norm is prime
    to N, that is whose multiplication matrix on {tau, 1} is invertible mod N."""
    if N < 1:
        raise DomainError("level must be positive")
    return [
        (s, t)
        for s in range(N)
        for t in range(N)
        if gcd(ctx.elem_norm(t, s), N) == 1
    ]


def _expected_order(ctx: OrderContext, N: int) -> int:
    """|C_N(O)| = h * |(O/NO)*| / |image of the unit group|."""
    img = {(x % N, y % N) for (x, y) in _unit_coords(ctx)}
    return class_number(ctx.disc) * len(unit_group(ctx, N)) // len(img)


def _unit_coords(ctx: OrderContext) -> List[Tuple[int, int]]:
    # units of O as (x, y) with x + y*tau; full lists for D = -3, -4
    units = [(1, 0), (-1, 0)]
    if ctx.disc == -4:
        units += [(0, 1), (0, -1)]
    elif ctx.disc == -3:
        units += [(0, 1), (0, -1), (-1, -1), (1, 1)]
    return units


def class_labels(ctx: OrderContext, N: int) -> Tuple[List[Label], List[Form]]:
    """The class labels of C_N(D), sorted, and the label_form of each.

    The labels are (R, least row of (u, v)*Aut(R) mod N) over the reduced
    forms R and the rows (u, v) mod N with R(v, -u) coprime to N, since
    label_form gives R^(sigma^-1), whose leading coefficient is R(v, -u) mod N.
    Sorted, the principal class comes first.  Their number is checked against
    the class number formula (_expected_order).  No composition is made, so
    a caller that needs only one representative per class, as
    invariants.minimal_polynomial does, takes them from here.
    """
    if N < 1:
        raise DomainError("level must be positive")
    labels = set()
    for R in enumerate_reduced(ctx.disc):
        auts = _reduced_automorphisms(R)
        for u in range(N):
            for v in range(N):
                if gcd(R.evaluate(v, -u), N) == 1:
                    labels.add((R, _least_row(u, v, auts, N)))
    labels = sorted(labels)
    target = _expected_order(ctx, N)
    if len(labels) != target:
        raise InvariantViolation(f"found {len(labels)} class labels, expected {target}")
    return labels, [label_form(label, N) for label in labels]


def class_enumerate(ctx: OrderContext, N: int) -> ClassGroup:
    """Build C_N(D) straight from its class labels (class_labels), the
    classes numbered by sorted label, so index 0 is the principal class.

    The table is filled by a coset walk.  Each stage takes as generator s
    the least class outside the subgroup H built so far and composes each
    class of the coset H*s^(i-1) with s, for i = 1, 2, ..., each product
    identified by class_label, until s^m = s^(m-1)*s lands in H.  So every
    class is named by one composition, and each stage composes one more
    coset, its last, to check the wrap-around: at most 2n compositions in
    all, as H at least doubles at each stage.  The walk checks the law as
    it goes: the principal class times s must be s, every class it reaches
    must be new, and each class h*s^(m-1) of the last coset times s must be
    h*s^m, the class of H that the walk's coordinates predict.  Each Cayley
    row cay_s then comes from those coordinates with no composition, and a
    class z = y*s of the stage gets row z = (cay_s[v] for v in row y),
    since z*j = (y*j)*s.
    """
    labels, reps = class_labels(ctx, N)
    n = len(labels)
    index = {label: i for i, label in enumerate(labels)}

    def product(y: int, s: int) -> int:
        k = index.get(class_label(compose_level(reps[y], reps[s], ctx, N), N))
        if k is None:
            raise InvariantViolation(f"product of classes {y} and {s} has no known label")
        return k

    # walk[p + h*i] = walk[p]*s^i for p < h = |H| and i < m, one stage per s
    walk = [0]
    pos = [0] + [n] * (n - 1)  # class -> its place in walk, n while unreached
    stages = []  # (s, h, m, carry s^m, products of the last coset with s)
    while len(walk) < n:
        s = pos.index(n)
        h = len(walk)
        while True:
            coset = [product(y, s) for y in walk[-h:]]
            if len(walk) == h and coset[0] != s:
                raise InvariantViolation(f"the principal class times class {s} is class {coset[0]}")
            if pos[coset[0]] < h:
                break  # s^m lies in H
            for z in coset:
                if pos[z] < n:
                    raise InvariantViolation(f"the walk on class {s} reached class {z} twice")
                pos[z] = len(walk)
                walk.append(z)
        stages.append((s, h, len(walk) // h, coset[0], coset))

    table: List[Optional[List[int]]] = [list(range(n))] + [None] * (n - 1)
    for s, h, m, carry, wrap in stages:
        # walk[base + r] = walk[r]*walk[base] for base a multiple of the block
        # h*m, so walk[base + r]*s is walk[base + r + h] off the block's last
        # coset, and walk[base + top[p]] on it, where walk[top[p]] = walk[p]*carry
        block, last = h * m, h * (m - 1)
        top = [pos[table[y][carry]] for y in walk[:h]]
        cay = [0] * n  # cay[y] = index of [reps[y]][reps[s]]
        for base in range(0, n, block):
            for q in range(base, base + last):
                cay[walk[q]] = walk[q + h]
            for p in range(h):
                cay[walk[base + last + p]] = walk[base + top[p]]
        for p in range(h):
            if wrap[p] != cay[walk[last + p]]:
                raise InvariantViolation(
                    f"class {walk[last + p]} times class {s} is class {wrap[p]}, "
                    f"not class {cay[walk[last + p]]} as the walk predicts"
                )
        for q in range(h, block):
            table[walk[q]] = [cay[v] for v in table[walk[q - h]]]  # z*j = (y*j)*s
    log.info(
        "class_enumerate D=%d N=%d: %d classes, %d generators, %d coset steps, %d compositions",
        ctx.disc, N, n, len(stages), sum(m for _, _, m, _, _ in stages),
        sum(h * m for _, h, m, _, _ in stages),
    )

    factors, characters, greedy_walk = group_structure_from_table(table)
    G = ClassGroup(ctx.disc, N, reps, table, factors, characters)
    G._index = index
    G._walk = greedy_walk
    return G


# ---------------------------------------------------------------------------
# abelian structure from a multiplication table


def _validate_group_table(table: Sequence[Sequence[int]]) -> None:
    n = len(table)
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise InvariantViolation("identity row/column malformed")
        if 0 not in table[i]:
            raise InvariantViolation(f"element {i} has no inverse")
    for row, column in zip(table, zip(*table)):
        if tuple(row) != column:
            raise InvariantViolation("table is not commutative")
    if n <= 24:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise InvariantViolation("table is not associative")


class Walk(NamedTuple):
    """The greedy walk of group_structure_from_table.

    `elems` lists the elements in walk order.  Stage t adjoins g_t, of order
    m_t over the subgroup H built so far: with size = |H|, element
    i*size + p of the order is elems[p]*g_t^i, and character k*m_t + j of
    H<g_t> extends character k of H by chi(g_t) = (column[k] + j*e)/(m_t*e),
    where column[k] = e*chi_k(g_t^m_t) and e is the group exponent.
    `stages` holds (m_t, column) for each stage, in walk order.
    """

    elems: List[int]
    stages: List[Tuple[int, List[int]]]


def group_structure_from_table(
    table: Sequence[Sequence[int]],
) -> Tuple[List[int], List[List[int]], Walk]:
    """(invariant factors d_1 | d_2 | ..., character table, walk) of an abelian
    table whose identity is element 0.

    A greedy walk grows a subgroup H from {0}, with its characters.  Each
    step adjoins the least g of largest order m over H; g spans a direct summand
    of G/H, so the m are the invariant factors, largest first.  Each character
    chi of H extends in m ways, chi(g) = (chi(g^m) + j)/m for j < m, and
    chi(h*g^i) = chi(h) + i*chi(g), so characters[0] is the trivial character.
    characters[k][x] = v in [0, e) means chi_k(x) = v/e in Q/Z, with e the
    largest invariant factor (1 for the trivial group).
    """
    _validate_group_table(table)
    n = len(table)
    elems = [0]  # H in walk order
    pos = {0: 0}  # element -> its index in elems
    chars = [[0]]  # chars[k][p] * (1/e) = chi_k(elems[p]) mod 1, e the exponent
    factors: List[int] = []
    stages: List[Tuple[int, List[int]]] = []
    e = 1
    while len(elems) < n:
        m = 0
        for x in range(n):
            if x not in pos:
                y, k = x, 1
                while y not in pos:
                    if k == n:
                        raise InvariantViolation(
                            f"element {x} has no power in the subgroup after {n} steps"
                        )
                    y, k = table[y][x], k + 1
                if k > m:
                    g, gm, m = x, y, k
        factors.append(m)
        # e, the exponent of G, is divisible by every m, and so is e*chi(g^m)
        e = factors[0]
        size = len(elems)
        power = 0
        for i in range(1, m):
            power = table[power][g]
            for h in elems[:size]:
                pos[table[h][power]] = len(elems)
                elems.append(table[h][power])
        column = [row[pos[gm]] for row in chars]
        stages.append((m, column))
        chars = [
            row + [(row[p] + i * c) % e for i in range(1, m) for p in range(size)]
            for row, b in zip(chars, column)
            for c in ((b + j * e) // m for j in range(m))
        ]
    if sorted(elems) != list(range(n)):
        raise InvariantViolation("the walk did not list every element exactly once")
    characters = [[row[pos[x]] for x in range(n)] for row in chars]
    return factors[::-1], characters, Walk(elems, stages)
