"""Ray class invariants of Fricke families, their Galois orbits, and integer
minimal-polynomial reconstruction.

A class [Q] is evaluated through the explicit matrix route: the invariant is
the family member at index v*M evaluated at -conj(omega_Q), with
M = [[1, -a'(b+b0)/2], [0, a']] and a*a' = 1 mod N.  The general ideal route
is kept alongside as the independence check: it reads a basis of the inverse
ideal and the change-of-basis matrix off any integral ideal's form, in exact
integers (orderideals._ideal_form).

A family's index is an integer row over the class level N, v = row/N, and
every evaluation moves it the same way: `_index_row` takes row M gamma mod N
for the index matrix M and the reduction witness gamma, and keeps the lesser
of +-row.  The 12N-th Siegel power g_ON runs in integers from there to the
minimal polynomial: the Siegel value is the fixed-point pair of
`modfun.siegel_fixed`, its power `numerics.int_power` on that pair, and
`minimal_polynomial` multiplies the real factors as fixed-point ints
(`_expand_real`) and recognizes their coefficients on those ints
(`numerics.recognize_int`).  Fricke values take the same row to
`modfun.fricke`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from math import gcd
from typing import Callable, Iterator, List, Literal, Optional, Sequence, Tuple, TypeVar

import mpmath
from mpmath import mp

from . import modfun
from .numerics import (
    BigComplex,
    DomainError,
    InvariantViolation,
    PrecisionPolicy,
    int_power,
    recognize_int,
    working_bits,
)
from .orderideals import Ideal, _ideal_form, form_to_lattice
from .quadforms import Form, OrderContext, class_label, class_labels, reduce_form

log = logging.getLogger(__name__)

__all__ = [
    "FamilyId",
    "MinimalPolynomialResult",
    "class_invariant",
    "general_invariant",
    "g_ON",
    "g_ON_from_ideal",
    "conjugate_orbit",
    "minimal_polynomial",
]

FamilyKind = Literal["fricke_f", "siegel_12N", "j_rational"]
T = TypeVar("T")


@dataclass(frozen=True)
class FamilyId:
    """A Fricke family (or a rational function of j) used as invariant source,
    with the integer row of its base index v = row/N over the class level N
    (j has no index and ignores it)."""

    kind: FamilyKind
    row: Tuple[int, int] = (0, 1)

    @classmethod
    def siegel_power(cls, u1: int = 0, u2: int = 1) -> "FamilyId":
        return cls("siegel_12N", (u1, u2))

    @classmethod
    def fricke(cls, u1: int = 0, u2: int = 1) -> "FamilyId":
        return cls("fricke_f", (u1, u2))

    @classmethod
    def j(cls) -> "FamilyId":
        return cls("j_rational")


def _check_ctx(ctx: OrderContext) -> None:
    if ctx.disc in (-3, -4):
        raise DomainError("discriminants -3 and -4 are excluded here")


def _family_value_at(family: FamilyId, index_matrix, Qxi: Form, N: int, digits: int) -> BigComplex:
    """Family member at index v*M, evaluated at the root xi of Qxi via a
    Gauss-reduced point: `_reduced_index`, then the value there.

    h_w(xi) = h_{w gamma}(omega_R) for the reduction witness Q_xi^gamma = R,
    which keeps the evaluation point high in the upper half-plane regardless
    of the representative's size.
    """
    if family.kind == "j_rational":
        return modfun.delta_j(reduce_form(Qxi)[0].omega(digits), digits)[1]
    R, u, v = _reduced_index(family.row, index_matrix, Qxi, N)
    if family.kind == "siegel_12N":
        x, y, e, _ = _siegel_power(R, u, v, N, digits)
        return BigComplex.from_ints(x, y, e, working_bits(digits))
    return modfun.fricke((u, v, N), R.omega(digits), digits)


def _index_row(row, M, gam, N: int) -> Tuple[int, int]:
    """row M gam mod N, of it and its negative the lesser: the index
    v M gam of v = row/N as a row over N, normalized for even functions of v
    (every Fricke function, and the Siegel function's even powers, since
    g_{-v} = -g_v).  A row that moves to 0 mod N raises DomainError; for the
    index matrices here M gam is invertible mod N, so only a row = 0 does."""
    u1, u2 = row
    for p, q, r, s in (M, gam):
        u1, u2 = u1 * p + u2 * r, u1 * q + u2 * s
    u1, u2 = u1 % N, u2 % N
    if u1 == u2 == 0:
        raise DomainError(f"the index row {tuple(row)} is 0 mod {N}")
    return min((u1, u2), (-u1 % N, -u2 % N))


def _reduced_index(row, index_matrix, Qxi: Form, N: int) -> Tuple[Form, int, int]:
    """(R, u, v), the precision-free half of an evaluation at the root xi of
    Qxi: R the reduced form of Qxi, whose root is the evaluation point, and
    (u, v) the row over N of the index v M gamma of v = row/N, for the
    reduction witness Qxi^gamma = R (`_index_row`).

    For g_ON's row (0, 1) and the matrices of class_invariant and
    general_invariant the row is a unit times gamma's bottom row, so it is
    primitive mod N and the index has level N.
    """
    R, gam = reduce_form(Qxi)
    return (R, *_index_row(row, index_matrix, gam, N))


def _siegel_power(R: Form, u: int, v: int, N: int, digits: int) -> Tuple[int, int, int, int]:
    """g_(u/N, v/N)(omega_R)^(12N) in integers, the evaluation half after
    `_reduced_index`: (x, y, e, F) with the power (x + iy) 2^e before its
    rounding to p = working_bits(digits) bits, and F the fixed-point bits of
    the Siegel series at omega_R.  int_power keeps the power within relative
    2^-(p+1) of the 12N-th power of the kernel's value.
    """
    prec = working_bits(digits)
    x, y, F = modfun.siegel_fixed(u, v, N, R.omega(digits), prec)
    return (*int_power(x, y, -F, 12 * N, prec), F)


def _class_matrix(Q: Form, ctx: OrderContext, N: int):
    """The index matrix M = (1, -a'(b + b0)/2, 0, a') of the class [Q], a a' = 1 mod N."""
    _check_ctx(ctx)
    if Q.disc != ctx.disc:
        raise DomainError("form does not belong to the order")
    if gcd(Q.a, N) != 1:
        raise DomainError("leading coefficient must be coprime to the level")
    a_inv = pow(Q.a, -1, N) if N > 1 else 1
    return (1, -a_inv * (Q.b + ctx.b0) // 2, 0, a_inv)


def class_invariant(
    family: FamilyId, Q: Form, ctx: OrderContext, N: int, digits: int
) -> BigComplex:
    """Invariant of the class [Q] via the explicit matrix route."""
    # the evaluation point -conj(omega_Q) = (b + sqrt(D))/(2a) is the root of (a, -b, c)
    return _family_value_at(family, _class_matrix(Q, ctx, N), Form(Q.a, -Q.b, Q.c), N, digits)


def general_invariant(
    family: FamilyId, ideal: Ideal, ctx: OrderContext, N: int, digits: int
) -> BigComplex:
    """Invariant from an arbitrary integral ideal representative.

    For L = g*(Z(tau + h) + Z*a) with form Q = (a, b, c), the inverse ideal
    conj(L)/N(L) has the basis xi1 = (tau + b0 - h)/(g*a), xi2 = 1/g, so
    (tau, 1)^t = A (xi1, xi2)^t with A = [[g*a, g*(h - b0)], [0, g]].  The
    family index moves by A and the evaluation point xi1/xi2 = (b + sqrt(D))/(2a)
    is the root of (a, -b, c).
    """
    _check_ctx(ctx)
    g, h, Q = _ideal_form(ctx, ideal)
    if gcd(g * Q.a, N) != 1:
        raise DomainError("ideal must be prime to the level")
    A = (g * Q.a, g * (h - ctx.b0), 0, g)
    return _family_value_at(family, A, Form(Q.a, -Q.b, Q.c), N, digits)


def g_ON(Q: Form, ctx: OrderContext, N: int, digits: int) -> BigComplex:
    """The class invariant used in the L-derivative formula.

    N >= 2: the 12N-th Siegel power at index [0, 1/N], the class invariant
    of FamilyId.siegel_power().  N = 1: the
    positive real (2 pi)^12 N([xi,1])^6 |eta(xi)|^24 from any ideal
    representative (g_ON_from_ideal).
    """
    if N >= 2:
        return class_invariant(FamilyId.siegel_power(), Q, ctx, N, digits)
    return g_ON_from_ideal(form_to_lattice(ctx, Q), ctx, digits)


def g_ON_from_ideal(L: Ideal, ctx: OrderContext, digits: int) -> BigComplex:
    """g_ON at level 1 from the integral ideal L: (2 pi)^12 N([xi,1])^6
    |eta(xi)|^24 for the inverse ideal [xi, 1] up to scale.  At N >= 2,
    general_invariant(FamilyId.siegel_power(), L, ...) is the ideal route."""
    # (2 pi)^12 N([xi,1])^6 |Delta([xi,1])| is basis- and scale-free, so it may
    # be read off the reduced form of the inverse ideal's class, (a, -b, c)
    _, _, Q = _ideal_form(ctx, L)
    R, _ = reduce_form(Form(Q.a, -Q.b, Q.c))
    e = modfun.eta(R.omega(digits), digits)
    with mp.workprec(e.prec):
        val = (2 * mpmath.pi) ** 12 * mpmath.mpf(R.a) ** -6 * abs(e.to_mpc()) ** 24
    return BigComplex.from_mpc(val, e.prec)


def conjugate_orbit(family: FamilyId, ctx: OrderContext, N: int, digits: int) -> List[BigComplex]:
    """All Galois conjugates f(C), in the class order of quadforms.class_labels,
    with no field arithmetic and no group law.

    The family is evaluated once per self-conjugate class and once per
    conjugate pair; the other class of a pair gets the complex conjugate.
    """
    reps = class_labels(ctx, N)[1]
    out: List[Optional[BigComplex]] = [None] * len(reps)
    for i, j, z in _conjugate_pairs(reps, N, lambda Q: class_invariant(family, Q, ctx, N, digits)):
        out[i] = z
        if j != i:
            # negate inside z's precision; the ambient 53 bits would round it
            with mp.workprec(z.prec):
                out[j] = BigComplex(z.re, -z.im, z.prec)
    return out


def _int_str(n: int) -> str:
    """str(n) for an int of any length.

    str() refuses ints of more than sys.get_int_max_str_digits() digits (4300
    by default, 640 at the least), so a longer n is cut at a power of ten
    near its middle and each part printed alone.  (Decimal has no limit, but
    its first conversion adds 0.16 MB to the process's RSS.)
    """
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).rjust(k, "0")


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
    unrecognized: Optional[List[str]] = None  # real decimals of a failed last pass

    def to_json(self) -> dict:
        out = {
            "disc": str(self.disc),
            "level": str(self.level),
            "degree": str(self.degree),
            "ok": self.ok,
            "coefficients": [_int_str(c) for c in self.coefficients] if self.ok else None,
            "residuals": [float(r) for r in self.residuals],
            "precision_used": str(self.precision_used),
            "escalations": str(self.escalations),
        }
        if self.unrecognized is not None:
            out["unrecognized"] = self.unrecognized
        return out


def _conjugate_partners(reps: Sequence[Form], N: int) -> List[int]:
    """partner[i] = index of the class of (a, -b, c) for reps[i] = (a, b, c).

    Complex conjugation maps the class of (a, b, c) to that of (a, -b, c) and
    g(conj C) = conj g(C).  The partner is found by class_label among the
    given reps, so any choice and order of representatives works.
    """
    index = {class_label(Q, N): i for i, Q in enumerate(reps)}
    partner = [index.get(class_label(Form(Q.a, -Q.b, Q.c), N)) for Q in reps]
    if None in partner:
        Q = reps[partner.index(None)]
        raise InvariantViolation(f"the conjugate of the class of {Q} is not among the classes")
    if any(partner[j] != i for i, j in enumerate(partner)):
        raise InvariantViolation("class conjugation is not an involution")
    return partner


def _conjugate_pairs(
    reps: Sequence[Form], N: int, value: Callable[[Form], T]
) -> Iterator[Tuple[int, int, T]]:
    """(i, j, value(reps[i])) for each self-conjugate class i = j and each
    conjugate pair i < j of the classes of reps: the one walk over the
    partners.  The class values g here have g(conj C) = conj g(C), so
    value(reps[j]) is never evaluated.
    """
    for i, j in enumerate(_conjugate_partners(reps, N)):
        if i <= j:
            yield i, j, value(reps[i])


def _siegel_plan(reps: Sequence[Form], ctx: OrderContext, N: int) -> List[Tuple[int, int, Form, int, int]]:
    """(i, j, R, u, v) for each class i = j and pair i < j of _conjugate_pairs:
    g_ON of class i is the Siegel power at the row (u, v) over N and the root
    of R (_reduced_index).  The plan holds no precision, so the probe and
    every pass of minimal_polynomial evaluate it as it is."""
    def point(Q: Form):
        return _reduced_index((0, 1), _class_matrix(Q, ctx, N), Form(Q.a, -Q.b, Q.c), N)

    return [(i, j, *p) for i, j, p in _conjugate_pairs(reps, N, point)]


def _real_factors(plan, N: int, digits: int, tol):
    """One g_ON per self-conjugate class and per conjugate pair of the
    _siegel_plan, the roots of the real factors x - g(C) and
    x^2 - 2 Re g(C) x + |g(C)|^2 of prod_C (x - g(C)).

    Returns (linear, quadratic, log2 M, bits): the real roots as (x, e) and
    the pairs' roots as (x, y, e), each (x + iy) 2^e the 12N-th power before
    its rounding to working_bits(digits); M = prod_C max(1, |g(C)|) over all
    classes; and the fixed-point bits of the Siegel series at each distinct
    evaluation point, as the evaluations report them.
    """
    log2_tol = float(mpmath.log(tol, 2))
    linear: List[Tuple[int, int]] = []
    quadratic: List[Tuple[int, int, int]] = []
    log2_m = 0.0
    points = {}

    for i, j, R, u, v in plan:
        x, y, e, points[R] = _siegel_power(R, u, v, N, digits)
        log2_g = math.log2(x * x + y * y) / 2 + e
        if j == i:
            if y and math.log2(abs(y)) + e >= log2_tol + max(0.0, log2_g):
                raise InvariantViolation(f"g of the self-conjugate class {i} is not real")
            linear.append((x, e))
        else:
            quadratic.append((x, y, e))
        if log2_g > 0:
            log2_m += (1 if j == i else 2) * log2_g
    return linear, quadratic, log2_m, sorted(points.values())


def _cut_poly(c: List[int], e: int, P: int) -> Tuple[List[int], int]:
    """The polynomial with ascending coefficients c 2^e, every coefficient
    floored so that the largest keeps at most P bits."""
    s = max(abs(v).bit_length() for v in c) - P
    return ([v >> s for v in c], e + s) if s > 0 else (c, e)


def _poly_mul(a: Tuple[List[int], int], b: Tuple[List[int], int], P: int) -> Tuple[List[int], int]:
    """Schoolbook product of two polynomials given as ascending integer
    coefficients under one binary exponent, cut to P bits."""
    (ca, ea), (cb, eb) = a, b
    c = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            c[i + j] += x * y
    return _cut_poly(c, ea + eb, P)


def _expand_real(linear, quadratic, prec: int) -> Tuple[List[int], int]:
    """Coefficients (ascending) of prod (x - r) * prod (x^2 - 2 Re g x + |g|^2)
    for roots r = x 2^e and g = (x + iy) 2^e, as ints c under one binary
    exponent e (c 2^e): a product tree of schoolbook products, every factor
    and product cut to P = prec + n + bitlen(n) bits for degree n (gate_bits
    bounds the truncation)."""
    n = len(linear) + 2 * len(quadratic)
    P = prec + n + n.bit_length()
    polys = []
    # each factor exactly, at the exponent -k <= 0 that keeps its leading 1 an int
    for x, e in linear:
        k = max(-e, 0)
        polys.append(_cut_poly([-x << e + k, 1 << k], -k, P))
    for x, y, e in quadratic:
        k = max(-2 * e, 0)
        polys.append(_cut_poly([(x * x + y * y) << 2 * e + k, -x << e + k + 1, 1 << k], -k, P))
    polys = polys or [([1], 0)]
    while len(polys) > 1:
        odd = polys[-1:] if len(polys) % 2 else []
        polys = [_poly_mul(a, b, P) for a, b in zip(polys[::2], polys[1::2])] + odd
    return polys[0]


# the largest float: a residual past it reads as this, so the JSON stays finite;
# one below the float range reads as the least positive float, so it stays > 0
_FLOAT_MAX = float.fromhex("0x1.fffffffffffffp+1023")
_FLOAT_MIN = math.ulp(0.0)
_LOG10_2 = math.log10(2)


def _residual(c: int, e: int, prec: int) -> Tuple[int, int]:
    """(r, k), the residual r 2^-k >= 2^-k of the expanded coefficient
    x = c 2^e: max(|x - nint(x)|, |x| 2^-prec, 2^e), its distance from the
    nearest integer, or its rounding unit (at prec bits, or the expansion's
    2^e) when that is larger."""
    f = max(-e, 0)
    c <<= e + f
    one = 1 << f
    frac = (c + (one >> 1)) % one - (one >> 1)
    return max(abs(frac) << prec, abs(c), 1 << e + f + prec), f + prec


def _float(r: int, k: int) -> float:
    """r 2^-k > 0 as a float, at least the least positive float and at most
    the largest."""
    try:
        return r / (1 << k) or _FLOAT_MIN
    except OverflowError:
        return _FLOAT_MAX


# bits of the working precision that the Siegel value inside g_ON may lose to
# rounding, before the 12N-th power multiplies its relative error by 12N; the
# worst measured was 3.1 bits with the mpmath series and is 1.2 bits with the
# fixed-point kernel (six groups at 10-60 digits), and tests/test_invariants.py
# checks the allowance
G_ON_LOSS_BITS = 8
# with no target digits, a probe evaluates the real factors at PROBE_DIGITS for
# log2 M, and the first pass works PROBE_MARGIN_BITS above what the gate needs
PROBE_DIGITS = 10
PROBE_MARGIN_BITS = 16


def gate_bits(n: int, N: int, log2_m: float, tol) -> float:
    """Working bits p that make every expanded coefficient's error below tol.

    g_ON at p bits is within relative eta = 12N 2^(L - p) of g(C), L =
    G_ON_LOSS_BITS: the Siegel value loses at most L bits, the 12N-th power
    multiplies its relative error by 12N, and L also covers the power's
    rounding; the real factors are taken from the power before its rounding
    to p bits, which is as close.  The coefficient of x^(n-m) is a sum of
    C(n, m) products of m roots, each of modulus at most
    M = prod_C max(1, |g(C)|) (Enge 2009); a product of m roots off by
    relative eta each is off by at most ((1 + eta)^m - 1) times its modulus.
    With n*eta <= 1/4, ((1 + eta)^m - 1) * (1 - eta)^-n <= e^(1/4 + 1/3) m eta
    < 1.8 m eta, the second factor for M taken from the computed values.

    The expansion adds its truncation.  `_expand_real` multiplies the real
    factors in a product tree, and cuts every factor and every product to
    P = p + n + bitlen(n) bits: it floors the coefficients under one binary
    exponent so that the largest keeps P bits.  Measure a polynomial by the
    sum of its coefficients' moduli: the exact product of the factors of a
    set S of roots has at most W_S = prod_S (1 + |g|), and let its computed
    coefficients be off by eps_S W_S in all.  A cut of a polynomial C of
    degree d, computed within eps_C W_C, floors d + 1 coefficients at a unit
    of at most 2^(1-P) (1 + eps_C) W_C.  So a factor has 1 + eps <= 1 +
    (d + 1) 2^(1-P), and a product A B has 1 + eps_AB <= (1 + eps_A)
    (1 + eps_B)(1 + (deg(A B) + 1) 2^(1-P)).  The factors' degrees plus one
    sum to at most 2n, and at each of at most bitlen(n) levels of the tree
    so do the products', so 1 + eps <= exp(n (bitlen(n) + 3) 2^(1-P)) and
    every coefficient is off by at most T = 2^(2-P) n (bitlen(n) + 3) W,
    W = prod_C (1 + |g(C)|) <= 2^n M.  As n < 2^bitlen(n),
    T < 2^(2 - p) (bitlen(n) + 3) M; for N >= 2 and L = 8,
    0.2 eta M >= 2^(10 - p) M, so T <= 0.2 eta M while bitlen(n) < 250.

    So a coefficient is off by at most (1.8 m C(n, m) + 0.2) eta M <=
    2 m eta C(n, m) M.  This is below tol at every m iff p exceeds the
    returned value; m = n then gives n*eta < tol/2 < 1/4.
    """
    spread = max(math.log2(2 * m * math.comb(n, m)) for m in range(1, n + 1))
    return spread + log2_m + math.log2(12 * N) + G_ON_LOSS_BITS - float(mpmath.log(tol, 2))


def probe_digits(plan, n: int, N: int, tol) -> int:
    """Fewest digits d with working_bits(d) > gate_bits + PROBE_MARGIN_BITS
    for n classes, log2 M taken from the real factors of the _siegel_plan at
    PROBE_DIGITS.

    log2 M needs each |g(C)| to a few bits only, so the probe is cheap; the
    pass it sizes recomputes log2 M from its own values and gates on those.
    """
    from time import perf_counter

    start = perf_counter()
    _, _, log2_m, _ = _real_factors(plan, N, PROBE_DIGITS, tol)
    seconds = perf_counter() - start
    need = gate_bits(n, N, log2_m, tol)
    digits = 1
    while working_bits(digits) <= need + PROBE_MARGIN_BITS:
        digits += 1
    log.info(
        "minpoly probe: %d digits give log2 M %.1f, gate needs %.1f bits, chose %d digits, "
        "%.3f s evaluating",
        PROBE_DIGITS, log2_m, need, digits, seconds,
    )
    return digits


def minimal_polynomial(ctx: OrderContext, N: int, policy: PrecisionPolicy) -> MinimalPolynomialResult:
    """Expand prod_C (x - g_ON(C)) over the real factors and recognize
    integer coefficients.

    The classes are the label_form reps of quadforms.class_labels: no
    composition, table or structure is built.
    g(conj C) = conj g(C), so each self-conjugate class gives a real linear
    factor and each conjugate pair {C, conj C} one real quadratic; the
    _siegel_plan names each factor's reduced point and index row once, and
    the probe and every pass only evaluate it.  A pass evaluates g_ON once
    per factor at working_bits(digits), expands the factors in integers a
    little above that and rounds, and is trusted only when gate_bits, the
    precision its error bound needs, is below working_bits(digits).  A
    residual is the distance of a coefficient c from the nearest integer, or
    |c| 2^-prec when larger, so only a coefficient with residual below tol
    is recognized; recognition is numerics.recognize_int on the expansion's
    ints, exact and with no mpmath.  The pass's INFO line reports the worst
    margin, the least log10(tol/residual) over the coefficients.  On a
    failed gate or recognition the target precision doubles, up to the
    policy's escalation budget; the last pass always expands, and a failure
    returns its coefficients and residuals instead of rounding anything
    silently.  A policy without target digits starts at probe_digits.
    """
    from time import perf_counter

    _check_ctx(ctx)
    if N < 2:
        raise DomainError("minimal polynomial needs level >= 2")
    reps = class_labels(ctx, N)[1]
    plan = _siegel_plan(reps, ctx, N)
    n = len(reps)
    tol = policy.recognition_tol()
    log10_tol = math.log10(float(tol))
    if policy.target_decimal_digits is None:
        policy = replace(policy, target_decimal_digits=probe_digits(plan, n, N, tol))
    pol = policy
    for attempt in range(policy.max_escalations + 1):
        digits, working = pol.target_decimal_digits, pol.working_digits
        prec = working_bits(digits)
        start = perf_counter()
        linear, quadratic, log2_m, bits = _real_factors(plan, N, digits, tol)
        evaluated = expanded = recognized = perf_counter()
        need = gate_bits(n, N, log2_m, tol)
        last = attempt == policy.max_escalations
        ok, worst, margin = False, "-", "-"
        if need < prec or last:
            coeffs, e = _expand_real(linear, quadratic, prec)
            coeffs.reverse()
            expanded = perf_counter()
            exact = [_residual(c, e, prec) for c in coeffs]
            residuals = [_float(r, k) for r, k in exact]
            worst = f"{max(residuals):.3e}"
            least = min(log10_tol - math.log10(r) + k * _LOG10_2 for r, k in exact)
            margin = f"{least:.2f} digits"
            if need < prec:
                ints = [recognize_int(c, e, prec, tol) for c in coeffs]
                ok = None not in ints
            recognized = perf_counter()
        log.info(
            "minpoly pass %d: %d digits, %d of %d classes evaluated at %d points "
            "(fixed point %d to %d bits), gate needs %.1f of %d bits, %s, worst residual %s, "
            "worst margin %s, %.3f s evaluating, %.3f s expanding, %.3f s recognizing",
            attempt, digits, len(linear) + len(quadratic), n, len(bits), bits[0], bits[-1], need, prec,
            "ok" if ok else "failed" if last else "escalating", worst, margin,
            evaluated - start, expanded - evaluated, recognized - expanded,
        )
        if ok:
            return MinimalPolynomialResult(ctx.disc, N, n, True, ints, residuals, digits, attempt)
        pol = pol.escalate()
    with mp.workprec(prec):
        raw = [mpmath.nstr(mpmath.mpf((c, e)), working, strip_zeros=False) for c in coeffs]
    return MinimalPolynomialResult(
        ctx.disc, N, n, False, None, residuals, digits, policy.max_escalations, raw
    )
