"""Partial zeta sums for ray classes and derivatives of the order L-functions
at s = 0.

Two independent routes compute the same partial zeta data: a direct sum over
integral ideals bucketed by ray class, and the shifted lattice zeta attached to
a representing form, evaluated by Poisson summation over a reduced basis
(Chowla-Selberg).  The s = 0 derivative itself is the closed-form finite sum
over class invariants; no analytic continuation machinery is implemented.

That sum is computed for every character at once, as one finite Fourier
transform on the class group; there is no one-character path.  `lderiv0_all`
runs the transform, and `fourier_inversion_residual` its transpose with
conjugate roots, along the greedy walk that class_enumerate
stores on the ClassGroup: one stage per walk step, each a twiddle and a
length-m DFT split over the prime factors of m (mixed-radix Cooley-Tukey), so
n classes cost n * (sum of the primes) products in place of n^2.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Sequence, Tuple

import mpmath
from mpmath import mp

from .invariants import _conjugate_pairs, g_ON
from .numerics import BigComplex, DomainError, working_bits
from .orderideals import _class_bases, _factor_table, labelled_ideals
from .quadforms import ClassGroup, Form, OrderContext, Walk, _unit_coords, reduce_form

__all__ = [
    "ZetaPartial",
    "gamma_ON",
    "zeta_ideal_partial_all",
    "zeta_lattice_partial",
    "log_g_values",
    "lderiv0_all",
    "fourier_inversion_residual",
]


@functools.lru_cache(maxsize=64)
def _roots_of_unity(e: int, prec: int) -> Tuple[mpmath.mpc, ...]:
    """exp(2 pi i k/e) for k = 0, ..., e - 1, each evaluated from k/e in lowest
    terms, so that it is bit for bit the value from the exponent itself."""
    out = []
    with mp.workprec(prec):
        for k in range(e):
            r = Fraction(k, e)
            out.append(mpmath.exp(2j * mpmath.pi * mpmath.mpf(r.numerator) / r.denominator))
    return tuple(out)


def gamma_ON(ctx: OrderContext, N: int) -> int:
    """Number of units of O congruent to 1 mod N*O; counted, not assumed."""
    return sum(1 for (x, y) in _unit_coords(ctx) if (x - 1) % N == 0 and y % N == 0)


@dataclass
class ZetaPartial:
    value: BigComplex
    terms: int
    tail_bound: float


def _require_res_gt1(s: BigComplex) -> None:
    if not s.re > 1:
        raise DomainError("partial zeta sums need Re(s) > 1")


def zeta_ideal_partial_all(
    ctx: OrderContext, N: int, s: BigComplex, bound: int, digits: int = 30
) -> Dict[Tuple, ZetaPartial]:
    """Partial zeta values for every ray class at once, from one enumeration.

    The ideals of norm <= B = bound come from labelled_ideals.  n^-s is
    multiplicative, so it is the product of p^-s over the prime factors of
    n, read off the stream's least-prime-factor table: one exp-log per
    prime dividing a norm, not one per norm.  Each p^-s, each product and
    each class total is a pair of integers in fixed point, 2^-F units with
    F = prec + ceil(Re(s) w) + 1 + bits(T (2w - 1)), prec =
    working_bits(digits), w = bits(B) and T the number of ideals; each
    total becomes a BigComplex once, at prec bits.

    Error bound.  p^-s, evaluated with enough bits that mpmath's error is
    below 2^-7 units, is rounded to the nearest unit in each part, so it is
    within u = 2^-F; |p^-s| <= 2^-Re(s) < 1/2.  Each product is rounded to
    the nearest unit in each part, again within u.  n has k <= w - 1 prime
    factors, and a product of k such factors, each partial product of
    modulus at most 1, is within (2k - 1) u <= (2w - 1) u of n^-s.  The
    integer sums are exact, so a class total of t terms is within
    t (2w - 1) u <= 2^-prec 2^-Re(s) w < 2^-prec B^-Re(s) of the exact sum
    S; rounding it to prec bits adds at most 2^-prec |total|.  So

        |value - S| <= 2^-prec (|S| + 2 B^-Re(s)).

    The tail 2 kappa B^(1-s)/(s-1), kappa = (ideals of norm <= B)/B, is an
    estimate, not a proven bound: it assumes the class's ideal count keeps
    growing at its rate up to B, with a factor 2 to spare.  At s = 2 against
    zeta_lattice_partial, over D in {-20, -56, -71, -116, -200} and N in
    {1, 2, 3, 5}, the worst |ideal - lattice| / tail was 0.56 at B = 10^4,
    0.60 at B = 2000 and 0.92 at B = 1000; at B <= 200 it exceeds 1 (1.95
    at B = 100).
    """
    _require_res_gt1(s)
    norms: Dict[Tuple, List[int]] = {}
    # ideals not prime to the conductor stay in
    for norm, _, lab in labelled_ideals(ctx, bound, N, _class_bases(ctx, N), coprime_to=N):
        norms.setdefault(lab, []).append(norm)
    for ns in norms.values():
        ns.sort()
    prec = working_bits(digits)
    width = bound.bit_length()
    terms = sum(len(ns) for ns in norms.values())
    frac = prec + math.ceil(float(s.re) * width) + 1 + (terms * (2 * width - 1)).bit_length()  # F
    # bits for p^-s: mpmath's error in exp(-s log p) scales with |s log p|
    eval_bits = frac + 10 + math.ceil(abs(complex(s.re, s.im)) * width).bit_length()
    half = 1 << (frac - 1)
    spf = _factor_table(bound)
    s_ = s.to_mpc()
    primes: Dict[int, Tuple[int, int]] = {}  # p -> p^-s, for the p that divide a norm
    totals = [[0, 0] for _ in norms]
    # ascending norms over all classes: one power per distinct norm, added
    # times its ideal count to each class with ideals of that norm
    sweep = heapq.merge(*(zip(ns, itertools.repeat(i)) for i, ns in enumerate(norms.values())))
    last = None
    for (n, i), run in itertools.groupby(sweep):
        if n != last:
            last, x, y, m = n, 1 << frac, 0, n
            while m > 1:
                p = spf[m] or m
                m //= p
                if p not in primes:
                    with mp.workprec(eval_bits):
                        z = mpmath.exp(-s_ * mpmath.log(p))
                        primes[p] = (int(mpmath.nint(mpmath.ldexp(z.real, frac))),
                                     int(mpmath.nint(mpmath.ldexp(z.imag, frac))))
                a, b = primes[p]
                x, y = (x * a - y * b + half) >> frac, (x * b + y * a + half) >> frac
        count = sum(1 for _ in run)
        totals[i][0] += count * x
        totals[i][1] += count * y
    out = {}
    for (lab, ns), (x, y) in zip(norms.items(), totals):
        # near-linear ideal count growth: sum_{n > B} count'(n)/n^Re(s)
        kappa = len(ns) / bound
        tail = float(2 * kappa * bound ** (1 - float(s.re)) / (float(s.re) - 1))
        value = BigComplex(Fraction(x, 1 << frac), Fraction(y, 1 << frac), prec)
        out[lab] = ZetaPartial(value, len(ns), tail)
    return out


@functools.lru_cache(maxsize=256)
def _hurwitz_pair(z: mpmath.mpc, x: Fraction, prec: int) -> mpmath.mpc:
    """sum of |n|^-z over n in x + Z, n != 0: zeta(z, x) + zeta(z, 1 - x)."""
    with mp.workprec(prec):
        if x == 0:
            return 2 * mpmath.zeta(z)
        x = mpmath.mpf(x.numerator) / x.denominator
        return mpmath.zeta(z, x) + mpmath.zeta(z, 1 - x)


def zeta_lattice_partial(
    Q: Form, ctx: OrderContext, N: int, s: BigComplex, M: int, digits: int = 30
) -> ZetaPartial:
    """The form-side partial zeta, by Poisson summation over a reduced basis.

    The value is (N^2 a)^-s / gamma * sum |m w + n + a'/N|^-2s over (m, n) in
    Z^2, with w = (b + sqrt(D))/(2a), a' = a^-1 mod N and the zero point left
    out: that is 1/gamma * sum P(u, v)^-s over the coset (u, v) = (0, a') mod N of
    P = c u^2 + b u v + a v^2.  Reducing P to R = (A, B, C) = A |x + y tau|^2
    in exact integers moves the coset to (x, y) = N (n + t, m + mu), and
    Poisson summation in n gives each row j = m + mu != 0 (Chowla-Selberg) as

        sum_n ((n + x_j)^2 + y_j^2)^-s = sqrt(pi) G(s - 1/2)/G(s) y_j^(1-2s)
            + 4 pi^s/G(s) sum_k (k/y_j)^(s-1/2) K_(s-1/2)(2 pi k y_j) cos(2 pi k x_j)

    with x_j = t + j Re tau and y_j = |j| Im tau.  Over the rows the leading
    terms sum to Hurwitz zetas, as does the row j = 0.  M is the row cutoff:
    rows |m| <= M get their Bessel series, each cut once its remainder is
    provably below 2^(16 - prec) of the leading terms.  `terms` counts the
    Bessel terms evaluated, and `tail_bound` bounds the omitted ones: the cut
    series, charged that budget each, and the rows left out.
    """
    _require_res_gt1(s)
    if gcd(Q.a, N) != 1:
        raise DomainError("form must be coprime to the level")
    a_inv = pow(Q.a, -1, N)
    R, g = reduce_form(Form(Q.c, Q.b, Q.a))
    A, B, _ = R
    # (x, y) = g^-1 (u, v), so the coset (0, a') becomes N (t, mu) mod N
    t = Fraction(-g.q * a_inv % N, N)
    mu = Fraction(g.p * a_inv % N, N)
    gamma = gamma_ON(ctx, N)
    prec = working_bits(digits)
    sr = float(s.re)
    p = sr - 1
    # |K_(s-1/2)(X)| <= K_(p+1/2)(X) <= sqrt(pi/(2X)) e^-X beta(X), from the
    # integral for K_(p+1/2) and (1 + v)^p <= max(1, 2^(p-1)) (1 + v^p)
    log_cp = max(0.0, (p - 1) * math.log(2))
    log_gp = math.lgamma(2 * p + 1) - math.lgamma(p + 1)

    def log_term(y: float, k: int) -> float:
        """ln of a bound on |2 (k/y)^(s-1/2) K_(s-1/2)(2 pi k y)|."""
        X = 2 * math.pi * k * y
        log_beta = log_cp + math.log1p(math.exp(log_gp - p * math.log(2 * X)))
        return log_beta + p * math.log(k) - X - sr * math.log(y)

    def log_rest(y: float, K: int) -> float:
        """ln of a bound on the same summed over k > K, times |cos| <= 1."""
        a = 2 * math.pi * y
        rho = ((K + 2) / (K + 1)) ** p * math.exp(-a)
        if rho < 1:
            # the term bounds fall by at least rho from k = K + 1 on
            return log_term(y, K + 1) - math.log1p(-rho)
        if K > 0:
            return math.inf
        # sum_k k^p e^(-a k) is at most the largest summand plus the integral
        peak = (p / (a * math.e)) ** p + math.exp(math.lgamma(p + 1) - (p + 1) * math.log(a))
        return log_term(y, 1) + a + math.log(peak)

    with mp.workprec(prec):
        s_ = s.to_mpc()
        nu = s_ - mpmath.mpf(1) / 2
        im_tau = mpmath.sqrt(-R.disc) / (2 * A)
        im_f = float(im_tau)
        lead = mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu) / mpmath.gamma(s_)
        lead *= im_tau ** (1 - 2 * s_) * _hurwitz_pair(2 * s_ - 1, min(mu, 1 - mu), prec)
        scale = abs(lead)
        if mu == 0:
            row0 = _hurwitz_pair(2 * s_, min(t, 1 - t), prec)
            lead += row0
            scale += abs(row0)
        half_c = 2 * mpmath.pi**s_ / mpmath.gamma(s_)
        log_eps = (16 - prec) * math.log(2) + float(mpmath.log(scale / abs(half_c)))
        n = int(sr) - 1 if s.im == 0 and s.re == int(s.re) else None
        if n is not None:
            # K_(n+1/2)(X) = sqrt(pi/(2X)) e^-X sum_i (n+i)!/(i!(n-i)!) (2X)^-i
            poly = [
                math.factorial(n + i) // (math.factorial(i) * math.factorial(n - i))
                for i in range(n, -1, -1)
            ]
        cospi2 = {}  # cos(2 pi r/d) by (r, d)
        # the rows N j = N (m + mu) for |m| <= M, by increasing |j|
        Nmu = mu.numerator * (N // mu.denominator)
        rows = heapq.merge(
            range(Nmu or N, Nmu + N * M + 1, N), range(Nmu - N, Nmu - N * M - 1, -N), key=abs
        )
        evaluated = {True: 0, False: 0}  # rows with j > 0 and j < 0
        bessel = mpmath.mpf(0)
        terms = 0
        for Nj in rows:
            if log_rest(abs(Nj) * im_f / N, 0) <= log_eps:
                break
            y = abs(Nj) * im_tau / N
            y_f = float(y)
            x = t + Fraction(Nj * B, 2 * A * N)
            xn, xd = x.numerator, x.denominator
            if n is not None:
                q = mpmath.exp(-2 * mpmath.pi * y)
                u = 1 / (4 * mpmath.pi * y)
                qk = mpmath.mpf(1)
            row = mpmath.mpf(0)
            k = 0
            while True:
                k += 1
                r = k * xn % xd
                cos = cospi2.get((r, xd))
                if cos is None:
                    cos = cospi2[r, xd] = mpmath.cospi(mpmath.mpf(2 * r) / xd)
                if n is not None:
                    # 2 (k/y)^(n+1/2) K_(n+1/2)(2 pi k y) = k^n q^k poly(u/k) / y^(n+1)
                    qk *= q
                    w = u / k
                    acc = mpmath.mpf(0)
                    for c in poly:
                        acc = acc * w + c
                    row += k**n * qk * acc * cos
                else:
                    # bits enough for this term to be right to 2^-10 of the budget
                    bits = (log_term(y_f, k) - log_eps) / math.log(2) + 10
                    with mp.workprec(max(53, min(prec, int(bits)))):
                        kb = mpmath.besselk(nu, 2 * mpmath.pi * k * y)
                    row += 2 * mpmath.exp(nu * mpmath.log(k / y)) * kb * cos
                if log_rest(y_f, k) <= log_eps:
                    break
            bessel += row / y ** (n + 1) if n is not None else row
            terms += k
            evaluated[Nj > 0] += 1

        def side_rest(r: Fraction) -> mpmath.mpf:
            """Bound on the rows |j| = r, r + 1, ... of one side, none evaluated."""
            total = mpmath.mpf(0)
            while True:
                bound = mpmath.exp(log_rest(r * im_f, 0))
                if 2**p * math.exp(-2 * math.pi * r * im_f) < 1:
                    # from here on each row's bound is e^(-2 pi Im tau) times the last
                    return total + bound / (1 - mpmath.exp(-2 * mpmath.pi * im_tau))
                total += bound
                r += 1

        # each side's rows start at |j| = mu (or 1 when mu = 0) and 1 - mu
        rest = sum(evaluated.values()) * mpmath.exp(log_eps)
        rest += side_rest((mu or 1) + evaluated[True]) + side_rest(1 - mu + evaluated[False])
        pref = mpmath.exp(-s_ * mpmath.log(A * N * N)) / gamma
        total = pref * (lead + half_c * bessel)
        tail = float(abs(pref * half_c) * rest)
    return ZetaPartial(BigComplex.from_mpc(total, prec), terms, max(tail, sys.float_info.min))


def log_g_values(G: ClassGroup, ctx: OrderContext, digits: int) -> List[mpmath.mpf]:
    """ln|g(C)| for every class, at working precision.

    g(conj C) = conj g(C), so g_ON runs once per self-conjugate class and once
    per conjugate pair (invariants._conjugate_pairs), and a pair shares its ln|g|.
    """
    prec = working_bits(digits)
    out: List[mpmath.mpf] = [None] * G.order
    for i, j, g in _conjugate_pairs(G.reps, G.level, lambda Q: g_ON(Q, ctx, G.level, digits)):
        with mp.workprec(prec):
            out[i] = out[j] = mpmath.log(abs(g.to_mpc()))
    return out


def lderiv0_all(
    G: ClassGroup, ctx: OrderContext, digits: int, logs: Sequence[mpmath.mpf]
) -> List[BigComplex]:
    """L'(0, chi_k) = -1/(gamma 6N) * sum_C chi_k(C) ln|g(C)| for every
    character: entry k is for chi_k = G.characters[k], with chi_k(C_i) =
    e^(2 pi i chi_k[i]/e), e = G.exponent.  logs is log_g_values(G, ctx, digits).

    One transform along G's walk gives every sum in n * (sum of the prime
    factors of the walk's m) products.
    """
    N = G.level
    gamma = gamma_ON(ctx, N)
    prec = working_bits(digits)
    sums = _character_sums(G._walk, G.exponent, logs, prec)
    with mp.workprec(prec):
        scale = mpmath.mpf(-1) / (gamma * 6 * N)
        return [BigComplex.from_mpc(total * scale, prec) for total in sums]


def fourier_inversion_residual(
    G: ClassGroup,
    ctx: OrderContext,
    values: Sequence[BigComplex],
    logs: Sequence[mpmath.mpf],
    prec: int,
) -> mpmath.mpf:
    """max_i |scale * sum_k conj chi_k(C_i) L'(0, chi_k) - ln|g(C_i)||.

    Finite Fourier inversion of L'(0, chi) with scale = -gamma 6N / |G|:
    values is the list lderiv0_all returns, at `prec` bits.  The sums over k
    are the transpose of lderiv0_all's transform, with conjugate roots.
    """
    with mp.workprec(prec):
        scale = mpmath.mpf(-gamma_ON(ctx, G.level) * 6 * G.level) / G.order
        # a generator, so that the transform holds the only copy of the values
        sums = _class_sums(G._walk, G.exponent, (v.to_mpc() for v in values), prec)
        return max(abs(scale * acc - x) for acc, x in zip(sums, logs))


# ---------------------------------------------------------------------------
# the Fourier transform over the characters, along the class group's walk


def _least_prime(m: int) -> int:
    return next(p for p in range(2, m + 1) if m % p == 0)


def _times_root(x, a: int, roots: Sequence[mpmath.mpc]):
    """x times roots[a]; exact when that root is 1 or -1."""
    e = len(roots)
    a %= e
    if a == 0:
        return x
    if 2 * a == e:
        return -x
    return roots[a] * x


def _dft(xs: List, roots: Sequence[mpmath.mpc], step: int) -> List:
    """[sum_i w^(i*j) xs[i] for j < m = len(xs)], with w = roots[step] a
    primitive m-th root of unity.

    Cooley-Tukey over the least prime p of m, i = i1 + p*i2 and j = j1 + r*j2
    with r = m/p: r-point transforms of xs[i1::p], the twiddle w^(i1*j1),
    then p-point sums, so each value costs about the sum of m's primes.
    """
    m = len(xs)
    if m == 1:
        return xs
    p = _least_prime(m)
    r = m // p
    subs = [_dft(xs[i1::p], roots, step * p) for i1 in range(p)]
    out = [None] * m
    for j1 in range(r):
        t = [_times_root(subs[i1][j1], i1 * j1 * step, roots) for i1 in range(p)]
        for j2 in range(p):
            acc = t[0]
            for i1 in range(1, p):
                acc += _times_root(t[i1], i1 * j2 * r * step, roots)
            out[j1 + r * j2] = acc
    return out


def _character_sums(walk: Walk, e: int, xs: Sequence, prec: int) -> List:
    """[sum_x chi_k(x) xs[x] for each character k], along the walk of a group
    of exponent e, numbered as group_structure_from_table numbers them.

    Before stage (m, column) the data holds, for each block of the walk
    order and each character k of the subgroup H built so far, H's sum over
    the block: data[r + i*|H| + k] for slice i of the block at r.  The stage
    multiplies slice i by chi_k(g)^i without the j*e/m part, that is
    roots[i*column[k]/m], and takes a length-m DFT over i into
    data[r + k*m + j], the sum at character k*m + j.
    """
    elems, stages = walk
    n = len(elems)
    roots = _roots_of_unity(e, prec)
    with mp.workprec(prec):
        data = [xs[x] for x in elems]
        size = 1
        for m, column in stages:
            block = m * size
            for r in range(0, n, block):
                sums = []
                for k, b in enumerate(column):
                    vals = [_times_root(data[r + i * size + k], i * (b // m), roots) for i in range(m)]
                    sums += _dft(vals, roots, e // m)
                # block by block in place, so about n values are alive at once
                data[r : r + block] = sums
            size = block
    return data


def _class_sums(walk: Walk, e: int, ys: Iterable, prec: int) -> List:
    """[sum_k conj chi_k(x) ys[k] for each element x]: the stages of
    _character_sums transposed and in reverse order, with conjugate roots."""
    elems, stages = walk
    n = len(elems)
    roots = _roots_of_unity(e, prec)
    with mp.workprec(prec):
        data = list(ys)
        size = n
        for m, column in reversed(stages):
            size //= m
            block = m * size
            for r in range(0, n, block):
                slices = [[None] * size for _ in range(m)]
                for k, b in enumerate(column):
                    vals = _dft(data[r + k * m : r + (k + 1) * m], roots, -(e // m))
                    for i, x in enumerate(vals):
                        slices[i][k] = _times_root(x, -i * (b // m), roots)
                data[r : r + block] = [x for row in slices for x in row]
    out = [None] * n
    for q, x in enumerate(elems):
        out[x] = data[q]
    return out

