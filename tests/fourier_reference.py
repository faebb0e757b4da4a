"""The n^2 character sums behind the L-derivatives, one term per (character,
class) pair.

classfield.lfunctions computes these sums for all characters at once by one
transform along the class group's walk (`lderiv0_all`) and its transpose
(`fourier_inversion_residual`); the tests check both against the direct sums
here.
"""

from __future__ import annotations

from typing import List, Sequence

import mpmath
from mpmath import mp

from classfield.lfunctions import _roots_of_unity, gamma_ON
from classfield.numerics import BigComplex
from classfield.quadforms import ClassGroup, OrderContext


def character_sums(characters: Sequence[Sequence[int]], e: int, xs: Sequence, prec: int) -> List:
    """[sum_x chi_k(x) xs[x] for each character k], characters over exponent e."""
    roots = _roots_of_unity(e, prec)
    with mp.workprec(prec):
        out = []
        for chi in characters:
            acc = mpmath.mpc(0)
            for v, x in zip(chi, xs):
                acc += roots[v] * x
            out.append(acc)
    return out


def class_sums(characters: Sequence[Sequence[int]], e: int, ys: Sequence, prec: int) -> List:
    """[sum_k conj chi_k(x) ys[k] for each element x]."""
    roots = _roots_of_unity(e, prec)
    with mp.workprec(prec):
        out = []
        for i in range(len(characters)):
            acc = mpmath.mpc(0)
            for chi, y in zip(characters, ys):
                acc += mpmath.conj(roots[chi[i]]) * y
            out.append(acc)
    return out


def lderiv0_values(
    G: ClassGroup, ctx: OrderContext, logs: Sequence[mpmath.mpf], prec: int
) -> List[BigComplex]:
    """L'(0, chi_k) = -1/(gamma 6N) * sum_C chi_k(C) ln|g(C)| for every
    character k, one n-term sum each, at `prec` bits."""
    sums = character_sums(G.characters, G.exponent, logs, prec)
    with mp.workprec(prec):
        scale = mpmath.mpf(-1) / (gamma_ON(ctx, G.level) * 6 * G.level)
        return [BigComplex.from_mpc(total * scale, prec) for total in sums]


def fourier_inversion_residual(
    G: ClassGroup,
    ctx: OrderContext,
    values: Sequence[BigComplex],
    logs: Sequence[mpmath.mpf],
    prec: int,
) -> mpmath.mpf:
    """max_i |scale * sum_k conj chi_k(C_i) L'(0, chi_k) - ln|g(C_i)||, scale =
    -gamma 6N / |G|, summed term by term."""
    with mp.workprec(prec):
        scale = mpmath.mpf(-gamma_ON(ctx, G.level) * 6 * G.level) / G.order
        sums = class_sums(G.characters, G.exponent, [v.to_mpc() for v in values], prec)
        return max(abs(scale * acc - x) for acc, x in zip(sums, logs))
