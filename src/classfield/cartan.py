"""The Cartan subgroup of GL2(Z/NZ) attached to the order's residue ring.

The residue class of s*tau + t embeds as a 2x2 matrix with respect to the
basis {tau, 1}; W is the image of the unit group, U the image of the units of
the order itself, and W-hat the extension by the conjugation matrix.  Only
order bookkeeping is computed here; Galois image claims beyond the order
identity are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from .numerics import DomainError
from .quadforms import OrderContext, _unit_coords, unit_group

__all__ = ["mu", "unit_group", "cartan_groups", "CartanData"]

Mat = Tuple[int, int, int, int]


def mu(ctx: OrderContext, N: int, s: int, t: int) -> Mat:
    """Matrix of multiplication by s*tau + t on {tau, 1}, reduced mod N."""
    return (
        (t - ctx.b0 * s) % N,
        (-ctx.c0 * s) % N,
        s % N,
        t % N,
    )


def _mat_mul(a: Mat, b: Mat, N: int) -> Mat:
    return (
        (a[0] * b[0] + a[1] * b[2]) % N,
        (a[0] * b[1] + a[1] * b[3]) % N,
        (a[2] * b[0] + a[3] * b[2]) % N,
        (a[2] * b[1] + a[3] * b[3]) % N,
    )


@dataclass
class CartanData:
    level: int
    W: FrozenSet[Mat]
    U: FrozenSet[Mat]
    What: FrozenSet[Mat]

    def orders(self) -> dict:
        return {"W": len(self.W), "U": len(self.U), "What": len(self.What)}


def cartan_groups(ctx: OrderContext, N: int) -> CartanData:
    """(W, U, W-hat) with exact orders, for N >= 2."""
    if N < 2:
        raise DomainError("level must be at least 2")
    W = frozenset(mu(ctx, N, s, t) for s, t in unit_group(ctx, N))
    U = frozenset(mu(ctx, N, y, x) for (x, y) in _unit_coords(ctx))
    # J^2 = I and conjugation is a ring automorphism of O/NO, so J normalizes W
    J = (1 % N, ctx.b0 % N, 0, (-1) % N)
    What = W | {_mat_mul(w, J, N) for w in W}
    return CartanData(N, W, U, What)


def wuog_identity_holds(cd: CartanData, class_count: int, h: int) -> bool:
    """|W|/|U| == |C_N(O)|/h, the computable shadow of the Galois description."""
    return len(cd.W) * h == len(cd.U) * class_count
