import random

import pytest

from classfield.cartan import _mat_mul, cartan_groups, mu, unit_group
from classfield.numerics import DomainError
from classfield.quadforms import OrderContext
from classfield.refdata import BATTERY_DISCS, BATTERY_LEVELS

RNG_SEED = 1729


def test_unit_group_order_examples(ctx200):
    assert len(unit_group(ctx200, 3)) == 4
    assert len(unit_group(ctx200, 1)) == 1
    # brute force for the Gaussian-order context
    assert len(unit_group(OrderContext.from_disc(-4), 2)) == 2


def test_mu_examples(ctx200):
    # -c0 = -50 = 1 mod 3
    assert mu(ctx200, 3, 1, 0) == (0, 1, 1, 0)
    assert mu(ctx200, 3, 0, 1) == (1, 0, 0, 1)


def test_mu_multiplicative(ctx200):
    rng = random.Random(RNG_SEED)
    for N in (3, 4, 5, 8):
        for _ in range(30):
            s1, t1, s2, t2 = (rng.randrange(N) for _ in range(4))
            # (s1 tau + t1)(s2 tau + t2) with tau^2 = -b0 tau - c0
            b0, c0 = ctx200.b0, ctx200.c0
            s3 = (s1 * t2 + s2 * t1 - b0 * s1 * s2) % N
            t3 = (t1 * t2 - c0 * s1 * s2) % N
            lhs = mu(ctx200, N, s3, t3)
            a, b = mu(ctx200, N, s1, t1), mu(ctx200, N, s2, t2)
            prod = (
                (a[0] * b[0] + a[1] * b[2]) % N,
                (a[0] * b[1] + a[1] * b[3]) % N,
                (a[2] * b[0] + a[3] * b[2]) % N,
                (a[2] * b[1] + a[3] * b[3]) % N,
            )
            assert lhs == prod


def test_mu_injective_on_units():
    for D in (-20, -15, -200):
        ctx = OrderContext.from_disc(D)
        for N in range(2, 13):
            units = unit_group(ctx, N)
            images = {mu(ctx, N, s, t) for s, t in units}
            assert len(images) == len(units)


def test_cartan_orders(ctx200):
    data = cartan_groups(ctx200, 3)
    assert len(data.W) == 4 and len(data.U) == 2
    assert len(data.What) in (len(data.W), 2 * len(data.W))
    with pytest.raises(DomainError):
        cartan_groups(ctx200, 1)


def test_what_contains_w_and_conjugation():
    # W-hat = W u W*J is a group: closed under multiplication, over the battery
    for D in BATTERY_DISCS:
        ctx = OrderContext.from_disc(D)
        for N in (N for N in BATTERY_LEVELS if N >= 2):
            data = cartan_groups(ctx, N)
            assert data.W <= data.What
            assert (1, ctx.b0 % N, 0, N - 1) in data.What
            assert all(_mat_mul(a, b, N) in data.What for a in data.What for b in data.What), (D, N)
