import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from classfield import orderideals
from classfield.numerics import DomainError, InvariantViolation
from classfield.orderideals import (
    QuadElem,
    QuadLattice,
    _class_bases,
    _disc_roots,
    _integral_ray_model,
    _unit_elems,
    form_ideal_dictionary,
    form_to_lattice,
    fractional_omega_lattice,
    ideal_norm,
    integral_ideals,
    oracle_class_group,
    principal_generator,
    ray_label,
    same_ray_class,
)
from classfield.quadforms import (
    Form,
    OrderContext,
    dirichlet_compose,
    enumerate_reduced,
    make_coprime,
    reduce_form,
)
from classfield.refdata import BATTERY_DISCS, BATTERY_LEVELS

RNG_SEED = 1729


def elem(ctx, x, y):
    return QuadElem.of(ctx, x, y)


def test_elem_arithmetic(ctx200):
    tau = elem(ctx200, 0, 1)
    assert tau * tau == elem(ctx200, -50, 0)  # tau^2 = -50
    assert tau.conj() == -tau
    assert (tau * tau.conj()) == elem(ctx200, 50, 0)
    a = elem(ctx200, Fraction(1, 2), Fraction(1, 3))
    assert a * a.inverse() == elem(ctx200, 1, 0)


def test_norm_examples(ctx200):
    # a[omega_Q, 1] for Q = 2x^2 + 25y^2 has norm a = 2
    assert ideal_norm(form_to_lattice(ctx200, Form(2, 0, 25))) == 2
    # tau*O has norm 50
    tau_ideal = QuadLattice.from_elems(ctx200, [elem(ctx200, 0, 1), elem(ctx200, -50, 0)])
    assert ideal_norm(tau_ideal) == 50
    assert ideal_norm(QuadLattice.order(ctx200)) == 1


def test_norm_rejects_non_module(ctx200):
    L = QuadLattice.from_elems(ctx200, [elem(ctx200, 0, Fraction(1, 3)), elem(ctx200, 1, 0)])
    with pytest.raises(DomainError):
        ideal_norm(L)


def test_ideal_mul_identity(ctx200):
    O = QuadLattice.order(ctx200)
    for Q in enumerate_reduced(-200):
        L = form_to_lattice(ctx200, Q)
        assert O.mul(L) == L


def test_ideal_times_conjugate_is_norm(ctx200):
    rng = random.Random(RNG_SEED)
    pool = list(integral_ideals(ctx200, 60, coprime_to=1))
    for _ in range(20):
        n, L = rng.choice(pool)
        assert L.mul(L.conj()) == QuadLattice.order(ctx200).scale(n)


def test_norm_multiplicative(ctx200):
    rng = random.Random(RNG_SEED)
    pool = list(integral_ideals(ctx200, 60, coprime_to=5))
    for _ in range(30):
        (n1, a), (n2, b) = rng.choice(pool), rng.choice(pool)
        assert ideal_norm(a.mul(b)) == n1 * n2


def test_lattice_product_matches_dirichlet(ctx200):
    # [omega_Q,1][omega_Q'',1] = [omega_Q''',1] for the Dirichlet composite
    Q, Q2 = Form(2, 0, 25), Form(3, -2, 17)
    Q3 = dirichlet_compose(Q, Q2)
    lhs = fractional_omega_lattice(ctx200, Q).mul(fractional_omega_lattice(ctx200, Q2))
    assert lhs == fractional_omega_lattice(ctx200, Q3)


def test_principal_generator(ctx200):
    nu = elem(ctx200, 3, 2)
    L = QuadLattice.from_elems(ctx200, [nu, nu * elem(ctx200, 0, 1)])
    w = principal_generator(L)
    assert w is not None and w.norm() == nu.norm()
    assert L == QuadLattice.from_elems(ctx200, [w, w * elem(ctx200, 0, 1)])
    # non-principal: the class of 2x^2 + 25y^2
    assert principal_generator(form_to_lattice(ctx200, Form(2, 0, 25))) is None


def test_same_ray_class_examples(ctx200):
    O = QuadLattice.order(ctx200)
    tau_ideal = O.scale(elem(ctx200, 0, 1))
    # [O] and [tau O] are distinct kernel classes at level 3
    assert not same_ray_class(O, tau_ideal, 3)
    # lambda = 1 mod 3O multiplies within a class
    lam = elem(ctx200, 4, 3)
    L = form_to_lattice(ctx200, Form(2, 0, 25))
    assert same_ray_class(L, L.scale(lam), 3)
    # Q3-tilde and Q4-tilde ideals are distinct classes
    a = fractional_omega_lattice(ctx200, Form(17, 2, 3))
    b = fractional_omega_lattice(ctx200, Form(17, -2, 3))
    assert not same_ray_class(a, b, 3)


def test_same_ray_class_is_equivalence(ctx200):
    rng = random.Random(RNG_SEED)
    pool = [L for n, L in integral_ideals(ctx200, 40, coprime_to=15)]
    for _ in range(10):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert same_ray_class(a, a, 3)
        assert same_ray_class(a, b, 3) == same_ray_class(b, a, 3)
        if same_ray_class(a, b, 3) and same_ray_class(b, c, 3):
            assert same_ray_class(a, c, 3)


def test_oracle_counts(ctx200):
    assert oracle_class_group(ctx200, 3).order == 12
    assert oracle_class_group(ctx200, 1).order == 6
    assert oracle_class_group(OrderContext.from_disc(-15), 1).order == 2


def test_oracle_dictionary_is_isomorphism(ctx200, G200):
    oracle = oracle_class_group(ctx200, 3)
    phi = form_ideal_dictionary(oracle, G200)
    for i in range(12):
        for j in range(12):
            assert phi[G200.table[i][j]] == oracle.table[phi[i]][phi[j]]


def test_oracle_index_of_rejects_ideal_not_prime_to_level(ctx200):
    # norm 3 or denominator 3 shares the level: no ray class mod 3 holds it
    oracle = oracle_class_group(ctx200, 3)
    with pytest.raises(DomainError):
        oracle.index_of(form_to_lattice(ctx200, Form(3, 2, 17)))
    with pytest.raises(DomainError):
        oracle.index_of(fractional_omega_lattice(ctx200, Form(3, 2, 17)))
    # an ideal prime to the level but not to the conductor 5 has a class
    assert oracle.index_of(fractional_omega_lattice(ctx200, Form(50, 0, 1))) in range(12)


def test_oracle_table_rejects_unseen_product_label(ctx200, monkeypatch):
    # stop the bucketing one class short: some product lands on the missing label
    monkeypatch.setattr(orderideals, "_expected_order", lambda ctx, N: 11)
    with pytest.raises(InvariantViolation, match="no known label"):
        oracle_class_group(ctx200, 3)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 12])
def test_integral_ray_model_scales_by_den_times_inverse(ctx200, N):
    # den*(den^-1 mod N) is a multiple of den that is 1 mod N
    for Q in [Form(3, 2, 17), Form(11, 8, 6), Form(17, 2, 3), Form(51, 2, 1), Form(59, 6, 1)]:
        L = fractional_omega_lattice(ctx200, Q)
        if gcd(L.den, N) != 1:
            continue
        k = L.den * pow(L.den, -1, N) if N > 1 else L.den
        assert k % L.den == 0 and k % N == 1 % N
        assert _integral_ray_model(L, N) == L.scale(k)


def test_integral_ray_model(ctx200):
    L = fractional_omega_lattice(ctx200, Form(2, 0, 25))
    M = _integral_ray_model(L, 3)
    assert M.is_integral()
    assert same_ray_class(M, L.scale(2 ** 2), 3) or M == L.scale(2 ** 2)


def test_enumeration_includes_non_conductor_coprime(ctx200):
    # proper ideals prime to 3 but not to the conductor 5 belong to the zeta monoid
    norms = {n for n, _ in integral_ideals(ctx200, 30, coprime_to=3)}
    assert 25 in norms
    # but never improper (imprimitive-form) ideals
    for n, L in integral_ideals(ctx200, 30, coprime_to=3):
        assert L.is_proper_ideal()


# -- square roots of D mod 4a against a naive scan ---------------------------


def naive_disc_roots(D, a):
    """Reference roots: every b in [0, 2a) with b^2 = D mod 4a, by scanning."""
    return [b for b in range(2 * a) if (b * b - D) % (4 * a) == 0]


ROOT_DISCS = [-3, -4, -7, -8, -72, -108, -147, -180, -200, -1620, -4000, -10007]
SMALL_PRIMES = [p for p in range(2, 55) if all(p % q for q in range(2, p))]


@st.composite
def disc_and_a(draw):
    """D from ROOT_DISCS or any negative discriminant; a in 1..3000, or a
    prime power, or p^e * k (e >= 2) with p | D."""
    D = draw(
        st.one_of(
            st.sampled_from(ROOT_DISCS),
            st.integers(1, 5000).flatmap(lambda k: st.sampled_from([-4 * k, 1 - 4 * k])),
        )
    )
    kind = draw(st.sampled_from(["any", "prime_power", "divisor_power"]))
    if kind == "any":
        return D, draw(st.integers(1, 3000))
    primes = [p for p in SMALL_PRIMES if kind == "prime_power" or D % p == 0]
    assume(primes)
    p = draw(st.sampled_from(primes))
    e_max = max(e for e in range(1, 12) if p**e <= 3000)
    e = draw(st.integers(1 if kind == "prime_power" else 2, e_max))
    k = 1 if kind == "prime_power" else draw(st.integers(1, 3000 // p**e))
    return D, p**e * k


@settings(max_examples=400, deadline=None)
@given(disc_and_a())
def test_disc_roots_match_naive_scan(case):
    D, a = case
    assert _disc_roots(D, a) == naive_disc_roots(D, a)


def reference_integral_ideals(ctx, bound, coprime_to):
    """The enumeration of integral_ideals, with naively scanned roots."""
    out = []
    for a in range(1, bound + 1):
        if gcd(a, coprime_to) != 1:
            continue
        for b in naive_disc_roots(ctx.disc, a):
            c = (b * b - ctx.disc) // (4 * a)
            if gcd(gcd(a, b), c) != 1:
                continue
            m = 1
            while m * m * a <= bound:
                if gcd(m, coprime_to) == 1:
                    out.append((m * m * a, form_to_lattice(ctx, Form(a, b, c), scale=m).key()))
                m += 1
    return out


@pytest.mark.parametrize(
    "D, N, bound",
    [(-3, 1, 300), (-4, 2, 300), (-200, 3, 500), (-180, 8, 400), (-147, 5, 400), (-4000, 7, 600)],
)
def test_integral_ideals_sequence_matches_naive_roots(D, N, bound):
    ctx = OrderContext.from_disc(D)
    lN = ctx.conductor * N
    got = [(n, L.key()) for n, L in integral_ideals(ctx, bound, coprime_to=lN)]
    assert got == reference_integral_ideals(ctx, bound, lN)


# -- ray labels against the Fraction-based reference --------------------------


def reference_class_bases(ctx, N):
    """The base ideals of `_class_bases` (one per reduced form, prime to
    l_O*N), without the precomputed generators."""
    out = {}
    for R in enumerate_reduced(ctx.disc):
        _, lifted = make_coprime(R, ctx.conductor * N)
        out[R] = form_to_lattice(ctx, lifted)
    return out


def reference_ray_label(L, N, ref_bases):
    """Slow-path label: reduce the attached form, then search the generator
    of L*conj(base) with principal_generator, all in Fraction arithmetic."""
    R, _ = reduce_form(L.to_form())
    w = principal_generator(L.mul(ref_bases[R].conj()))
    assert w is not None
    orbit = []
    for z in _unit_elems(L.ctx):
        u = z * w
        orbit.append((int(u.x) % N, int(u.y) % N))
    return (tuple(R), min(orbit))


def reference_table(oracle):
    """Product-filled table: every product of two representatives is
    labelled by the Fraction reference."""
    ref_bases = reference_class_bases(oracle.ctx, oracle.level)
    idx = {reference_ray_label(L, oracle.level, ref_bases): i for i, L in enumerate(oracle.reps)}
    n = oracle.order
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lab = reference_ray_label(oracle.reps[i].mul(oracle.reps[j]), oracle.level, ref_bases)
            table[i][j] = table[j][i] = idx[lab]
    return table


@lru_cache(maxsize=None)
def _ideal_pool(D, N):
    ctx = OrderContext.from_disc(D)
    pool = [L for _, L in integral_ideals(ctx, 150, coprime_to=ctx.conductor * N)]
    return ctx, pool, _class_bases(ctx, N), reference_class_bases(ctx, N)


@settings(max_examples=300, deadline=None)
@given(
    D=st.sampled_from([-3, -4, -15, -20, -56, -180, -200]),
    N=st.integers(1, 12),
    picks=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
    lam=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    kind=st.sampled_from(["pool", "product", "scaled", "ray_scaled"]),
)
def test_ray_label_matches_reference_and_same_ray_class(D, N, picks, lam, kind):
    ctx, pool, bases, ref_bases = _ideal_pool(D, N)
    a, b, c = (pool[k % len(pool)] for k in picks)
    if kind == "product":
        b = b.mul(c)
    elif kind in ("scaled", "ray_scaled"):
        # a principal multiple; lambda = 1 mod N*O keeps the ray class
        x, y = lam if kind == "scaled" else (1 + N * lam[0], N * lam[1])
        assume((x, y) != (0, 0) and gcd(ctx.elem_norm(x, y), ctx.conductor * N) == 1)
        b = a.scale(elem(ctx, x, y))
    for L in (a, b, a.mul(c)):
        assert ray_label(L, N, bases) == reference_ray_label(L, N, ref_bases)
    assert (ray_label(a, N, bases) == ray_label(b, N, bases)) == same_ray_class(a, b, N)
    if kind == "ray_scaled":
        assert ray_label(a, N, bases) == ray_label(b, N, bases)


@pytest.mark.parametrize(
    "D, N",
    [(D, N) for D in BATTERY_DISCS for N in BATTERY_LEVELS] + [(-200, 5), (-160, 8)],
)
def test_oracle_table_law_matches_product_labels(D, N):
    oracle = oracle_class_group(OrderContext.from_disc(D), N)
    assert oracle.table == reference_table(oracle)


def test_ray_label_rejects_fractional_ideal(ctx200):
    L = fractional_omega_lattice(ctx200, Form(2, 0, 25))
    with pytest.raises(DomainError):
        ray_label(L, 3, _class_bases(ctx200, 3))
