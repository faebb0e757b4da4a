import ast
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from classfield import orderideals
from classfield.lfunctions import zeta_ideal_partial_all
from classfield.numerics import BigComplex, DomainError, InvariantViolation, ResourceError
from classfield.orderideals import (
    Ideal,
    _class_bases,
    _disc_roots,
    _elem_mul,
    _factor_table,
    _label_product,
    _unit_orbit_min,
    form_ideal_dictionary,
    form_to_lattice,
    ideal_mul,
    integral_ideals,
    labelled_ideals,
    omega_ideal,
    oracle_class_group,
    ray_label,
)
from classfield.quadforms import (
    Form,
    OrderContext,
    class_enumerate,
    dirichlet_compose,
    enumerate_reduced,
    make_coprime,
    reduce_form,
)
from classfield.refdata import BATTERY_DISCS, BATTERY_LEVELS
from classfield.verify import check_oracle_match
from ideal_reference import (
    QuadElem,
    QuadLattice,
    _integral_ray_model,
    _unit_elems,
    fractional_omega_lattice,
    principal_generator,
    same_ray_class,
    scaled,
    to_ideal,
    to_lattice,
)

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


def ideal_norm(L):
    """|O / L| from the basis-change determinant; domain error off O-modules."""
    if not L.is_o_module():
        raise DomainError("lattice is not an O-module")
    return L.norm()


def test_norm_examples(ctx200):
    # a[omega_Q, 1] for Q = 2x^2 + 25y^2 has norm a = 2
    assert ideal_norm(to_lattice(ctx200, form_to_lattice(ctx200, Form(2, 0, 25)))) == 2
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
        assert O.mul(to_lattice(ctx200, L)) == to_lattice(ctx200, L)
        assert ideal_mul(ctx200, Ideal(1, 0, 1), L) == ideal_mul(ctx200, L, Ideal(1, 0, 1)) == L


def test_ideal_times_conjugate_is_norm(ctx200):
    rng = random.Random(RNG_SEED)
    pool = list(integral_ideals(ctx200, 60, coprime_to=1))
    for _ in range(20):
        n, L = rng.choice(pool)
        L = to_lattice(ctx200, L)
        assert L.mul(L.conj()) == QuadLattice.order(ctx200).scale(n)


def test_norm_multiplicative(ctx200):
    rng = random.Random(RNG_SEED)
    pool = list(integral_ideals(ctx200, 60, coprime_to=5))
    for _ in range(30):
        (n1, a), (n2, b) = rng.choice(pool), rng.choice(pool)
        assert ideal_norm(to_lattice(ctx200, a).mul(to_lattice(ctx200, b))) == n1 * n2
        P = ideal_mul(ctx200, a, b)
        assert P.g * P.m == n1 * n2


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
    assert principal_generator(to_lattice(ctx200, form_to_lattice(ctx200, Form(2, 0, 25)))) is None


def test_same_ray_class_examples(ctx200):
    O = QuadLattice.order(ctx200)
    tau_ideal = O.scale(elem(ctx200, 0, 1))
    # [O] and [tau O] are distinct kernel classes at level 3
    assert not same_ray_class(O, tau_ideal, 3)
    # lambda = 1 mod 3O multiplies within a class
    lam = elem(ctx200, 4, 3)
    L = to_lattice(ctx200, form_to_lattice(ctx200, Form(2, 0, 25)))
    assert same_ray_class(L, L.scale(lam), 3)
    # Q3-tilde and Q4-tilde ideals are distinct classes
    a = fractional_omega_lattice(ctx200, Form(17, 2, 3))
    b = fractional_omega_lattice(ctx200, Form(17, -2, 3))
    assert not same_ray_class(a, b, 3)


def test_same_ray_class_is_equivalence(ctx200):
    rng = random.Random(RNG_SEED)
    pool = [to_lattice(ctx200, L) for n, L in integral_ideals(ctx200, 40, coprime_to=15)]
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
        oracle.index_of(omega_ideal(ctx200, Form(3, 2, 17), 3))
    # an ideal prime to the level but not to the conductor 5 has a class
    assert oracle.index_of(omega_ideal(ctx200, Form(50, 0, 1), 3)) in range(12)


@pytest.mark.parametrize("D, N", [(-200, 3), (-180, 8), (-3, 7), (-4, 5)])
def test_oracle_index_of_finds_each_rep_without_the_fill_memos(D, N):
    # the returned oracle keeps its bases without the stream's and the fill's
    # memos; index_of needs only the lattices, generators and units, and
    # still gives every representative its own index
    oracle = oracle_class_group(OrderContext.from_disc(D), N)
    assert not (oracle.bases.base_products or oracle.bases.label_products or oracle.bases.labels)
    assert [oracle.index_of(L) for L in oracle.reps] == list(range(oracle.order))


def test_oracle_table_rejects_unseen_product_label(ctx200, monkeypatch):
    # stop the bucketing one class short: some product lands on the missing label
    monkeypatch.setattr(orderideals, "_expected_order", lambda ctx, N: 11)
    with pytest.raises(InvariantViolation, match="no known label"):
        oracle_class_group(ctx200, 3)


def test_oracle_resource_error_names_largest_bound_searched(monkeypatch):
    # (-3, 1) has one class, so a target of 2 is never reached: nine tries
    # from the start 10, the last one searching up to 10 * 2^8
    monkeypatch.setattr(orderideals, "_expected_order", lambda ctx, N: 2)
    with pytest.raises(ResourceError, match=r"found 1 of 2 ray classes up to norm bound 2560$"):
        oracle_class_group(OrderContext.from_disc(-3), 1)


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
        assert to_lattice(ctx200, L).is_proper_ideal()


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


@pytest.mark.parametrize("bound", [0, -5])
def test_norm_bound_below_one_is_a_domain_error(ctx200, bound):
    # one check where the ideal stream starts, with a one-line message, for
    # the stream, its labelled form and the zeta route on it
    message = f"^the norm bound {bound} is below 1$"
    with pytest.raises(DomainError, match=message):
        integral_ideals(ctx200, bound)
    with pytest.raises(DomainError, match=message):
        next(labelled_ideals(ctx200, bound, 3, _class_bases(ctx200, 3), 3))
    with pytest.raises(DomainError, match=message):
        zeta_ideal_partial_all(ctx200, 3, BigComplex(2, 0, 64), bound)


# least prime factors of every a the strategy draws
SPF_3000 = _factor_table(3000)


def test_factor_table_matches_trial_division():
    for bound in (0, 1, 2, 3, 4, 48, 49, 50, 3000):
        spf = _factor_table(bound)
        assert len(spf) == bound + 1 and spf.itemsize == 4
        assert list(spf[:2]) == [0, 0][: bound + 1]
        for n in range(2, bound + 1):
            least = next(p for p in range(2, n + 1) if n % p == 0)
            assert spf[n] == (least if least < n else 0)


@settings(max_examples=400, deadline=None)
@given(disc_and_a())
def test_disc_roots_match_naive_scan(case):
    D, a = case
    assert _disc_roots(D, a, SPF_3000, {}) == naive_disc_roots(D, a)


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
                    out.append((m * m * a, form_to_lattice(ctx, Form(a, b, c), scale=m)))
                m += 1
    return out


@pytest.mark.parametrize(
    "D, N, bound",
    [(-3, 1, 300), (-4, 2, 300), (-200, 3, 500), (-180, 8, 400), (-147, 5, 400), (-4000, 7, 600)],
)
def test_integral_ideals_sequence_matches_naive_roots(D, N, bound):
    ctx = OrderContext.from_disc(D)
    lN = ctx.conductor * N
    got = list(integral_ideals(ctx, bound, coprime_to=lN))
    assert got == reference_integral_ideals(ctx, bound, lN)


def test_multiples_follow_their_primitive_ideal():
    # labelled_ideals labels m*L from the label of the last primitive ideal
    for D, coprime_to in [(-3, 1), (-4, 2), (-12, 1), (-27, 3), (-71, 10), (-180, 6), (-200, 3), (-200, 1)]:
        ctx = OrderContext.from_disc(D)
        last = None
        for n, L in integral_ideals(ctx, 600, coprime_to):
            if L.g == 1:
                last = L
            else:
                assert L == Ideal(L.g, L.g * last.t, L.g * last.m) and n == L.g**2 * last.m


STREAM_DISCS = [-3, -4, -12, -27, -71, -180, -200]


@pytest.mark.parametrize("D", STREAM_DISCS)
def test_labelled_ideals_match_ray_label_on_every_ideal(D):
    # coprime_to = N keeps ideals not prime to the conductor (the zeta route,
    # on fresh bases), l_O * N drops them (the oracle, on bases whose memos
    # an earlier try at a smaller bound filled)
    ctx = OrderContext.from_disc(D)
    for N in range(1, 13):
        lN = ctx.conductor * N
        tried = _class_bases(ctx, N)
        list(labelled_ideals(ctx, 300, N, tried, lN))  # the earlier try
        for coprime_to, bases in ((N, _class_bases(ctx, N)), (lN, tried)):
            got = list(labelled_ideals(ctx, 1000, N, bases, coprime_to))
            want = [(n, L, ray_label(ctx, L, N, bases)) for n, L in integral_ideals(ctx, 1000, coprime_to)]
            assert got == want and any(L.g > 1 for _, L, _ in got)


# -- ray labels against the Fraction-based reference --------------------------


def reference_class_bases(ctx, N):
    """The base ideals of `_class_bases` (one per reduced form, prime to
    l_O*N), without the precomputed generators."""
    out = {}
    for R in enumerate_reduced(ctx.disc):
        _, lifted = make_coprime(R, ctx.conductor * N)
        out[R] = to_lattice(ctx, form_to_lattice(ctx, lifted))
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
    reps = [to_lattice(oracle.ctx, L) for L in oracle.reps]
    idx = {reference_ray_label(L, oracle.level, ref_bases): i for i, L in enumerate(reps)}
    n = oracle.order
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lab = reference_ray_label(reps[i].mul(reps[j]), oracle.level, ref_bases)
            table[i][j] = table[j][i] = idx[lab]
    return table


def pairwise_label_law_table(oracle):
    """The oracle's table filled cell by cell under the label group law: one
    label-law product per unordered pair of classes, with the base product
    B1*B2 labelled once per pair of reduced forms.  The reference for the
    Cayley fill of oracle_class_group."""
    ctx, N, bases, labels = oracle.ctx, oracle.level, oracle.bases, oracle.labels
    idx = {lab: i for i, lab in enumerate(labels)}
    base_products = {}
    table = [[0] * len(labels) for _ in labels]
    for i, (R1, w1) in enumerate(labels):
        for j in range(i, len(labels)):
            R2, w2 = labels[j]
            if (R1, R2) not in base_products:
                B1, B2 = bases.lattice[R1], bases.lattice[R2]
                R3, c12 = ray_label(ctx, ideal_mul(ctx, B1, B2), N, bases)
                n12_inv = pow(B1.g * B1.m * B2.g * B2.m, -1, N)
                base_products[R1, R2] = (R3, (c12[0] * n12_inv, c12[1] * n12_inv))
            R3, c = base_products[R1, R2]
            w3 = _unit_orbit_min(bases.units, _elem_mul(ctx, _elem_mul(ctx, w1, w2), c), N)
            table[i][j] = table[j][i] = idx[R3, w3]
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
        b = ideal_mul(ctx, b, c)
    elif kind in ("scaled", "ray_scaled"):
        # a principal multiple; lambda = 1 mod N*O keeps the ray class
        x, y = lam if kind == "scaled" else (1 + N * lam[0], N * lam[1])
        assume((x, y) != (0, 0) and gcd(ctx.elem_norm(x, y), ctx.conductor * N) == 1)
        b = scaled(ctx, a, elem(ctx, x, y))
    for L in (a, b, ideal_mul(ctx, a, c)):
        assert ray_label(ctx, L, N, bases) == reference_ray_label(to_lattice(ctx, L), N, ref_bases)
    same = same_ray_class(to_lattice(ctx, a), to_lattice(ctx, b), N)
    assert (ray_label(ctx, a, N, bases) == ray_label(ctx, b, N, bases)) == same
    if kind == "ray_scaled":
        assert ray_label(ctx, a, N, bases) == ray_label(ctx, b, N, bases)


@pytest.mark.parametrize(
    "D, N",
    [(D, N) for D in BATTERY_DISCS for N in BATTERY_LEVELS] + [(-200, 5), (-160, 8)],
)
def test_oracle_table_law_matches_product_labels(D, N):
    oracle = oracle_class_group(OrderContext.from_disc(D), N)
    assert oracle.table == reference_table(oracle)


@settings(max_examples=40, deadline=None)
@given(D=st.sampled_from([-3, -4, -12, -27, -180, -200]), N=st.integers(1, 12))
def test_oracle_cayley_table_matches_pairwise_label_law(D, N):
    # extra units (-3, -4) and non-maximal orders (-12, -27, -180, -200); the
    # identity is the class of O, whose index follows the sorted labels
    oracle = oracle_class_group(OrderContext.from_disc(D), N)
    assert oracle.table == pairwise_label_law_table(oracle)
    assert oracle.table[oracle.index_of(Ideal(1, 0, 1))] == list(range(oracle.order))


def flagging_stream(flag):
    """A labelled_ideals that sets flag[0] while the stream computes an item,
    so that counters can tell the stream's calls from the fill's."""

    def stream(*args):
        inner = labelled_ideals(*args)
        while True:
            flag[0] = True
            item = next(inner, None)
            flag[0] = False
            if item is None:
                return
            yield item

    return stream


@pytest.mark.parametrize("D, N", [(-95, 5), (-200, 3)])
def test_oracle_label_product_count(D, N, monkeypatch):
    # one Cayley row of n label-law products per generator, at most log2(n)
    # generators; the products the stream takes for ideals of composite
    # norm are counted apart
    calls, in_stream = [], [False]

    def counting(*args):
        calls.append(in_stream[0])
        return _label_product(*args)

    monkeypatch.setattr(orderideals, "_label_product", counting)
    monkeypatch.setattr(orderideals, "labelled_ideals", flagging_stream(in_stream))
    n = oracle_class_group(OrderContext.from_disc(D), N).order
    fill = calls.count(False)
    assert fill and fill <= n * (n.bit_length() - 1)
    assert calls.count(True)


def test_oracle_rejects_label_law_without_identity(monkeypatch):
    # a law under which the class of O is no identity stops the fill instead
    # of picking the same generator forever
    monkeypatch.setattr(orderideals, "_label_product", lambda ctx, N, bases, lab1, lab2: lab1)
    with pytest.raises(InvariantViolation, match="the class of O times class"):
        oracle_class_group(OrderContext.from_disc(-200), 3)


def test_no_label_state_outlives_a_call(monkeypatch):
    # every call labels on bases of its own: an oracle that ran under a
    # false label law leaves nothing behind for a later stream, and a zeta
    # route before an oracle does not change it; no cache is reset here
    ctx = OrderContext.from_disc(-200)
    alone = oracle_class_group(ctx, 3)
    monkeypatch.setattr(orderideals, "_label_product", lambda ctx, N, bases, lab1, lab2: lab1)
    with pytest.raises(InvariantViolation):
        oracle_class_group(ctx, 3)
    monkeypatch.undo()
    bases = _class_bases(ctx, 3)
    stream = list(labelled_ideals(ctx, 1000, 3, bases, 3))
    assert any(L.g == 1 and not is_prime_power_or_one(L.m) for _, L, _ in stream)
    assert all(lab == ray_label(ctx, L, 3, bases) for _, L, lab in stream)
    zeta_ideal_partial_all(ctx, 3, BigComplex(2, 0, 64), 2000)
    assert oracle_class_group(ctx, 3) == alone


def is_prime_power_or_one(m):
    """Whether m is 1 or a prime power, by trial division."""
    p = next((p for p in range(2, isqrt(m) + 1) if m % p == 0), m)
    while m > 1 and m % p == 0:
        m //= p
    return m == 1


def counting_ray_label(monkeypatch, stream_calls, product_calls, *modules):
    """Patch ray_label in `modules` to record each ideal it labels, in
    product_calls when _label_product asked for it (a base product), else
    in stream_calls."""
    in_product = [False]

    def counting_product(*args):
        in_product[0] = True
        try:
            return _label_product(*args)
        finally:
            in_product[0] = False

    def counting_label(ctx, L, N, bases):
        (product_calls if in_product[0] else stream_calls).append(L)
        return ray_label(ctx, L, N, bases)

    monkeypatch.setattr(orderideals, "_label_product", counting_product)
    for module in (orderideals, *modules):
        monkeypatch.setattr(module, "ray_label", counting_label)


def test_oracle_labels_each_primitive_ideal_once_across_tries(monkeypatch):
    # (-4000, 7) reaches its 360 classes on the third try.  ray_label sees
    # only O and the primitive ideals of prime-power norm, each once over
    # all tries, and at most one base product per pair of reduced forms,
    # shared by the tries and the fill.  Every label the stream gave, most
    # of them label-law products or from the memo, is the one ray_label
    # gives afresh.
    ctx = OrderContext.from_disc(-4000)
    prime_power, stream_calls, product_calls, seen = set(), [], [], []

    def recording_ideals(*args):
        for norm, L in integral_ideals(*args):
            if L.g == 1 and is_prime_power_or_one(L.m):
                prime_power.add(L)
            yield norm, L

    def recording_stream(*args):
        for item in labelled_ideals(*args):
            seen.append(item)
            yield item

    counting_ray_label(monkeypatch, stream_calls, product_calls)
    monkeypatch.setattr(orderideals, "integral_ideals", recording_ideals)
    monkeypatch.setattr(orderideals, "labelled_ideals", recording_stream)
    oracle = oracle_class_group(ctx, 7)
    h = len(enumerate_reduced(ctx.disc))
    start = 2 * (isqrt(-ctx.disc // 3 - 1) + 1) * 7 * 7
    assert oracle.order == 360 and oracle.norm_bound == 4 * start
    assert Ideal(1, 0, 1) in prime_power
    assert sorted(stream_calls) == sorted(prime_power)
    assert len(product_calls) <= h * (h + 1) // 2
    monkeypatch.undo()
    assert len(seen) > 2 * len(prime_power)
    assert all(lab == ray_label(ctx, L, 7, oracle.bases) for _, L, lab in seen)


LAW_DISCS = [-12, -27, -200, -4000, -3, -4]


@settings(max_examples=60, deadline=None)
@given(D=st.sampled_from(LAW_DISCS), N=st.integers(1, 12), keep_conductor=st.booleans())
def test_labelled_stream_label_law_matches_ray_label(D, N, keep_conductor):
    # fast path against slow: the stream labels only O and the primitive
    # ideals of prime-power norm, every other primitive ideal by the label
    # law over its prime-power parts.  Orders of conductor 2, 3, 5 and 10
    # and the fields with 6 and 4 units; coprime_to = N keeps the ideals not
    # prime to the conductor, l_O * N drops them.
    ctx = OrderContext.from_disc(D)
    bases = _class_bases(ctx, N)
    coprime_to = N if keep_conductor else ctx.conductor * N
    stream = list(labelled_ideals(ctx, 600, N, bases, coprime_to))
    assert any(L.g == 1 and not is_prime_power_or_one(L.m) for _, L, _ in stream)
    for _, L, lab in stream:
        assert lab == ray_label(ctx, L, N, bases), L


@pytest.mark.parametrize("N", [2, 3, 5, 7, 12])
@pytest.mark.parametrize("D", [-3, -4, -12, -27])
def test_oracle_matches_form_table_in_fields_with_extra_units(D, N):
    # D = -3, -4 have 6 and 4 units, so unit orbits of generator residues
    # have up to 6 members; -12 and -27 are the orders of conductor 2 and 3
    # in the same field
    ctx = OrderContext.from_disc(D)
    name, ok, detail = check_oracle_match(ctx, class_enumerate(ctx, N))
    assert ok, f"{name}: {detail}"


def test_ray_label_rejects_fractional_ideal(ctx200):
    # an Ideal is integral by construction: [omega_Q, 1] itself has no Ideal,
    # and ray_label refuses a triple that is not an O-module
    L = fractional_omega_lattice(ctx200, Form(2, 0, 25))
    with pytest.raises(DomainError):
        to_ideal(L)
    with pytest.raises(DomainError):
        ray_label(ctx200, Ideal(2, 1, 4), 3, _class_bases(ctx200, 3))


# -- the integer ideal algebra against the Fraction reference ------------------


MUL_DISCS = [-3, -4, -12, -27, -15, -20, -56, -71, -180, -200]


@lru_cache(maxsize=None)
def _mul_pool(D):
    ctx = OrderContext.from_disc(D)
    return ctx, [L for _, L in integral_ideals(ctx, 150)]


@settings(max_examples=300, deadline=None)
@given(
    D=st.sampled_from(MUL_DISCS),
    picks=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
)
def test_ideal_mul_matches_reference_product(D, picks):
    # pool ideals include imprimitive ones and, at D = -12, -27, -180, -200,
    # ideals not prime to the conductor; the triple product leaves the pool
    ctx, pool = _mul_pool(D)
    A, B, C = (pool[k % len(pool)] for k in picks)
    refA, refB, refC = (to_lattice(ctx, L) for L in (A, B, C))
    AB = ideal_mul(ctx, A, B)
    assert AB == to_ideal(refA.mul(refB))
    assert ideal_mul(ctx, AB, C) == to_ideal(refA.mul(refB).mul(refC))


@lru_cache(maxsize=None)
def _omega_forms(D, N):
    ctx = OrderContext.from_disc(D)
    return ctx, class_enumerate(ctx, N).reps + enumerate_reduced(D)


@settings(max_examples=200, deadline=None)
@given(D=st.sampled_from(MUL_DISCS), N=st.integers(1, 12), pick=st.integers(0, 10**6))
def test_omega_ideal_matches_reference_ray_model(D, N, pick):
    # class_enumerate reps are prime to N; reduced forms may not be, and then
    # neither side has an integral model in the ray class
    ctx, forms = _omega_forms(D, N)
    Q = forms[pick % len(forms)]
    L = fractional_omega_lattice(ctx, Q)
    if gcd(Q.a, N) != 1:
        with pytest.raises(DomainError):
            omega_ideal(ctx, Q, N)
        with pytest.raises(DomainError):
            _integral_ray_model(L, N)
        return
    assert omega_ideal(ctx, Q, N) == to_ideal(_integral_ray_model(L, N))


# the names orderideals may take from the form side: forms, reduction and the
# order's data, but no composition and no class table fill
ORACLE_QUADFORMS_IMPORTS = {
    "Form",
    "OrderContext",
    "_expected_order",
    "_unit_coords",
    "enumerate_reduced",
    "make_coprime",
    "reduce_form",
    "xgcd",
}


def test_oracle_imports_no_form_side_composition():
    forbidden = {"dirichlet_compose", "compose_level", "class_enumerate", "group_structure_from_table"}
    assert not ORACLE_QUADFORMS_IMPORTS & forbidden
    tree = ast.parse(Path(orderideals.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("quadforms" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            # the module itself, bound whole, would bypass the allow-list
            assert "quadforms" not in names and "*" not in names
            if (node.module or "").endswith("quadforms"):
                imported |= names
    assert imported and imported <= ORACLE_QUADFORMS_IMPORTS
