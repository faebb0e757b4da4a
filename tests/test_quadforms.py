import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from classfield import refdata
from classfield.numerics import DomainError
from classfield.quadforms import (
    CompositionError,
    Form,
    OrderContext,
    SL2,
    _expected_order,
    class_enumerate,
    class_label,
    compose_level,
    dirichlet_compose,
    enumerate_reduced,
    gamma1_equivalent,
    group_structure_from_table,
    label_form,
    make_coprime,
    reduce_form,
    sl2_lift_bottom_row,
)

RNG_SEED = 1729


def small_sl2(bound=3):
    out = []
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            for r in range(-bound, bound + 1):
                for s in range(-bound, bound + 1):
                    if p * s - q * r == 1:
                        out.append(SL2(p, q, r, s))
    return out


# -- reduction ---------------------------------------------------------------


def test_reduce_known_pair():
    R, g = reduce_form(Form(17, 2, 3))
    assert R == Form(3, -2, 17)
    assert Form(17, 2, 3).apply(g) == R


def test_reduce_already_reduced():
    R, g = reduce_form(Form(1, 0, 50))
    assert R == Form(1, 0, 50) and g == SL2.I


def test_reduce_brute_force_oracle():
    # brute-force search over small gamma confirms the reduced target
    Q = Form(50, 0, 1)
    hits = {Q.apply(g) for g in small_sl2(2)}
    assert Form(1, 0, 50) in hits
    R, _ = reduce_form(Q)
    assert R == Form(1, 0, 50)


def test_reduce_idempotent_and_unique_small_discs():
    rng = random.Random(RNG_SEED)
    mats = small_sl2(2)
    for D in range(-3, -2001, -1):
        if D % 4 not in (0, 1):
            continue
        reduced = enumerate_reduced(D)
        assert len(set(reduced)) == len(reduced)
        for R in reduced:
            assert R.is_reduced()
            assert reduce_form(R)[0] == R
            # translated forms come back to the same reduced form
            g = rng.choice(mats)
            assert reduce_form(R.apply(g))[0] == R


def test_enumerate_reduced_examples():
    assert [tuple(Q) for Q in enumerate_reduced(-200)] == [
        (1, 0, 50),
        (2, 0, 25),
        (3, -2, 17),
        (3, 2, 17),
        (6, -4, 9),
        (6, 4, 9),
    ]
    assert [tuple(Q) for Q in enumerate_reduced(-4)] == [(1, 0, 1)]
    assert [tuple(Q) for Q in enumerate_reduced(-15)] == [(1, 1, 4), (2, 1, 2)]
    with pytest.raises(DomainError):
        enumerate_reduced(-6)
    with pytest.raises(DomainError):
        enumerate_reduced(5)


# -- composition -------------------------------------------------------------


def test_dirichlet_identity():
    assert dirichlet_compose(Form(1, 0, 50), Form(2, 0, 25)) == Form(2, 0, 25)


def test_dirichlet_gcd_precondition():
    with pytest.raises(CompositionError):
        dirichlet_compose(Form(3, -2, 17), Form(3, 2, 17))


def test_dirichlet_crt_oracle():
    # unique B mod 2aa'' with B=b (2a), B=b'' (2a''), B^2=D (4aa'')
    a, b = 2, 0
    a2, b2 = 3, -2
    D = -200
    sols = [
        B
        for B in range(2 * a * a2)
        if (B - b) % (2 * a) == 0 and (B - b2) % (2 * a2) == 0 and (B * B - D) % (4 * a * a2) == 0
    ]
    assert sols == [4]
    got = dirichlet_compose(Form(2, 0, 25), Form(3, -2, 17))
    assert got == Form(6, 4, 9)
    # the shifted-B representative differs by the translation T in Gamma_1(3)
    assert got.apply(SL2(1, 1, 0, 1)) == Form(6, 16, 19)


# -- make_coprime ------------------------------------------------------------


def test_make_coprime_known_witnesses():
    g, Q = make_coprime(Form(6, -4, 9), 3)
    assert Q == Form(11, -8, 6)
    assert g == SL2(1, -1, 1, 0)
    # a = 3 shares 3 with M: column (p, r) = (part of 3 prime to 17, part of 3 prime to 3)
    g, Q = make_coprime(Form(3, -2, 17), 3)
    assert (g.p, g.r) == (3, 1)
    assert Q == Form(38, -16, 3)
    assert g == SL2(3, -1, 1, 0)


def test_make_coprime_identity_when_coprime():
    g, Q = make_coprime(Form(1, 0, 50), 3)
    assert g == SL2.I and Q == Form(1, 0, 50)


def test_make_coprime_randomized():
    rng = random.Random(RNG_SEED)
    for _ in range(50):
        D = -4 * rng.randint(2, 60)
        Q = rng.choice(enumerate_reduced(D))
        M = rng.randint(2, 30)
        g, Q2 = make_coprime(Q, M)
        assert Q.apply(g) == Q2 and gcd(Q2.a, M) == 1


PRIMORIALS = [2, 6, 30, 210, 2310, 30030, 510510]


@settings(max_examples=300, deadline=None)
@given(
    D=st.sampled_from([-3, -4, -15, -200, -4000, -10007]),
    which=st.integers(0, 10**6),
    word=st.lists(st.integers(0, 3), max_size=12),
    primorial=st.sampled_from(PRIMORIALS),
    multiple=st.integers(0, 40),
)
def test_make_coprime_property(D, which, word, primorial, multiple):
    # M a primorial, or a multiple k*a of the leading coefficient (k = 0 means a primorial)
    reduced = enumerate_reduced(D)
    Q = reduced[which % len(reduced)].apply(_word([T1, T1_INV, S, S.inv()], word))
    M = multiple * Q.a if multiple else primorial
    g, Q2 = make_coprime(Q, M)
    assert Q.apply(g) == Q2
    assert gcd(Q2.a, M) == 1


# -- gamma1 equivalence ------------------------------------------------------


def test_gamma1_translation_always_equivalent():
    Q = Form(11, 8, 6)
    T = SL2(1, 1, 0, 1)
    for N in (1, 2, 3, 5):
        assert gamma1_equivalent(Q, Q.apply(T), N) is not None


def test_gamma1_kernel_classes_distinct():
    # the two principal-coset classes of level 3 stay distinct
    assert gamma1_equivalent(Form(1, 0, 50), Form(50, 0, 1), 3) is None


def test_gamma1_self():
    g = gamma1_equivalent(Form(2, 0, 25), Form(2, 0, 25), 7)
    assert g is not None and g.in_gamma1(7)


def test_gamma1_witness_is_checked():
    Q = Form(11, 8, 6)
    g = SL2(1, 0, 3, 1)  # in Gamma_1(3)
    w = gamma1_equivalent(Q, Q.apply(g), 3)
    assert w is not None and Q.apply(w) == Q.apply(g)


def test_gamma1_disc_mismatch():
    with pytest.raises(DomainError):
        gamma1_equivalent(Form(1, 0, 50), Form(1, 0, 49), 3)


# -- class labels ------------------------------------------------------------

T1, T1_INV = SL2(1, 1, 0, 1), SL2(1, -1, 0, 1)
S = SL2(0, -1, 1, 0)


def _word(gens, picks):
    g = SL2.I
    for k in picks:
        g = g * gens[k]
    return g


@settings(max_examples=400, deadline=None)
@given(
    D=st.sampled_from([-3, -4, -15, -20, -56, -200]),
    N=st.integers(1, 12),
    which=st.tuples(st.integers(0, 63), st.integers(0, 63)),
    same_base=st.booleans(),
    w1=st.lists(st.integers(0, 3), max_size=8),
    w2=st.lists(st.integers(0, 4), max_size=8),
)
def test_class_label_matches_gamma1_witness(D, N, which, same_base, w1, w2):
    # random reduced forms moved by random SL2 words: equal labels exactly
    # when the witness search finds gamma in Gamma_1(N) between them
    reduced = enumerate_reduced(D)
    sl2_gens = [T1, T1_INV, S, S.inv()]
    _, Q = make_coprime(reduced[which[0] % len(reduced)].apply(_word(sl2_gens, w1)), N)
    # Gamma_1(N) generators, plus S so that some words leave the class
    level_gens = [T1, T1_INV, SL2(1, 0, N, 1), SL2(1, 0, -N, 1), S]
    base = Q if same_base else reduced[which[1] % len(reduced)]
    _, Q2 = make_coprime(base.apply(_word(level_gens, w2)), N)
    same_label = class_label(Q, N) == class_label(Q2, N)
    assert same_label == (gamma1_equivalent(Q, Q2, N) is not None)
    rep = label_form(class_label(Q, N), N)
    assert class_label(rep, N) == class_label(Q, N)
    assert gamma1_equivalent(Q, rep, N) is not None


def test_class_label_rejects_level_sharing_leading_coefficient():
    with pytest.raises(DomainError):
        class_label(Form(3, 2, 17), 3)


# -- compose_level -----------------------------------------------------------


@pytest.fixture(scope="module")
def qt():
    # level-3 class representatives for D = -200
    forms = [
        (1, 0, 50), (2, 0, 25), (17, 2, 3), (17, -2, 3), (11, -8, 6), (11, 8, 6),
        (50, 0, 1), (25, 0, 2), (22, -36, 17), (22, 36, 17), (25, 30, 11), (25, -30, 11),
    ]
    return [Form(*t) for t in forms]


def test_compose_level_known_cells(ctx200, qt):
    got = compose_level(qt[1], qt[2], ctx200, 3)
    assert gamma1_equivalent(got, qt[11], 3) is not None  # g2 g3 = g12
    assert gamma1_equivalent(got, Form(25, -30, 11), 3) is not None


def test_compose_level_identity_row(ctx200, qt):
    for Q in qt:
        got = compose_level(qt[0], Q, ctx200, 3)
        assert gamma1_equivalent(got, Q, 3) is not None


def test_compose_level_involution(ctx200, qt):
    got = compose_level(qt[6], qt[6], ctx200, 3)
    assert gamma1_equivalent(got, qt[0], 3) is not None  # g7 g7 = g1


def test_compose_level_lift_independence(ctx200, qt, gamma1_word):
    # moving the inputs inside their Gamma_1(3) classes changes the coprime
    # column, the Dirichlet B and the sigma row, but not the product class
    rng = random.Random(RNG_SEED)
    for _ in range(25):
        Q, Q2 = rng.choice(qt), rng.choice(qt)
        base = compose_level(Q, Q2, ctx200, 3)
        for _ in range(3):
            alt = compose_level(
                Q.apply(gamma1_word(rng, 3)),
                Q2.apply(gamma1_word(rng, 3)),
                ctx200,
                3,
            )
            assert gamma1_equivalent(base, alt, 3) is not None


# -- class_enumerate ---------------------------------------------------------


def test_class_counts(ctx200):
    assert class_enumerate(ctx200, 3).order == 12
    assert class_enumerate(ctx200, 1).order == 6
    assert class_enumerate(OrderContext.from_disc(-4), 1).order == 1


def reference_enumerate(ctx, N):
    """Slow-path class group: every new form is compared with each stored
    representative by the gamma1_equivalent witness search."""
    reps = []

    def add(Q):
        for i, rep in enumerate(reps):
            if gamma1_equivalent(Q, rep, N) is not None:
                return i
        reps.append(Q)
        return len(reps) - 1

    Q0 = ctx.principal_form()
    add(Q0)
    for R in enumerate_reduced(ctx.disc):
        add(make_coprime(R, N)[1])
    for u in range(N):
        for v in range(N):
            if gcd(ctx.elem_norm(v, u), N) == 1:
                add(Q0.apply(sl2_lift_bottom_row(u, v, N).inv()))
    frontier = list(range(len(reps)))
    while frontier:
        new_frontier = []
        for i in frontier:
            for j in range(len(reps)):
                before = len(reps)
                add(compose_level(reps[i], reps[j], ctx, N))
                if len(reps) > before:
                    new_frontier.append(before)
        frontier = new_frontier
    table = [[add(compose_level(P, P2, ctx, N)) for P2 in reps] for P in reps]
    assert len(reps) == _expected_order(ctx, N)
    factors, characters = group_structure_from_table(table)
    return reps, table, factors, characters


@pytest.mark.parametrize("D", refdata.BATTERY_DISCS)
def test_class_enumerate_matches_reference(D):
    # the two numberings differ; match them by the witness search, not by labels
    ctx = OrderContext.from_disc(D)
    for N in refdata.BATTERY_LEVELS:
        G = class_enumerate(ctx, N)
        reps, table, factors, characters = reference_enumerate(ctx, N)
        phi = [
            [j for j, rep in enumerate(G.reps) if gamma1_equivalent(Q, rep, N) is not None]
            for Q in reps
        ]
        assert all(len(hits) == 1 for hits in phi)
        phi = [hits[0] for hits in phi]
        assert sorted(phi) == list(range(G.order))
        n = len(reps)
        assert all(G.table[phi[i]][phi[j]] == phi[table[i][j]] for i in range(n) for j in range(n))
        assert G.invariant_factors == factors
        assert len(G.characters) == len(characters)
        assert {tuple(chi[phi[i]] for i in range(n)) for chi in G.characters} == set(map(tuple, characters))
        assert all(G.index_of(Q) == i for i, Q in enumerate(G.reps))


def test_index_of_rejects_wrong_discriminant(G200):
    with pytest.raises(DomainError):
        G200.index_of(Form(1, 0, 14))


def test_index_of_rejects_level_sharing_leading_coefficient(G200):
    with pytest.raises(DomainError):
        G200.index_of(Form(3, 2, 17))


def test_index_of_gamma1_moves(G200):
    rng = random.Random(RNG_SEED)
    moves = [T1, T1_INV, SL2(1, 0, 3, 1), SL2(1, 0, -3, 1)]
    for i, Q in enumerate(G200.reps):
        for _ in range(5):
            P = Q.apply(_word(moves, [rng.randrange(4) for _ in range(rng.randint(1, 8))]))
            assert G200.index_of(P) == i


def test_identity_is_principal_class(ctx200, G200):
    assert G200.identity_index == 0
    assert gamma1_equivalent(G200.reps[0], ctx200.principal_form(), 3) is not None
    assert G200.table[0] == list(range(12))


def test_table_group_axioms(G200):
    n = G200.order
    t = G200.table
    for i in range(n):
        assert sorted(t[i]) == list(range(n))  # latin square row
        for j in range(n):
            assert t[i][j] == t[j][i]
    # associativity on all triples (n <= 24)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert t[t[i][j]][k] == t[i][t[j][k]]


def test_level_forgetting_homomorphism(ctx200, G200):
    # natural map C_3 -> C_1 is a surjective homomorphism; kernel size * h = |C_3|
    G1 = class_enumerate(ctx200, 1)
    down = [G1.index_of(Q) for Q in G200.reps]
    assert set(down) == set(range(G1.order))
    for i in range(G200.order):
        for j in range(G200.order):
            assert down[G200.table[i][j]] == G1.table[down[i]][down[j]]
    kernel = sum(1 for d in down if d == G1.identity_index)
    assert kernel * G1.order == G200.order


def test_small_discriminants_with_extra_units():
    # D = -3, -4 parse in the form layer (rejected only in invariants)
    assert class_enumerate(OrderContext.from_disc(-3), 2).order == 1
    assert class_enumerate(OrderContext.from_disc(-4), 2).order == 1
    # |C_5(-4)| = |(O/5O)*| / |units| = 16/4
    assert class_enumerate(OrderContext.from_disc(-4), 5).order == 4


# -- group structure ---------------------------------------------------------


def test_invariant_factors_reference(G200):
    assert G200.invariant_factors == [2, 6]


def test_invariant_factors_trivial():
    factors, chars = group_structure_from_table([[0]])
    assert factors == [] and chars == [[Fraction(0)]]


def test_invariant_factors_c15():
    G = class_enumerate(OrderContext.from_disc(-15), 1)
    assert G.invariant_factors == [2]


def test_characters_are_all_homomorphisms(G200):
    n = G200.order
    chars = G200.characters
    assert len(chars) == n
    assert len(set(tuple(c) for c in chars)) == n
    for c in chars:
        assert c[G200.identity_index] == 0
        for i in range(n):
            for j in range(n):
                assert (c[i] + c[j]) % 1 == c[G200.table[i][j]]


def test_sl2_lift_bottom_row():
    for (u, v, N) in [(0, 1, 3), (2, 2, 3), (3, 1, 4), (0, 0, 1)]:
        s = sl2_lift_bottom_row(u, v, N)
        assert (s.r - u) % N == 0 and (s.s - v) % N == 0
    with pytest.raises(DomainError):
        sl2_lift_bottom_row(0, 3, 9)


@settings(max_examples=500, deadline=None)
@given(
    N=st.integers(1, 10**6),
    u=st.integers(-(10**7), 10**7),
    v=st.integers(-(10**7), 10**7),
    u_zero=st.booleans(),
)
def test_sl2_lift_bottom_row_property(N, u, v, u_zero):
    if u_zero:
        u = u * N  # u = 0 mod N, including 0 itself
    if gcd(gcd(u, v), N) != 1:
        with pytest.raises(DomainError):
            sl2_lift_bottom_row(u, v, N)
        return
    s = sl2_lift_bottom_row(u, v, N)
    assert isinstance(s, SL2)
    assert (s.r - u) % N == 0 and (s.s - v) % N == 0


def test_conductor_and_context():
    ctx = OrderContext.from_disc(-200)
    assert (ctx.conductor, ctx.b0, ctx.c0) == (5, 0, 50)
    assert ctx.fundamental_disc == -8
    ctx = OrderContext.from_disc(-15)
    assert (ctx.conductor, ctx.b0, ctx.c0) == (1, 1, 4)
    ctx = OrderContext.from_disc(-60)
    assert ctx.conductor == 2 and ctx.fundamental_disc == -15
    with pytest.raises(DomainError):
        OrderContext.from_disc(-7 * 3)
