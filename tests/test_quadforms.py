import logging
import random
import re
import signal
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from classfield import quadforms, refdata
from classfield.numerics import DomainError, InvariantViolation
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


def is_reduced(Q):
    """|b| <= a <= c, with b >= 0 when |b| = a or a = c."""
    a, b, c = Q
    return abs(b) <= a <= c and not ((abs(b) == a or a == c) and b < 0)


def test_reduce_idempotent_and_unique_small_discs():
    rng = random.Random(RNG_SEED)
    mats = small_sl2(2)
    for D in range(-3, -2001, -1):
        if D % 4 not in (0, 1):
            continue
        reduced = enumerate_reduced(D)
        assert len(set(reduced)) == len(reduced)
        for R in reduced:
            assert is_reduced(R)
            assert reduce_form(R)[0] == R
            # translated forms come back to the same reduced form
            g = rng.choice(mats)
            assert reduce_form(R.apply(g))[0] == R


def reference_reduce_form(Q):
    """Gauss reduction with gamma kept as an SL2 product: one multiplication
    by S or T^k per step, in reduce_form's step order."""
    a, b, c = Q
    g = SL2.I
    T = lambda k: SL2(1, k, 0, 1)
    S = SL2(0, -1, 1, 0)
    while True:
        if a > c:
            a, b, c = c, -b, a
            g = g * S
            continue
        if b <= -a or b > a:
            k = (a - b) // (2 * a)
            b2 = b + 2 * a * k
            c = a * k * k + b * k + c
            b = b2
            g = g * T(k)
            continue
        if b < 0 and (b == -a or a == c):
            if b == -a:
                c = a + b + c
                b = b + 2 * a
                g = g * T(1)
            else:
                a, b, c = c, -b, a
                g = g * S
            continue
        break
    return Form(a, b, c), g


@st.composite
def positive_forms(draw):
    """A primitive positive definite form: either (a, b, c) with 4ac > b^2
    drawn directly, or a reduced-looking edge case (a = c, b = -a, b < 0)
    moved by a random matrix, or left as it is."""
    kind = draw(st.sampled_from(["direct", "edge", "moved_edge"]))
    if kind == "direct":
        a = draw(st.integers(1, 10**6))
        b = draw(st.integers(-(10**6), 10**6))
        c = b * b // (4 * a) + draw(st.integers(1, 10**6))
    else:
        a = draw(st.integers(1, 60))
        shape = draw(st.sampled_from(["a=c", "b=-a", "b<0"]))
        if shape == "a=c":
            b, c = draw(st.integers(-a, a)), a
        elif shape == "b=-a":
            b, c = -a, draw(st.integers(a, 3 * a))
        else:
            b, c = draw(st.integers(-a, -1)), draw(st.integers(a, 3 * a))
    assume(b * b < 4 * a * c and gcd(gcd(a, b), c) == 1)
    Q = Form(a, b, c)
    if kind == "moved_edge":
        Q = Q.apply(draw(st.sampled_from(small_sl2(2))))
    return Q


@settings(max_examples=300, deadline=None)
@given(positive_forms())
def test_reduce_form_matches_sl2_product_reference(Q):
    # the same (R, gamma), not only the same R: class_label and the lattice
    # zeta read gamma
    R, g = reduce_form(Q)
    assert (R, g) == reference_reduce_form(Q)
    assert type(g) is SL2 and is_reduced(R)


@pytest.mark.parametrize(
    "abc", [(1, -1, 1), (2, -1, 2), (3, -2, 3), (2, -2, 3), (4, -4, 5), (7, -3, 7), (5, -1, 4), (3, -3, 1)]
)
def test_reduce_form_edge_cases_match_reference(abc):
    Q = Form(*abc)
    assert reduce_form(Q) == reference_reduce_form(Q)


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
    factors, characters, _ = group_structure_from_table(table)
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


def pairwise_table(ctx, N):
    """Slow-path table: every unordered pair of classes composed once, its
    product found by class_label, classes numbered by sorted label."""
    reps = class_enumerate(ctx, N).reps
    labels = [class_label(Q, N) for Q in reps]
    assert labels == sorted(set(labels))
    index = {label: i for i, label in enumerate(labels)}
    n = len(reps)
    table = [[0] * n for _ in reps]
    for i in range(n):
        for j in range(i, n):
            table[i][j] = table[j][i] = index[class_label(compose_level(reps[i], reps[j], ctx, N), N)]
    factors, characters, _ = group_structure_from_table(table)
    return table, factors, characters


def assert_matches_pairwise(D, N):
    ctx = OrderContext.from_disc(D)
    G = class_enumerate(ctx, N)
    table, factors, characters = pairwise_table(ctx, N)
    assert G.table == table
    assert G.invariant_factors == factors
    assert G.characters == characters


GROUPS_POOL = [(-200, 5), (-160, 8), (-95, 5), (-103, 5), (-84, 8), (-119, 5)]


@pytest.mark.parametrize(
    "D, N",
    [(D, N) for D in refdata.BATTERY_DISCS for N in refdata.BATTERY_LEVELS] + GROUPS_POOL,
)
def test_cayley_table_matches_pairwise(D, N):
    assert_matches_pairwise(D, N)


@settings(max_examples=40, deadline=None)
@given(D=st.sampled_from([-3, -4, -15, -20, -56, -71, -180, -200]), N=st.integers(1, 12))
def test_cayley_table_matches_pairwise_property(D, N):
    assert_matches_pairwise(D, N)


@pytest.mark.parametrize("D, N", [(-95, 5), (-200, 3)])
def test_class_enumerate_composition_count(D, N, monkeypatch):
    # one Cayley row of n compositions per generator, at most log2(n) generators
    calls = []

    def counting(*args):
        calls.append(1)
        return compose_level(*args)

    monkeypatch.setattr(quadforms, "compose_level", counting)
    n = class_enumerate(OrderContext.from_disc(D), N).order
    # the coset walk names each class once, and each generator s composes
    # one more coset, its last, to check the wrap-around to s^m: at most 2n
    assert len(calls) <= 2 * n


def test_class_enumerate_logs_its_walk(caplog, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return compose_level(*args)

    monkeypatch.setattr(quadforms, "compose_level", counting)
    with caplog.at_level(logging.INFO, logger="classfield"):
        G = class_enumerate(OrderContext.from_disc(-200), 5)
    lines = [r.getMessage() for r in caplog.records if r.name == "classfield.quadforms"]
    assert len(lines) == 1
    match = re.fullmatch(
        r"class_enumerate D=-200 N=5: 60 classes, (\d+) generators, (\d+) coset steps, (\d+) compositions",
        lines[0],
    )
    assert match
    generators, steps, compositions = map(int, match.groups())
    # each generator at least doubles the subgroup and takes m >= 2 coset steps
    assert 2 * generators <= steps and generators <= G.order.bit_length() - 1
    assert compositions == len(calls) <= 2 * G.order


@pytest.fixture
def alarm():
    """signal.alarm, with a handler that raises TimeoutError when it fires."""

    def give_up(signum, frame):
        raise TimeoutError("the call did not return before the alarm")

    previous = signal.signal(signal.SIGALRM, give_up)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("D, N", [(-200, 3), (-56, 4), (-3, 7), (-20, 12)])
def test_class_enumerate_catches_one_wrong_product(D, N, monkeypatch, alarm):
    # compose_level wrong on one unordered pair of classes: the fill raises or
    # still returns the true table, and never loops.  A loop in the fill is
    # caught by the composition budget, and one in the structure step, which
    # composes nothing, by the alarm
    ctx = OrderContext.from_disc(D)
    G = class_enumerate(ctx, N)
    n = G.order
    where = {Q: i for i, Q in enumerate(G.reps)}
    for a in range(n):
        for b in range(a, n):
            calls = []

            def mutated(Q, Q2, ctx, N):
                calls.append(1)
                assert len(calls) <= n * n, "composition budget exceeded"
                i, j = where[Q], where[Q2]
                if {i, j} == {a, b}:
                    return G.reps[(G.table[i][j] + 1) % n]
                return compose_level(Q, Q2, ctx, N)

            monkeypatch.setattr(quadforms, "compose_level", mutated)
            alarm(20)
            try:
                H = class_enumerate(ctx, N)
            except InvariantViolation:
                continue
            finally:
                alarm(0)
            assert H.table == G.table, (a, b)


def test_class_enumerate_rejects_composition_without_identity(monkeypatch):
    # a law under which the principal class is no identity stops the fill
    # instead of picking the same generator forever
    monkeypatch.setattr(quadforms, "compose_level", lambda Q, Q2, ctx, N: Q)
    with pytest.raises(InvariantViolation, match="principal class times class 1"):
        class_enumerate(OrderContext.from_disc(-200), 3)


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
    kernel = sum(1 for d in down if d == 0)
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
    factors, chars, walk = group_structure_from_table([[0]])
    assert factors == [] and chars == [[0]]
    assert walk.elems == [0] and walk.stages == []


def test_invariant_factors_c15():
    G = class_enumerate(OrderContext.from_disc(-15), 1)
    assert G.invariant_factors == [2]


def test_characters_are_all_homomorphisms(G200):
    n = G200.order
    e = G200.exponent
    assert e == 6
    chars = G200.characters
    assert len(chars) == n
    assert len(set(tuple(c) for c in chars)) == n
    for c in chars:
        assert c[0] == 0
        assert all(0 <= v < e for v in c)
        for i in range(n):
            for j in range(n):
                assert (c[i] + c[j]) % e == c[G200.table[i][j]]


CYCLIC_ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16]


@st.composite
def shuffled_product_tables(draw):
    """(dims, generator indices, table) of Z_d1 x ... x Z_dk, k <= 4, order <= 400,
    with the element indices shuffled and the identity kept at 0."""
    dims = []
    for _ in range(draw(st.integers(0, 4))):
        n = prod(dims)
        dims.append(draw(st.sampled_from([d for d in CYCLIC_ORDERS if n * d <= 400])))
    # element (a, i) of G x Z_d has index a*d + i
    table = [[0]]
    for d in dims:
        table = [[t * d + (i + j) % d for t in row for j in range(d)] for row in table for i in range(d)]
    n = len(table)
    perm = [0] + draw(st.permutations(range(1, n)))
    shuffled = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            shuffled[perm[x]][perm[y]] = perm[table[x][y]]
    gens = [perm[prod(dims[s + 1:])] if d > 1 else 0 for s, d in enumerate(dims)]
    return dims, gens, shuffled


def invariant_factors_of(dims):
    """d_1 | d_2 | ... of Z_d1 x ... x Z_dk: the i-th largest factor is the
    product over primes p of the i-th largest p-part of the d's."""
    parts = {}
    for d in dims:
        for p in range(2, d + 1):
            q = 1
            while d % p == 0:
                d, q = d // p, q * p
            if q > 1:
                parts.setdefault(p, []).append(q)
    factors = [1] * max(map(len, parts.values()), default=0)
    for qs in parts.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] *= q
    return sorted(factors)


def test_group_structure_rejects_a_power_cycle_outside_the_identity():
    # commutative, with identity 0 and an inverse in every row, but 1*1 = 2,
    # 2*1 = 3 and 3*1 = 1: the powers of 1 never reach 0.  At 26 elements
    # the validation skips its associativity check, so the order loop must
    # stop by itself
    n = 26
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    table[1][3] = table[3][1] = 1
    with pytest.raises(InvariantViolation, match="element 1 has no power in the subgroup"):
        group_structure_from_table(table)


@settings(max_examples=100, deadline=None)
@given(shuffled_product_tables())
def test_group_structure_of_shuffled_product_tables(case):
    dims, gens, table = case
    n = len(table)
    factors, chars, _ = group_structure_from_table(table)
    expected = invariant_factors_of(dims)
    assert factors == expected
    assert len(chars) == n
    assert len(set(map(tuple, chars))) == n
    assert chars[0] == [0] * n
    # chi(x*g) = chi(x) + chi(g) for every x and every generator g makes chi
    # a homomorphism; values are integers over the exponent E
    E = max(expected, default=1)
    for c in chars:
        assert all(0 <= v < E for v in c)
        for g in gens:
            assert all(c[table[x][g]] == (c[x] + c[g]) % E for x in range(n))


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
