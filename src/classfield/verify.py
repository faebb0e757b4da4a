"""Named verification batteries behind the `verify` subcommand.

Each check is one function returning (name, passed, detail); a battery is the
list of its check calls, the CLI prints one line per check and exits nonzero
on any failure, and the acceptance tests call the same checks under their own
time limits.  `small` runs the form/ideal oracle equivalences and the Cartan
order identity, `paper` reproduces the discriminant -200, level 3 worked
example end to end, `full` adds the modular-identity numerics.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp

from . import cartan, invariants, modfun, refdata
from .numerics import BigComplex, DomainError, PrecisionPolicy, working_bits
from .orderideals import form_ideal_dictionary, oracle_class_group, tables_isomorphic
from .quadforms import (
    ClassGroup,
    Form,
    OrderContext,
    class_enumerate,
    class_number,
    enumerate_reduced,
)

Check = Tuple[str, bool, str]

DEFAULT_SEED = 1729
# D = -200 has b0 = 0, so the conjugation rule also runs at an odd
# discriminant (b0 = 1), where the b0 entry of J matters; the class
# conjugation check runs there at level CONJUGATION_ODD_LEVEL
CONJUGATION_ODD_DISC = -71
CONJUGATION_ODD_LEVEL = 5


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def align_to_reference(G: ClassGroup) -> List[int]:
    """Index of each reference representative inside the computed group."""
    return [G.index_of(Form(*t)) for t in refdata.D200_CLASS_REPS]


# ---------------------------------------------------------------------------
# the worked example: discriminant -200, level 3


def check_reduced_forms() -> Check:
    red = [tuple(Q) for Q in enumerate_reduced(refdata.D200_DISC)]
    return _check("reduced-forms", red == refdata.D200_REDUCED, f"{len(red)} forms")


def check_class_count(G: ClassGroup) -> Check:
    return _check("class-count", G.order == len(refdata.D200_CLASS_REPS), f"order {G.order}")


def check_invariant_factors(G: ClassGroup) -> Check:
    return _check(
        "invariant-factors",
        G.invariant_factors == refdata.D200_INVARIANT_FACTORS,
        str(G.invariant_factors),
    )


def check_group_table(G: ClassGroup) -> Check:
    perm = align_to_reference(G)
    bad = sum(
        G.table[perm[i]][perm[j]] != perm[k - 1]
        for i, row in enumerate(refdata.D200_TABLE)
        for j, k in enumerate(row)
    )
    cells = len(perm) ** 2
    return _check("group-table", len(set(perm)) == len(perm) and bad == 0, f"{cells - bad}/{cells} cells")


def check_minimal_polynomial(ctx: OrderContext, G: ClassGroup, digits: Optional[int]) -> Check:
    res = invariants.minimal_polynomial(ctx, G.level, PrecisionPolicy(digits), class_group=G)
    worst = max(res.residuals) if res.residuals else float("nan")
    return _check(
        "minimal-polynomial",
        res.ok and res.coefficients == refdata.D200_MINPOLY and worst < 1e-20,
        f"degree {res.degree}, max residual {worst:.3e}",
    )


def battery_paper(minpoly_digits: Optional[int] = None) -> List[Check]:
    ctx = OrderContext.from_disc(refdata.D200_DISC)
    G = class_enumerate(ctx, refdata.D200_LEVEL)
    return [
        check_reduced_forms(),
        check_class_count(G),
        check_invariant_factors(G),
        check_group_table(G),
        check_minimal_polynomial(ctx, G, minpoly_digits),
    ]


# ---------------------------------------------------------------------------
# form side against the ideal side, and the Cartan order identity


def check_oracle_match(ctx: OrderContext, G: ClassGroup) -> Check:
    oracle = oracle_class_group(ctx, G.level)
    name = f"oracle-match D={ctx.disc} N={G.level}"
    if G.order != oracle.order:
        return _check(name, False, "orders differ")
    phi = form_ideal_dictionary(oracle, G)
    return _check(name, tables_isomorphic(oracle, G, phi), f"|G|={G.order}")


def check_wuog(ctx: OrderContext, G: ClassGroup) -> Check:
    cd = cartan.cartan_groups(ctx, G.level)
    ok = cartan.wuog_identity_holds(cd, G.order, class_number(ctx.disc))
    return _check(f"cartan-wuog D={ctx.disc} N={G.level}", ok)


def battery_small() -> List[Check]:
    """Form-side vs ideal-side oracle across the discriminant/level battery."""
    checks: List[Check] = []
    for D in refdata.BATTERY_DISCS:
        ctx = OrderContext.from_disc(D)
        for N in refdata.BATTERY_LEVELS:
            G = class_enumerate(ctx, N)
            checks.append(check_oracle_match(ctx, G))
            if N >= 2:
                checks.append(check_wuog(ctx, G))
    return checks


# ---------------------------------------------------------------------------
# modular-function identities, at the working precision battery_modular sets


def _rel(a, b):
    return abs(a - b) / abs(b)


def _relative_check(name: str, errors: Iterable, digits: int) -> Check:
    worst = max(errors)
    tol = mpmath.mpf(10) ** (-(digits - 10))
    return _check(name, worst < tol, f"max rel {mpmath.nstr(worst, 3)}")


def check_j_siegel_vs_eisenstein(taus: Sequence[BigComplex], digits: int) -> Check:
    """j from the half-index Siegel relation against the Eisenstein route."""
    return _relative_check(
        "j-siegel-vs-eisenstein",
        (
            _rel(modfun.delta_j(tau, digits)[1].to_mpc(), modfun.j_eisenstein(tau, digits).to_mpc())
            for tau in taus
        ),
        digits,
    )


def check_torsion_coordinates(ctx: OrderContext, vs: Sequence, digits: int) -> Check:
    """X_v = -f_v/(2^7 3^3), and (X_v, Y_v) lies on the Weierstrass model, for
    each index v = (u1, u2, d)."""
    tau0 = ctx.tau(digits)
    model = modfun.elliptic_model(ctx, digits)
    errors = []
    for v in vs:
        X, Y = (c.to_mpc() for c in modfun.torsion_xy(ctx, v, digits))
        f = modfun.fricke(v, tau0, digits).to_mpc()
        errors.append(_rel(-f / (2**7 * 3**3), X))
        errors.append(_rel(4 * X**3 - model.A.to_mpc() * X - model.B.to_mpc(), Y**2))
    return _relative_check("torsion-coordinates", errors, digits)


def check_conjugation_rule(ctxs: Sequence[OrderContext], vs: Sequence, digits: int) -> Check:
    """conj f_v(tau0) = f_{vJ}(tau0) with J = [[1, b0], [0, -1]], on every order,
    for each index v = (u1, u2, d); vJ = (u1, b0 u1 - u2, d)."""
    errors = []
    for ctx in ctxs:
        tau0 = ctx.tau(digits)
        for u1, u2, d in vs:
            errors.append(
                _rel(
                    modfun.fricke((u1, u2, d), tau0, digits).to_mpc().conjugate(),
                    modfun.fricke((u1, ctx.b0 * u1 - u2, d), tau0, digits).to_mpc(),
                )
            )
    return _relative_check("conjugation-rule", errors, digits)


def check_class_conjugation(groups: Sequence[Tuple[OrderContext, ClassGroup]], digits: int) -> Check:
    """g(conj C) = conj g(C) for every class, conj C the class of (a, -b, c).

    minimal_polynomial, log_g_values and conjugate_orbit evaluate one class of
    each conjugate pair (invariants._conjugate_pairs); this evaluates both.
    """
    errors = []
    for ctx, G in groups:
        values = [invariants.g_ON(Q, ctx, G.level, digits).to_mpc() for Q in G.reps]
        for Q, v in zip(G.reps, values):
            errors.append(_rel(v.conjugate(), values[G.index_of(Form(Q.a, -Q.b, Q.c))]))
    return _relative_check("class-conjugation", errors, digits)


def check_siegel_y_ratio(ctx: OrderContext, digits: int) -> Check:
    """Y_v / Y_u = g_2v g_u^4 / (g_v^4 g_2u) for u = (0, 1/3) and five v, all
    indices rows over 3."""
    tau0 = ctx.tau(digits)

    def g(u1, u2):
        return modfun.siegel((u1, u2, 3), tau0, digits).to_mpc()

    _, Yu = modfun.torsion_xy(ctx, (0, 1, 3), digits)
    gu, g2u = g(0, 1), g(0, 2)
    errors = []
    for u1, u2 in [(1, 0), (1, 1), (2, 1), (1, 2), (2, 2)]:
        _, Yv = modfun.torsion_xy(ctx, (u1, u2, 3), digits)
        ratio = Yv.to_mpc() / Yu.to_mpc()
        errors.append(_rel(g(2 * u1, 2 * u2) * gu**4 / (g(u1, u2) ** 4 * g2u), ratio))
    return _relative_check("siegel-y-ratio", errors, digits)


def battery_modular(seed: int = DEFAULT_SEED, digits: int = 60) -> List[Check]:
    """The analytic identity spot-checks at `digits` target digits.

    Five random tau (Im tau in [0.20, 2.00]) for j, then five random 3-torsion
    indices shared by the torsion and conjugation checks, all from `seed`.
    The conjugation rule runs at D = -200 and at CONJUGATION_ODD_DISC, and so
    does the class conjugation check, on every class of (-200, 3) and
    (CONJUGATION_ODD_DISC, CONJUGATION_ODD_LEVEL).
    """
    rng = random.Random(seed)
    prec = working_bits(digits)
    taus = [
        BigComplex(Fraction(rng.randint(-40, 40), 100), Fraction(rng.randint(20, 200), 100), prec)
        for _ in range(5)
    ]
    vs = [(rng.randint(0, 2), rng.randint(1, 2), 3) for _ in range(5)]
    ctx = OrderContext.from_disc(refdata.D200_DISC)
    odd = OrderContext.from_disc(CONJUGATION_ODD_DISC)
    groups = [
        (ctx, class_enumerate(ctx, refdata.D200_LEVEL)),
        (odd, class_enumerate(odd, CONJUGATION_ODD_LEVEL)),
    ]
    with mp.workprec(prec):
        return [
            check_j_siegel_vs_eisenstein(taus, digits),
            check_torsion_coordinates(ctx, vs, digits),
            check_conjugation_rule([ctx, odd], vs, digits),
            check_class_conjugation(groups, digits),
            check_siegel_y_ratio(ctx, digits),
        ]


def run_battery(name: str, seed: int = DEFAULT_SEED, minpoly_digits=None) -> List[Check]:
    if name == "paper":
        return battery_paper(minpoly_digits=minpoly_digits)
    if name == "small":
        return battery_small()
    if name == "full":
        return (
            battery_small()
            + battery_paper(minpoly_digits=minpoly_digits)
            + battery_modular(seed=seed)
        )
    raise DomainError(f"unknown battery {name!r}")
