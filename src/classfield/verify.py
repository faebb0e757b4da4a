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
from .numerics import BigComplex, DomainError, PrecisionPolicy, bits_for_digits
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
# discriminant (b0 = 1), where the b0 entry of J matters
CONJUGATION_ODD_DISC = -71


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
    return _check("class-count", G.order == 12, f"order {G.order}")


def check_invariant_factors(G: ClassGroup) -> Check:
    return _check(
        "invariant-factors",
        G.invariant_factors == refdata.D200_INVARIANT_FACTORS,
        str(G.invariant_factors),
    )


def check_group_table(G: ClassGroup) -> Check:
    perm = align_to_reference(G)
    bad = sum(
        1
        for i in range(12)
        for j in range(12)
        if G.table[perm[i]][perm[j]] != perm[refdata.D200_TABLE[i][j] - 1]
    )
    return _check("group-table", len(set(perm)) == 12 and bad == 0, f"{144 - bad}/144 cells")


def check_minimal_polynomial(ctx: OrderContext, G: ClassGroup, digits: int) -> Check:
    res = invariants.minimal_polynomial(ctx, G.level, PrecisionPolicy(digits), class_group=G)
    worst = max(res.residuals) if res.residuals else float("nan")
    return _check(
        "minimal-polynomial",
        res.ok and res.coefficients == refdata.D200_MINPOLY and worst < 1e-20,
        f"degree {res.degree}, max residual {worst:.3e}",
    )


def battery_paper(minpoly_digits: int = 700) -> List[Check]:
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


def check_oracle_match(ctx: OrderContext, G: ClassGroup, norm_bound: Optional[int] = None) -> Check:
    oracle = oracle_class_group(ctx, G.level, norm_bound=norm_bound)
    name = f"oracle-match D={ctx.disc} N={G.level}"
    if G.order != oracle.order:
        return _check(name, False, "orders differ")
    phi = form_ideal_dictionary(oracle, G)
    return _check(name, tables_isomorphic(oracle, G, phi), f"|G|={G.order}")


def check_wuog(ctx: OrderContext, G: ClassGroup) -> Check:
    cd = cartan.cartan_groups(ctx, G.level)
    ok = cartan.wuog_identity_holds(cd, G.order, class_number(ctx.disc))
    return _check(f"cartan-wuog D={ctx.disc} N={G.level}", ok)


def battery_small(norm_bound: Optional[int] = None) -> List[Check]:
    """Form-side vs ideal-side oracle across the discriminant/level battery."""
    checks: List[Check] = []
    for D in refdata.BATTERY_DISCS:
        ctx = OrderContext.from_disc(D)
        for N in refdata.BATTERY_LEVELS:
            G = class_enumerate(ctx, N)
            checks.append(check_oracle_match(ctx, G, norm_bound))
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
    """X_v = -f_v/(2^7 3^3), and (X_v, Y_v) lies on the Weierstrass model."""
    tau0 = ctx.tau(digits + modfun.GUARD_DIGITS)
    model = modfun.elliptic_model(ctx, digits)
    errors = []
    for v in vs:
        X, Y = (c.to_mpc() for c in modfun.torsion_xy(ctx, v, digits))
        f = modfun.fricke(v, tau0, digits).to_mpc()
        errors.append(_rel(-f / (2**7 * 3**3), X))
        errors.append(_rel(4 * X**3 - model.A.to_mpc() * X - model.B.to_mpc(), Y**2))
    return _relative_check("torsion-coordinates", errors, digits)


def check_conjugation_rule(ctxs: Sequence[OrderContext], vs: Sequence, digits: int) -> Check:
    """conj f_v(tau0) = f_{vJ}(tau0) with J = [[1, b0], [0, -1]], on every order."""
    errors = []
    for ctx in ctxs:
        tau0 = ctx.tau(digits + modfun.GUARD_DIGITS)
        for v in vs:
            errors.append(
                _rel(
                    modfun.fricke(v, tau0, digits).to_mpc().conjugate(),
                    modfun.fricke(v.act((1, ctx.b0, 0, -1)), tau0, digits).to_mpc(),
                )
            )
    return _relative_check("conjugation-rule", errors, digits)


def check_siegel_y_ratio(ctx: OrderContext, digits: int) -> Check:
    """Y_v / Y_u = g_2v g_u^4 / (g_v^4 g_2u) for u = (0, 1/3) and five v."""
    tau0 = ctx.tau(digits + modfun.GUARD_DIGITS)

    def g(v1, v2):
        return modfun.siegel(modfun.FrickeIndex.of(v1, v2), tau0, digits).to_mpc()

    t1, t2 = Fraction(1, 3), Fraction(2, 3)
    _, Yu = modfun.torsion_xy(ctx, modfun.FrickeIndex.of(0, t1), digits)
    gu, g2u = g(0, t1), g(0, t2)
    errors = []
    for v1, v2 in [(t1, 0), (t1, t1), (t2, t1), (t1, t2), (t2, t2)]:
        _, Yv = modfun.torsion_xy(ctx, modfun.FrickeIndex.of(v1, v2), digits)
        ratio = Yv.to_mpc() / Yu.to_mpc()
        errors.append(_rel(g(2 * v1, 2 * v2) * gu**4 / (g(v1, v2) ** 4 * g2u), ratio))
    return _relative_check("siegel-y-ratio", errors, digits)


def battery_modular(seed: int = DEFAULT_SEED, digits: int = 60) -> List[Check]:
    """The analytic identity spot-checks at `digits` target digits.

    Five random tau (Im tau in [0.20, 2.00]) for j, then five random 3-torsion
    indices shared by the torsion and conjugation checks, all from `seed`.
    The conjugation rule runs at D = -200 and at CONJUGATION_ODD_DISC.
    """
    rng = random.Random(seed)
    prec = bits_for_digits(digits + modfun.GUARD_DIGITS)
    taus = [
        BigComplex(Fraction(rng.randint(-40, 40), 100), Fraction(rng.randint(20, 200), 100), prec)
        for _ in range(5)
    ]
    vs = [
        modfun.FrickeIndex.of(Fraction(rng.randint(0, 2), 3), Fraction(rng.randint(1, 2), 3))
        for _ in range(5)
    ]
    ctx = OrderContext.from_disc(refdata.D200_DISC)
    odd = OrderContext.from_disc(CONJUGATION_ODD_DISC)
    with mp.workprec(prec):
        return [
            check_j_siegel_vs_eisenstein(taus, digits),
            check_torsion_coordinates(ctx, vs, digits),
            check_conjugation_rule([ctx, odd], vs, digits),
            check_siegel_y_ratio(ctx, digits),
        ]


def run_battery(name: str, seed: int = DEFAULT_SEED, minpoly_digits: int = 700, norm_bound=None) -> List[Check]:
    if name == "paper":
        return battery_paper(minpoly_digits=minpoly_digits)
    if name == "small":
        return battery_small(norm_bound=norm_bound)
    if name == "full":
        return (
            battery_small(norm_bound=norm_bound)
            + battery_paper(minpoly_digits=minpoly_digits)
            + battery_modular(seed=seed)
        )
    raise DomainError(f"unknown battery {name!r}")
