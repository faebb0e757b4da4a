"""Named verification batteries behind the `verify` subcommand.

Each check returns (name, passed, detail); the CLI prints one line per check
and exits nonzero on any failure.  `small` runs the form/ideal oracle
equivalences, `paper` reproduces the discriminant -200, level 3 worked
example end to end, `full` adds the modular-identity numerics.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

import mpmath
from mpmath import mp

from . import cartan, invariants, modfun, refdata
from .numerics import BigComplex, PrecisionPolicy, bits_for_digits
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


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def align_to_reference(G: ClassGroup) -> List[int]:
    """Index of each reference representative inside the computed group."""
    return [G.index_of(Form(*t)) for t in refdata.D200_CLASS_REPS]


def battery_paper(minpoly_digits: int = 700) -> List[Check]:
    checks: List[Check] = []
    ctx = OrderContext.from_disc(refdata.D200_DISC)
    N = refdata.D200_LEVEL

    red = [tuple(Q) for Q in enumerate_reduced(ctx.disc)]
    checks.append(_check("reduced-forms", red == refdata.D200_REDUCED, f"{len(red)} forms"))

    G = class_enumerate(ctx, N)
    checks.append(_check("class-count", G.order == 12, f"order {G.order}"))
    checks.append(
        _check(
            "invariant-factors",
            G.invariant_factors == refdata.D200_INVARIANT_FACTORS,
            str(G.invariant_factors),
        )
    )

    perm = align_to_reference(G)
    ok = len(set(perm)) == 12
    bad = 0
    for i in range(12):
        for j in range(12):
            want = perm[refdata.D200_TABLE[i][j] - 1]
            if G.table[perm[i]][perm[j]] != want:
                bad += 1
    checks.append(_check("group-table", ok and bad == 0, f"{144 - bad}/144 cells"))

    policy = PrecisionPolicy(minpoly_digits)
    res = invariants.minimal_polynomial(ctx, N, policy, class_group=G)
    ok = res.ok and res.coefficients == refdata.D200_MINPOLY
    worst = max(res.residuals) if res.residuals else float("nan")
    checks.append(
        _check(
            "minimal-polynomial",
            ok and worst < 1e-20,
            f"degree {res.degree}, max residual {worst:.3e}",
        )
    )
    return checks


def battery_small(norm_bound=None) -> List[Check]:
    """Form-side vs ideal-side oracle across the discriminant/level battery."""
    checks: List[Check] = []
    for D in refdata.BATTERY_DISCS:
        ctx = OrderContext.from_disc(D)
        h = class_number(D)
        for N in refdata.BATTERY_LEVELS:
            oracle = oracle_class_group(ctx, N, norm_bound=norm_bound)
            G = class_enumerate(ctx, N)
            label = f"oracle-match D={D} N={N}"
            if G.order != oracle.order:
                checks.append(_check(label, False, "orders differ"))
                continue
            phi = form_ideal_dictionary(oracle, G)
            checks.append(_check(label, tables_isomorphic(oracle, G, phi), f"|G|={G.order}"))
            if N >= 2:
                checks.append(
                    _check(
                        f"cartan-wuog D={D} N={N}",
                        cartan.wuog_identity_holds(ctx, N, G.order, h),
                        "",
                    )
                )
    return checks


def battery_modular(seed: int = DEFAULT_SEED, digits: int = 60) -> List[Check]:
    """The analytic identity spot-checks at `digits` target digits."""
    rng = random.Random(seed)
    checks: List[Check] = []
    prec = bits_for_digits(digits + modfun.GUARD_DIGITS)
    tol = mpmath.mpf(10) ** (-(digits - 10))

    def rand_tau() -> BigComplex:
        return BigComplex(
            Fraction(rng.randint(-40, 40), 100),
            Fraction(rng.randint(20, 160), 100),
            prec,
        )

    with mp.workprec(prec):
        # j vs the half-index Siegel relation, at independent Eisenstein route
        worst = mpmath.mpf(0)
        for _ in range(5):
            tau = rand_tau()
            _, j1 = modfun.delta_j(tau, digits)
            j2 = modfun.j_eisenstein(tau, digits)
            worst = max(worst, abs(j1.to_mpc() - j2.to_mpc()) / max(1, abs(j1.to_mpc())))
        checks.append(_check("j-siegel-vs-eisenstein", worst < tol, f"max rel {mpmath.nstr(worst, 3)}"))

        ctx = OrderContext.from_disc(-200)
        tau0 = ctx.tau(digits + modfun.GUARD_DIGITS)
        model = modfun.elliptic_model(ctx, digits)
        worst = mpmath.mpf(0)
        for k in range(1, 6):
            v = modfun.FrickeIndex.of(Fraction(rng.randint(0, 2), 3), Fraction(rng.randint(1, 2), 3))
            X, Y = modfun.torsion_xy(ctx, v, digits)
            f = modfun.fricke(v, tau0, digits)
            # X = -f/(2^7 3^3)
            worst = max(worst, abs(X.to_mpc() + f.to_mpc() / (2**7 * 3**3)) / abs(X.to_mpc()))
            # Weierstrass relation on the model
            res = Y.to_mpc() ** 2 - (
                4 * X.to_mpc() ** 3 - model.A.to_mpc() * X.to_mpc() - model.B.to_mpc()
            )
            worst = max(worst, abs(res) / max(1, abs(Y.to_mpc() ** 2)))
        checks.append(_check("torsion-coordinates", worst < tol, f"max rel {mpmath.nstr(worst, 3)}"))

        # conjugation rule for the Fricke family at tau0
        worst = mpmath.mpf(0)
        for _ in range(5):
            v = modfun.FrickeIndex.of(Fraction(rng.randint(0, 2), 3), Fraction(rng.randint(1, 2), 3))
            lhs = modfun.fricke(v, tau0, digits).to_mpc().conjugate()
            rhs = modfun.fricke(v.act((1, ctx.b0, 0, -1)), tau0, digits).to_mpc()
            worst = max(worst, abs(lhs - rhs) / max(1, abs(rhs)))
        checks.append(_check("conjugation-rule", worst < tol, f"max rel {mpmath.nstr(worst, 3)}"))

        # Siegel ratio identity for Y_v / Y_u
        u = modfun.FrickeIndex.of(0, Fraction(1, 3))
        v = modfun.FrickeIndex.of(Fraction(1, 3), Fraction(1, 3))
        _, Yu = modfun.torsion_xy(ctx, u, digits)
        _, Yv = modfun.torsion_xy(ctx, v, digits)
        gu = modfun.siegel(u, tau0, digits).to_mpc()
        gv = modfun.siegel(v, tau0, digits).to_mpc()
        g2u = modfun.siegel(modfun.FrickeIndex.of(0, Fraction(2, 3)), tau0, digits).to_mpc()
        g2v = modfun.siegel(modfun.FrickeIndex.of(Fraction(2, 3), Fraction(2, 3)), tau0, digits).to_mpc()
        lhs = Yv.to_mpc() / Yu.to_mpc()
        rhs = g2v * gu**4 / (gv**4 * g2u)
        rel = abs(lhs - rhs) / abs(rhs)
        checks.append(_check("siegel-y-ratio", rel < tol, f"rel {mpmath.nstr(rel, 3)}"))
    return checks


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
    raise KeyError(name)
