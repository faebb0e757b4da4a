"""Command-line entry point: class groups, minimal polynomials, L-derivatives,
Cartan orders, invariant orbits, and the named verification batteries.

Big integers are serialized as decimal strings in all JSON output; runs are
deterministic for a fixed job description and seed.  Set CLASSFIELD_LOG to a
logging level name for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

import mpmath

from . import cartan, invariants, lfunctions, verify
from .numerics import (
    MAX_ESCALATIONS,
    BigComplex,
    DomainError,
    InvariantViolation,
    PrecisionPolicy,
    ResourceError,
    working_bits,
)
from .orderideals import form_ideal_dictionary, oracle_class_group, tables_isomorphic
from .quadforms import OrderContext, class_enumerate, class_number

log = logging.getLogger("classfield")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNRECOGNIZED = 3
EXIT_INVARIANT = 4
EXIT_RESOURCE = 5


def _setup_logging() -> None:
    level = os.environ.get("CLASSFIELD_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING))


def _emit(payload: dict, fmt: str, text_fn) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        text_fn()


def _context(args) -> OrderContext:
    return OrderContext.from_disc(args.disc)


def _require_digits(args) -> None:
    if args.digits < 1:
        raise DomainError(f"--digits must be at least 1, not {args.digits}")


def _zero_below(z: BigComplex, tiny) -> BigComplex:
    """z with each part of modulus below `tiny` set to zero."""
    return BigComplex(*(x if abs(x) >= tiny else 0 for x in (z.re, z.im)), z.prec)


def cmd_classgroup(args) -> int:
    ctx = _context(args)
    G = class_enumerate(ctx, args.level)
    payload = {"kind": "classgroup", **G.to_json()}
    if args.check_oracle:
        oracle = oracle_class_group(ctx, args.level)
        phi = form_ideal_dictionary(oracle, G)
        payload["oracle_isomorphic"] = tables_isomorphic(oracle, G, phi)
        payload["oracle_dictionary"] = phi
        payload["oracle"] = oracle.to_json()

    def text():
        print(f"discriminant {ctx.disc}, level {args.level}: {G.order} classes")
        for i, Q in enumerate(G.reps):
            print(f"  g{i + 1} = [{Q.a}, {Q.b}, {Q.c}]")
        print("invariant factors:", " x ".join(f"Z{d}" for d in G.invariant_factors) or "trivial")
        print(G.format_table())
        if args.check_oracle:
            print("ideal-oracle isomorphism:", "ok" if payload["oracle_isomorphic"] else "FAILED")

    _emit(payload, args.format, text)
    if args.check_oracle and not payload["oracle_isomorphic"]:
        return EXIT_FAIL
    return EXIT_OK


def cmd_minpoly(args) -> int:
    ctx = _context(args)
    policy = PrecisionPolicy(args.digits, max_escalations=args.max_escalations)
    res = invariants.minimal_polynomial(ctx, args.level, policy)
    payload = {"kind": "minpoly", **res.to_json()}

    def text():
        print(f"degree {res.degree} over K, precision used {res.precision_used} digits")
        if res.ok:
            for k, c in enumerate(payload["coefficients"]):
                print(f"  x^{res.degree - k}: {c}   (residual {res.residuals[k]:.3e})")
        else:
            print("integer recognition FAILED; high-precision coefficients follow")
            for k, c in enumerate(res.unrecognized):
                print(f"  x^{res.degree - k}: {c}   (residual {res.residuals[k]:.3e})")

    _emit(payload, args.format, text)
    return EXIT_OK if res.ok else EXIT_UNRECOGNIZED


def cmd_lderiv(args) -> int:
    _require_digits(args)
    ctx = _context(args)
    G = class_enumerate(ctx, args.level)
    logs = lfunctions.log_g_values(G, ctx, args.digits)
    values = lfunctions.lderiv0_all(G, ctx, args.digits, logs)
    # recover ln|g(C)| from all characters, at the precision the sums ran at
    inversion = lfunctions.fourier_inversion_residual(G, ctx, values, logs, working_bits(args.digits))
    # the sums run at working_bits(digits), so their absolute accuracy is below
    # 10^-digits and any part smaller than that prints as zero
    tiny = mpmath.mpf(10) ** -args.digits
    shown = [_zero_below(z, tiny) for z in values]
    exponents = G.characters_qz()
    payload = {
        "kind": "lderiv",
        "disc": str(ctx.disc),
        "level": str(args.level),
        "gamma": str(lfunctions.gamma_ON(ctx, args.level)),
        "per_class_log_g": [mpmath.nstr(x, args.digits) for x in logs],
        "characters": {
            str(k): {
                "exponents": exponents[k],
                "lderiv0": z.to_decimal(args.digits),
            }
            for k, z in enumerate(shown)
        },
        # from a 53-bit copy: at full precision nstr builds an int too long for str()
        "inversion_residual": mpmath.nstr(mpmath.mpf(inversion, prec=53), 5),
    }

    def text():
        print(f"gamma = {payload['gamma']}")
        for i, x in enumerate(logs):
            print(f"  ln|g(g{i + 1})| = {mpmath.nstr(x, min(args.digits, 30))}")
        for k, z in enumerate(shown):
            print(f"  L'(0, chi_{k}) = {z.to_decimal(min(args.digits, 30))}")
        print(f"inversion residual: {payload['inversion_residual']}")

    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_cartan(args) -> int:
    ctx = _context(args)
    if args.level < 2:
        raise DomainError("cartan needs level >= 2")
    data = cartan.cartan_groups(ctx, args.level)
    # mu is injective on residues, so W has one matrix per unit of O/NO
    units = len(data.W)
    G = class_enumerate(ctx, args.level)
    ok = cartan.wuog_identity_holds(data, G.order, class_number(ctx.disc))
    payload = {
        "kind": "cartan",
        "disc": str(ctx.disc),
        "N": str(args.level),
        "orders": {k: str(v) for k, v in data.orders().items()} | {"units": str(units)},
        "check_WUOG": ok,
    }

    def text():
        print(f"|(O/NO)*| = {units}, |W| = {len(data.W)}, |U| = {len(data.U)}, |What| = {len(data.What)}")
        print("order identity |W|/|U| = |C_N|/h:", "ok" if ok else "FAILED")

    _emit(payload, args.format, text)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_invariants(args) -> int:
    _require_digits(args)
    ctx = _context(args)
    if args.level < 2:
        raise DomainError("invariant orbits need level >= 2")
    G = class_enumerate(ctx, args.level)
    if args.family == "siegel":
        fam = invariants.FamilyId.siegel_power()
    elif args.family == "fricke":
        fam = invariants.FamilyId.fricke()
    else:
        fam = invariants.FamilyId.j()
    orbit = invariants.conjugate_orbit(fam, G, ctx, args.digits)
    # a part below |z| 10^-digits is below the value's accuracy: print it as zero
    scale = mpmath.mpf(10) ** -args.digits
    shown = [_zero_below(z, abs(z.to_mpc()) * scale) for z in orbit]
    payload = {
        "kind": "invariants",
        "disc": str(ctx.disc),
        "level": str(args.level),
        "family": args.family,
        "values": [z.to_decimal(args.digits) for z in shown],
    }

    def text():
        for i, z in enumerate(shown):
            print(f"  g{i + 1}: {z.to_decimal(min(args.digits, 40))}")

    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    # every battery checks --digits, also one that does not use it
    if args.digits is not None:
        _require_digits(args)
    checks = verify.run_battery(args.battery, seed=args.seed, minpoly_digits=args.digits)
    n_ok = sum(1 for _, ok, _ in checks if ok)
    payload = {
        "kind": "verify",
        "battery": args.battery,
        "passed": n_ok,
        "total": len(checks),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }

    def text():
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        print(f"{n_ok}/{len(checks)} checks passed")

    _emit(payload, args.format, text)
    return EXIT_OK if n_ok == len(checks) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="classfield", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, digits_default=None):
        p.add_argument("--disc", type=int, required=True)
        p.add_argument("--level", type=int, required=True)
        if digits_default is not None:
            p.add_argument("--digits", type=int, default=digits_default)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classgroup", help="level-N form class group")
    common(p)
    p.add_argument("--check-oracle", action="store_true")
    p.set_defaults(fn=cmd_classgroup)

    p = sub.add_parser("minpoly", help="integer minimal polynomial of the identity invariant")
    common(p)
    # no --digits: a probe sizes the first pass from the precision gate
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--max-escalations", type=int, default=MAX_ESCALATIONS)
    p.set_defaults(fn=cmd_minpoly)

    p = sub.add_parser("lderiv", help="L'(0, chi) for the class group characters")
    common(p, digits_default=60)
    p.set_defaults(fn=cmd_lderiv)

    p = sub.add_parser("cartan", help="Cartan subgroup orders and the order identity")
    common(p)
    p.set_defaults(fn=cmd_cartan)

    p = sub.add_parser("invariants", help="Galois orbit of a family invariant")
    common(p, digits_default=60)
    p.add_argument("--family", choices=("siegel", "fricke", "j"), default="siegel")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("verify", help="run a named check battery")
    p.add_argument("battery", choices=("small", "paper", "full"))
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ResourceError as exc:
        print(f"error: search limit reached: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
