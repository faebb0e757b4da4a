import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
from importlib import resources

import jsonschema
import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import classfield
import fourier_reference
from classfield import cartan, cli, invariants, verify
from classfield.numerics import DomainError, InvariantViolation, ResourceError, working_bits
from classfield.quadforms import OrderContext, class_enumerate


@pytest.fixture(scope="module")
def schema():
    with resources.files("classfield").joinpath("schema.json").open() as fh:
        return json.load(fh)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_classgroup_reference_instance(capsys, schema):
    code, payload = run_json(
        capsys, "classgroup", "--disc", "-200", "--level", "3", "--format", "json"
    )
    assert code == 0
    jsonschema.validate(payload, schema)
    assert len(payload["reps"]) == 12
    assert payload["invariant_factors"] == ["2", "6"]


def test_classgroup_oracle_audit(capsys, schema):
    code, payload = run_json(
        capsys, "classgroup", "--disc", "-24", "--level", "2",
        "--check-oracle", "--format", "json",
    )
    assert code == 0
    jsonschema.validate(payload, schema)
    assert payload["oracle_isomorphic"] is True
    assert sorted(payload["oracle_dictionary"]) == list(range(len(payload["reps"])))


def test_classgroup_level_one(capsys, schema):
    code, payload = run_json(
        capsys, "classgroup", "--disc", "-200", "--level", "1", "--format", "json"
    )
    assert code == 0
    jsonschema.validate(payload, schema)
    assert len(payload["reps"]) == 6


def test_classgroup_small_disc_edge(capsys, schema):
    code, payload = run_json(
        capsys, "classgroup", "--disc", "-3", "--level", "2", "--format", "json"
    )
    assert code == 0
    jsonschema.validate(payload, schema)
    assert len(payload["reps"]) == 1


def test_classgroup_invalid_disc_exit_2(capsys):
    code, _ = run_cli(capsys, "classgroup", "--disc", "-21", "--level", "3")
    assert code == cli.EXIT_USAGE


def _raise(exc):
    def fn(*args, **kwargs):
        raise exc

    return fn


@pytest.mark.parametrize(
    "target, exc, code",
    [
        ("class_enumerate", InvariantViolation("table is not a group"), cli.EXIT_INVARIANT),
        ("oracle_class_group", ResourceError("found 5 of 6 ray classes"), cli.EXIT_RESOURCE),
    ],
)
def test_internal_errors_exit_code_and_one_line(capsys, monkeypatch, target, exc, code):
    monkeypatch.setattr(cli, target, _raise(exc))
    got = cli.main(["classgroup", "--disc", "-200", "--level", "3", "--check-oracle"])
    captured = capsys.readouterr()
    assert got == code
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(exc) in lines[0]


def test_minpoly_bad_policy_fails_before_evaluation(capsys, monkeypatch):
    # an invalid precision policy is rejected before any invariant is evaluated
    monkeypatch.setattr(invariants, "g_ON", _raise(AssertionError("g_ON was called")))
    argv = ["minpoly", "--disc", "-200", "--level", "12"]
    for bad, word in [(["--max-escalations", "-1"], "max_escalations"), (["--digits", "0"], "precision")]:
        got = cli.main(argv + bad)
        captured = capsys.readouterr()
        assert got == cli.EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and word in lines[0]


@pytest.mark.parametrize(
    "command, option",
    [
        ("classgroup", "--threads"),
        ("minpoly", "--guard"),
        *((c, "--digits") for c in ("classgroup", "cartan")),
        *((c, "--seed") for c in ("classgroup", "minpoly", "lderiv", "cartan", "invariants")),
        *((c, "--norm-bound") for c in ("classgroup", "minpoly", "lderiv", "cartan", "invariants", "verify")),
        ("lderiv", "--character"),
    ],
)
def test_removed_option_is_rejected(capsys, command, option):
    where = ["small"] if command == "verify" else ["--disc", "-200", "--level", "3"]
    with pytest.raises(SystemExit):
        cli.main([command, *where, option, "2"])


def test_classgroup_text_table(capsys):
    code, out = run_cli(capsys, "classgroup", "--disc", "-200", "--level", "3")
    assert code == 0
    assert "g12" in out and "invariant factors: Z2 x Z6" in out


def test_minpoly_low_digits_still_recognizes(capsys, schema):
    # 100 digits leaves ~60 guard digits over the 70-digit coefficients
    code, payload = run_json(
        capsys, "minpoly", "--disc", "-200", "--level", "3",
        "--digits", "100", "--format", "json",
    )
    assert code == 0
    jsonschema.validate(payload, schema)
    assert payload["ok"] is True
    assert payload["coefficients"][1] == "-19732842623587344380"
    assert payload["coefficients"][-1] == "1"
    assert payload["degree"] == "12"


def test_minpoly_honest_failure_exit_3(capsys, schema):
    code, payload = run_json(
        capsys, "minpoly", "--disc", "-200", "--level", "3",
        "--digits", "30", "--max-escalations", "0", "--format", "json",
    )
    assert code == cli.EXIT_UNRECOGNIZED
    jsonschema.validate(payload, schema)
    assert payload["ok"] is False and payload["coefficients"] is None
    assert len(payload["unrecognized"]) == 13


def test_minpoly_failure_prints_strict_json(capsys, schema):
    # at 1 digit nearly every coefficient of (-4000, 7) is far past the pass's
    # precision; its residual must still be a finite JSON number, not the
    # Infinity that json.dumps prints for a float overflow
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    code, out = run_cli(
        capsys, "minpoly", "--disc", "-4000", "--level", "7",
        "--digits", "1", "--max-escalations", "0", "--format", "json",
    )
    payload = json.loads(out, parse_constant=reject)
    assert code == cli.EXIT_UNRECOGNIZED
    jsonschema.validate(payload, schema)
    assert len(payload["residuals"]) == 361
    assert max(payload["residuals"]) == sys.float_info.max


def test_minpoly_and_verify_paper_without_digits_use_the_probe(capsys, schema):
    code, payload = run_json(capsys, "minpoly", "--disc", "-200", "--level", "3", "--format", "json")
    assert code == 0
    jsonschema.validate(payload, schema)
    assert payload["ok"] is True and payload["escalations"] == "0"
    assert payload["coefficients"][1] == "-19732842623587344380"
    code, payload = run_json(capsys, "verify", "paper", "--format", "json")
    assert code == 0
    jsonschema.validate(payload, schema)
    assert payload["passed"] == payload["total"] == 5


def test_minpoly_info_log_leaves_stdout_unchanged(capsys, caplog):
    argv = ["minpoly", "--disc", "-200", "--level", "3", "--digits", "40", "--format", "json"]
    quiet = run_cli(capsys, *argv)
    with caplog.at_level(logging.INFO, logger="classfield"):
        loud = run_cli(capsys, *argv)
    assert quiet == loud and quiet[0] == cli.EXIT_OK
    passes = [r for r in caplog.records if r.getMessage().startswith("minpoly pass")]
    assert len(passes) == int(json.loads(loud[1])["escalations"]) + 1


def test_minpoly_prints_coefficients_past_the_int_string_limit(capsys, schema):
    # (-104, 7) has coefficients of up to 904 digits; str() refuses ints longer
    # than sys.get_int_max_str_digits()
    argv = ["minpoly", "--disc", "-104", "--level", "7"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, payload = run_json(capsys, *argv, "--format", "json")
        text_code, text = run_cli(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == text_code == cli.EXIT_OK
    jsonschema.validate(payload, schema)
    assert max(len(c) for c in payload["coefficients"]) > 640
    _, default = run_json(capsys, *argv, "--format", "json")
    assert payload["coefficients"] == default["coefficients"]
    shown = [line.split(": ")[1].split()[0] for line in text.splitlines() if line.startswith("  x^")]
    assert shown == default["coefficients"]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(-(10**6000), 10**6000),
        # halves with leading zeros: 10^k + small, 10^k - 1
        st.tuples(st.integers(600, 6000), st.integers(-1, 10**6), st.sampled_from([1, -1])).map(
            lambda t: t[2] * (10 ** t[0] + t[1])
        ),
    )
)
def test_int_str_matches_str_at_any_length(n):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = invariants._int_str(n)
    finally:
        sys.set_int_max_str_digits(0)
    try:
        assert got == str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_minpoly_rejects_level_one(capsys):
    code, _ = run_cli(capsys, "minpoly", "--disc", "-200", "--level", "1")
    assert code == cli.EXIT_USAGE


def test_lderiv_json(capsys, schema):
    code, payload = run_json(
        capsys, "lderiv", "--disc", "-200", "--level", "3",
        "--digits", "50", "--format", "json",
    )
    assert code == 0
    jsonschema.validate(payload, schema)
    assert len(payload["characters"]) == 12
    assert float(payload["inversion_residual"]) < 1e-40


def test_lderiv_prints_parts_below_accuracy_as_zero(capsys):
    # on (-200, 3) the trivial character's value and every imaginary part
    # cancel to about 1e-91, below the sum's 10^-60 absolute accuracy
    code, payload = run_json(
        capsys, "lderiv", "--disc", "-200", "--level", "3", "--digits", "60", "--format", "json"
    )
    assert code == 0
    chars = payload["characters"]
    assert chars["0"]["exponents"] == ["0"] * 12
    assert chars["0"]["lderiv0"] == "0.0+0.0j"
    assert all(c["lderiv0"].endswith("+0.0j") for c in chars.values())
    assert all(not c["lderiv0"].startswith("0.0") for k, c in chars.items() if k != "0")


def test_lderiv_inversion_residual_has_guard_digits(capsys):
    # the inversion runs at the guard digits of the L'(0, chi) sums, so it shows the
    # identity's residual (about 1e-90) and not rounding noise near 10^-60
    code, payload = run_json(
        capsys, "lderiv", "--disc", "-200", "--level", "3", "--digits", "60", "--format", "json"
    )
    assert code == 0
    assert float(payload["inversion_residual"]) < 1e-80


def test_lderiv_prints_the_residual_past_the_int_string_limit(capsys):
    # at full precision, nstr scales a residual near 10^-1230 through an int
    # longer than the limit; the residual is printed from a 53-bit copy
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, payload = run_json(
            capsys, "lderiv", "--disc", "-200", "--level", "3", "--digits", "1200", "--format", "json"
        )
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert mpmath.mpf(payload["inversion_residual"]) < mpmath.mpf(10) ** -1200


@pytest.mark.parametrize("D, N", [(-200, 3), (-116, 5)])
def test_lderiv_transform_prints_the_per_character_sums(capsys, D, N):
    # the walk transform against one n-term sum per character, with ln|g|
    # from one g_ON per class, and the inversion against the n^2 reference
    code, payload = run_json(
        capsys, "lderiv", "--disc", str(D), "--level", str(N), "--digits", "60", "--format", "json"
    )
    assert code == 0
    ctx = OrderContext.from_disc(D)
    G = class_enumerate(ctx, N)
    prec = working_bits(60)
    with mp.workprec(prec):
        logs = [mpmath.log(abs(invariants.g_ON(Q, ctx, N, 60).to_mpc())) for Q in G.reps]
    assert payload["per_class_log_g"] == [mpmath.nstr(x, 60) for x in logs]
    values = fourier_reference.lderiv0_values(G, ctx, logs, prec)
    tiny = mpmath.mpf(10) ** -60
    want = {str(k): cli._zero_below(v, tiny).to_decimal(60) for k, v in enumerate(values)}
    assert {k: c["lderiv0"] for k, c in payload["characters"].items()} == want
    assert float(payload["inversion_residual"]) < 1e-80
    with mp.workprec(prec):
        assert fourier_reference.fourier_inversion_residual(G, ctx, values, logs, prec) < mpmath.mpf(10) ** -80


@pytest.mark.parametrize(
    "argv",
    [
        *([c, "--digits", d] for c in ("lderiv", "invariants") for d in ("0", "-5")),
        # verify checks --digits on every battery, also where it ignores it
        *(["verify", b, "--digits", "-5"] for b in ("small", "paper", "full")),
        ["verify", "small", "--digits", "0"],
        ["minpoly", "--digits", "0"],
        ["minpoly", "--max-escalations", "-1"],
        # a later --level replaces the 3 given before it; cartan and
        # invariants need level >= 2
        *([c, "--level", "0"] for c in ("classgroup", "minpoly", "lderiv", "cartan", "invariants")),
        *([c, "--level", "1"] for c in ("cartan", "invariants")),
    ],
)
def test_out_of_range_option_exit_2_with_one_line(capsys, argv):
    # verify takes no group
    command, *rest = argv
    where = [] if command == "verify" else ["--disc", "-200", "--level", "3"]
    code = cli.main([command, *where, *rest])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


FUZZ_DISCS = [-3, -4, -12, -27, -71, -200, 0, 5, -1, -6]
# small values from -1 up, and "x", which argparse rejects with exit 2
FUZZ_VALUES = st.integers(-1, 7).map(lambda k: "x" if k == 7 else str(k))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["classgroup", "minpoly", "lderiv", "cartan", "invariants"]))
    argv = [command, "--disc", str(draw(st.sampled_from(FUZZ_DISCS)))]
    argv += ["--level", str(draw(st.integers(-1, 12)))]
    if command == "classgroup":
        if draw(st.booleans()):
            argv.append("--check-oracle")
    elif command == "minpoly":
        argv += ["--digits", draw(FUZZ_VALUES)]
        argv += ["--max-escalations", str(draw(st.integers(-1, 1)))]
    elif command in ("lderiv", "invariants"):
        argv += ["--digits", draw(FUZZ_VALUES)]
        if command == "invariants":
            argv += ["--family", draw(st.sampled_from(["siegel", "fricke", "j"]))]
    return argv + ["--format", draw(st.sampled_from(["text", "json"]))]


@settings(max_examples=50, deadline=None)
@given(argv=cli_argv())
def test_cli_fuzz_exits_with_documented_code_and_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_UNRECOGNIZED, cli.EXIT_RESOURCE), argv
    assert len(errors) == (1 if code in (cli.EXIT_USAGE, cli.EXIT_RESOURCE) else 0), argv


def test_cartan_json(capsys, schema):
    code, payload = run_json(
        capsys, "cartan", "--disc", "-200", "--level", "3", "--format", "json"
    )
    assert code == 0
    jsonschema.validate(payload, schema)
    assert payload["orders"] == {"W": "4", "U": "2", "What": "8", "units": "4"}
    assert payload["check_WUOG"] is True


def test_cartan_builds_groups_once(capsys, monkeypatch):
    calls = {"cartan_groups": 0, "unit_group": 0}
    for name in calls:
        fn = getattr(cartan, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(cartan, name, counted)
    code, payload = run_json(capsys, "cartan", "--disc", "-200", "--level", "5", "--format", "json")
    assert code == 0 and payload["check_WUOG"] is True
    assert calls == {"cartan_groups": 1, "unit_group": 1}


def test_invariants_json(capsys, schema):
    code, payload = run_json(
        capsys, "invariants", "--disc", "-200", "--level", "3",
        "--digits", "40", "--format", "json",
    )
    assert code == 0
    jsonschema.validate(payload, schema)
    assert len(payload["values"]) == 12


def test_invariants_evaluates_once_per_conjugate_pair(capsys, monkeypatch):
    # (-180, 8) has 64 classes: 16 self-conjugate and 24 conjugate pairs
    calls = []
    counted = invariants.class_invariant

    def counting(*args):
        calls.append(args[1])
        return counted(*args)

    monkeypatch.setattr(invariants, "class_invariant", counting)
    code, payload = run_json(
        capsys, "invariants", "--disc", "-180", "--level", "8", "--digits", "20", "--format", "json"
    )
    assert code == 0 and len(payload["values"]) == 64
    assert len(calls) == 40


def test_invariants_prints_parts_below_accuracy_as_zero(capsys):
    # j of a class whose reduced form is ambiguous is real; its computed
    # imaginary part is about 1e-62 of |j| at 30 digits, below the accuracy
    code, payload = run_json(
        capsys, "invariants", "--disc", "-200", "--level", "3", "--family", "j",
        "--digits", "30", "--format", "json",
    )
    assert code == 0
    parts = [re.fullmatch(r"(.+?)([+-][^+-]*(?:e[+-][0-9]+)?)j", v).groups() for v in payload["values"]]
    assert sum(im == "+0.0" for _, im in parts) == 4
    for x, y in parts:
        assert float(y) == 0 or abs(float(y)) >= 1e-30 * abs(complex(float(x), float(y)))


def test_verify_unknown_battery_exit_2(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "bogus"])


def test_run_battery_unknown_name_is_domain_error():
    with pytest.raises(DomainError):
        verify.run_battery("bogus")


def test_verify_does_not_hide_key_errors_inside_checks(monkeypatch):
    # a KeyError raised by a check is a fault of that check, not an unknown battery
    monkeypatch.setattr(verify, "battery_small", _raise(KeyError("small")))
    with pytest.raises(KeyError):
        cli.main(["verify", "small"])


def test_verify_paper_battery_json(capsys, schema):
    code, payload = run_json(
        capsys, "verify", "paper", "--digits", "160", "--format", "json"
    )
    assert code == 0
    jsonschema.validate(payload, schema)
    assert payload["passed"] == payload["total"] == 5


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "classgroup", "--disc", "-56", "--level", "4", "--format", "json")
    _, out2 = run_cli(capsys, "classgroup", "--disc", "-56", "--level", "4", "--format", "json")
    assert out1 == out2


NO_SYMPY_SCRIPT = """
import sys
from classfield import cli
from classfield.lfunctions import zeta_ideal_partial_all
from classfield.numerics import BigComplex
from classfield.quadforms import OrderContext
assert cli.main(["classgroup", "--disc", "-200", "--level", "3", "--check-oracle", "--format", "json"]) == 0
zeta_ideal_partial_all(OrderContext.from_disc(-200), 3, BigComplex(2, 0, 200), 2000)
assert "sympy" not in sys.modules, "sympy was imported"
"""


def test_oracle_and_ideal_zeta_do_not_import_sympy():
    # a fresh interpreter, so no other test's imports are in sys.modules
    src = os.path.dirname(os.path.dirname(classfield.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
