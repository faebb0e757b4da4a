import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import classfield
from classfield import cartan, cli, verify
from classfield.numerics import DomainError, InvariantViolation, ResourceError


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


@pytest.mark.parametrize(
    "command, option",
    [
        ("classgroup", "--threads"),
        *((c, "--digits") for c in ("classgroup", "cartan")),
        *((c, "--seed") for c in ("classgroup", "minpoly", "lderiv", "cartan", "invariants")),
        *((c, "--norm-bound") for c in ("minpoly", "lderiv", "cartan", "invariants")),
    ],
)
def test_removed_option_is_rejected(capsys, command, option):
    with pytest.raises(SystemExit):
        cli.main([command, "--disc", "-200", "--level", "3", option, "2"])


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
