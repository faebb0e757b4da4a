import importlib.util
import json
import math
from pathlib import Path

import pytest

# the package and every module that declares __all__
EXPORTING = [
    "classfield",
    *(f"classfield.{m}" for m in ("cartan", "invariants", "lfunctions", "modfun", "numerics", "orderideals", "quadforms")),
]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def _perfbench_layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_perfbench_traced_names_exist():
    # the tracer wraps layer functions by name, so a renamed one would read as 0;
    # canonical_form, principal_generator and lderiv0 are gone and still listed there
    layers = _perfbench_layers()
    missing = [
        f"{module}.{name}"
        for table in (layers.SPANS, layers.GENERATORS)
        for module, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"classfield.{module}"), name, None))
    ]
    assert missing == ["quadforms.canonical_form", "orderideals.principal_generator", "lfunctions.lderiv0"]


def test_perfbench_zeta_job_runs_on_the_public_api(capsys, monkeypatch):
    # the benchmark's zeta job builds BigComplex(s, 0, bits) and reads .value.re
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    spec = importlib.util.spec_from_file_location("perfbench_job", perfbench / "job.py")
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    assert job._zeta({"disc": -200, "level": 3, "s": 2, "digits": 30, "norm_bound": 200, "box": 10}) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows["ideal"]) == len(rows["lattice"]) == 12
    assert all(math.isfinite(r["value"]) for r in rows["ideal"] + rows["lattice"])
