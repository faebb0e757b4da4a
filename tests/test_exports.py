import importlib.util
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
    # canonical_form is gone and still listed there
    layers = _perfbench_layers()
    missing = [
        f"{module}.{name}"
        for table in (layers.SPANS, layers.GENERATORS)
        for module, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"classfield.{module}"), name, None))
    ]
    assert missing == ["quadforms.canonical_form"]
