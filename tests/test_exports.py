import importlib

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
