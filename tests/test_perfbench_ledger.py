"""The benchmark's per-layer ledger still finds every entry point it wraps.

``perfbench/ledger.py`` wraps each layer's entry point by name, at class
level, before any engine is built.  A rename of a wrapped method would
otherwise surface only as a crash of a traced benchmark run; this test
resolves every ``LAYERS`` entry exactly the way the ledger's ``_patch``
does, without wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LEDGER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "ledger.py"


def _load_ledger():
    spec = importlib.util.spec_from_file_location("perfbench_ledger", LEDGER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_ledger().LAYERS


@pytest.mark.parametrize(
    "layer,module_name,path", LAYERS, ids=[f"{m}:{p}" for _, m, p in LAYERS]
)
def test_layer_entry_point_resolves(layer, module_name, path):
    entry = f"{layer}: {module_name} {path}"
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    assert owner is not None, f"{entry}: {module_name} has no {owner_name!r}"
    # ``_patch`` reads the attribute from the owner's own namespace: an
    # inherited method would be wrapped on the wrong class.
    assert attr in owner.__dict__, f"{entry}: {attr!r} is not defined on {owner!r}"
    assert callable(owner.__dict__[attr]), f"{entry}: {attr!r} is not callable"


def test_ledger_lists_layers():
    assert LAYERS, "perfbench/ledger.py defines no layers"
