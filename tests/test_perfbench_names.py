"""The benchmark's per-layer metrics name hierwalk functions; keep those names alive.

``perfbench/spans.py`` derives busy times, call counts and self times from
spans recorded under ``<layer>.<function>`` names. A rename or a function
turned private would silently zero such a metric, so every exact name it
uses must still be a public function of its module.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exact_names(spans):
    names = {name for group in spans.BUSY_GROUPS.values() for name in group}
    for table in (spans.COUNTS, spans.SELF_TIMES):
        for key, predicate in table.items():
            target = key.rsplit(".", 1)[0]
            if "." in target:  # "<layer>.<function>.<stat>"; "<layer>.<stat>" matches a prefix
                assert predicate(target), key
                names.add(target)
    return sorted(names)


@pytest.mark.parametrize("name", _exact_names(_load_spans()))
def test_traced_name_is_a_public_function(name):
    spans = _load_spans()
    layer, function = name.split(".")
    assert layer in spans.LAYERS
    module = importlib.import_module(f"hierwalk.{layer}")
    assert function in spans.public_functions(module), name
