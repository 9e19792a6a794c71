"""The benchmark tracer's hold on the program.

``perfbench/tracing.py`` wraps program functions by name and its counters read
some arguments by parameter name, so a rename in the program would only show
up as a failing ``--trace 1`` benchmark run.  The tracer is loaded here from
its file and only read: ``install()`` is never called.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (module, function) -> the (position, name) of each argument a counter reads
COUNTED_PARAMETERS = {
    ("dickesim.gates", "apply_gate"): ((0, "state"), (1, "spec")),
    ("dickesim.gates", "generator"): ((1, "ledger"),),
    ("dickesim.gates", "exponentiate"): ((0, "operator"),),
    ("dickesim.cli", "_emit"): ((0, "text"),),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_binds(tracing):
    for layer, (module, names) in tracing.LAYERS.items():
        found = importlib.import_module(module)
        for name in names:
            assert callable(getattr(found, name, None)), f"{layer}: {module}.{name} is gone"


@pytest.mark.parametrize("where", sorted(COUNTED_PARAMETERS), ids=lambda w: w[1])
def test_counted_parameters_keep_their_names(tracing, where):
    module, name = where
    assert name in tracing.COUNTERS
    params = list(inspect.signature(getattr(importlib.import_module(module), name)).parameters)
    for pos, param in COUNTED_PARAMETERS[where]:
        assert params[pos] == param, f"{module}.{name} parameter {pos} is {params[pos]!r}"
