"""One rule for a number from outside the program: an int, a float or a NumPy
integer or floating scalar, never a bool or a string.  Every entry point that
takes a number holds to it, and the circuit JSON reader agrees with the API."""

import json

import numpy as np
import pytest

from dickesim import (
    Ansatz,
    Circuit,
    CircuitParseError,
    DomainError,
    GateSpec,
    OptimizerConfig,
    build_ledger,
    circuit_from_json,
    collective_dimension,
    cost,
    css_state,
    degeneracy,
    depolarize,
    excited_state,
    expval,
    fit,
    fubini_study_metric,
    ghz_state,
    grad_findiff,
    ground_state,
    husimi_grid,
    sample,
)
from dickesim.bench import layer_seconds
from dickesim.errors import (
    DegenerateFrameError,
    NumericError,
    ResourceError,
    UnsupportedConfigError,
)

ENTRY_POINTS = {
    "GateSpec param": lambda v: GateSpec("RX", (v,)),
    "GateSpec noise": lambda v: GateSpec("RX", (0.1,), noise=v),
    "OptimizerConfig learning_rate": lambda v: OptimizerConfig("gd", v),
    "OptimizerConfig tolerance": lambda v: OptimizerConfig("gd", 0.1, tolerance=v),
    "OptimizerConfig eps_fd": lambda v: OptimizerConfig("gd", 0.1, eps_fd=v),
    "grad_findiff eps_fd": lambda v: grad_findiff(lambda t: 0.0, np.zeros(3), v),
    "fubini_study_metric eps_fd": lambda v: fubini_study_metric(np.zeros(3), Ansatz(4), v),
    "depolarize": lambda v: depolarize(ground_state(2), v),
    "fit initial": lambda v: fit(Ansatz(4), OptimizerConfig("gd", 0.1, max_iter=1), [v, 0.0, 0.0]),
    "cost theta": lambda v: cost([0.0, v, 0.0], Ansatz(4)),
    "Ansatz.build theta": lambda v: Ansatz(4).build([0.0, 0.0, v]),
    "css_state theta": lambda v: css_state(4, v, 0.0),
    "css_state phi": lambda v: css_state(4, 0.3, v),
    "husimi_grid theta": lambda v: husimi_grid(ground_state(2), [0.1, v], [0.0]),
    "husimi_grid phi": lambda v: husimi_grid(ground_state(2), [0.1], [0.0, v]),
}


@pytest.mark.parametrize("value", [True, False, "0.3"], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bool_or_string_is_not_a_number(entry, value):
    with pytest.raises(DomainError, match="must be a number"):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_numpy_scalars_are_numbers(entry):
    for value in (np.float32(0.25), np.float64(0.25), np.int64(0)):
        try:
            ENTRY_POINTS[entry](value)
        except DomainError as exc:  # a range rule may refuse 0, never the type
            assert "must be a number" not in str(exc)


@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an integer, got True"),
    (-1, "seed must be >= 0, got -1"),
    (2.5, "seed must be an integer, got 2.5"),
])
def test_fit_seed_is_an_integer(seed, message):
    # NumPy's ValueError or TypeError before, or a bool taken as 1
    config = OptimizerConfig("gd", 0.1, max_iter=1)
    for initial in (None, [0.0, 0.0, 0.0]):
        with pytest.raises(DomainError, match=message):
            fit(Ansatz(4), config, initial=initial, seed=seed)


@pytest.mark.parametrize("layers, repeats", [(2.5, 1), (True, 1), (1, 2.5), (1, "3")])
def test_layer_seconds_counts_are_integers(layers, repeats):
    with pytest.raises(DomainError, match="must be an integer"):
        layer_seconds(4, None, layers, repeats)


# The number positions above, plus every particle count and block label;
# work counts (shots, max_iter, layers, steps) are left out, since a huge
# one is valid input that asks for unbounded work.
POSITIONS = {
    **ENTRY_POINTS,
    "build_ledger": build_ledger,
    "collective_dimension": collective_dimension,
    "ground_state": ground_state,
    "excited_state": excited_state,
    "ghz_state": ghz_state,
    "css_state n": lambda v: css_state(v, 0.3, 0.2),
    "Ansatz": Ansatz,
    "Circuit": lambda v: Circuit(v, ()),
    "degeneracy n": lambda v: degeneracy(v, 0.5),
    "degeneracy j": lambda v: degeneracy(4, v),
    "state.block": lambda v: ground_state(4).block(v),
    "GateSpec kind": lambda v: GateSpec(v, (0.1,)),
    "GateSpec params": lambda v: GateSpec("RX", v),
    "Circuit instructions": lambda v: Circuit(4, [v]),
    "expval observable": lambda v: expval(ground_state(2), v),
    "OptimizerConfig kind": lambda v: OptimizerConfig(v, 0.1),
    "Ansatz reading": lambda v: Ansatz(4, v),
    "sample seed": lambda v: sample(ground_state(2), 1, v),
    "fit seed": lambda v: fit(Ansatz(2), OptimizerConfig("gd", 0.1, max_iter=1), seed=v),
}

ODD_VALUES = {"True": True, "'1.0'": "1.0", "None": None, "[0.3]": [0.3], "nan": np.nan,
              "inf": np.inf, "-inf": -np.inf, "-1": -1, "0": 0, "10**400": 10**400,
              "float32": np.float32(0.5), "1j": 1j, "10**5000": 10**5000,
              "-10**5000": -(10**5000), "[10**5000]": [10**5000]}
ERRORS = (DomainError, CircuitParseError, NumericError, ResourceError,
          DegenerateFrameError, UnsupportedConfigError)  # all of errors.py


@pytest.mark.parametrize("value", ODD_VALUES.values(), ids=ODD_VALUES)
@pytest.mark.parametrize("entry", sorted(POSITIONS))
def test_odd_values_return_or_raise_a_package_error(entry, value):
    try:
        POSITIONS[entry](value)
    except ERRORS:
        pass


# A work count past 4300 digits below its least is refused before any work,
# and its message does not try to print it.
WORK_COUNTS = {
    "sample shots": lambda v: sample(ground_state(2), v, 0),
    "OptimizerConfig max_iter": lambda v: OptimizerConfig("gd", 0.1, max_iter=v),
    "layer_seconds layers": lambda v: layer_seconds(4, None, v, 1),
    "layer_seconds repeats": lambda v: layer_seconds(4, None, 1, v),
}


@pytest.mark.parametrize("entry", sorted(WORK_COUNTS))
def test_negative_work_count_past_4300_digits_raises_domain_error(entry):
    with pytest.raises(DomainError, match="must be >= 1, got a negative 16610-bit integer"):
        WORK_COUNTS[entry](-(10**5000))


VALUES = [0.3, 1, -2, 1e308, 10**400, True, False, "0.3", None, [0.3]]


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("field", ["params", "noise"])
def test_json_reader_agrees_with_gatespec(field, value):
    gate = {"kind": "RX", "params": [0.1]}
    gate[field] = [value] if field == "params" else value
    try:
        GateSpec(**{**gate, "params": tuple(gate["params"])})
        api_rejects = False
    except DomainError:
        api_rejects = True
    text = json.dumps({"n": 2, "gates": [{"kind": "RZ", "params": [0.2]}, gate]})
    try:
        circuit_from_json(text)
        json_rejects = False
    except CircuitParseError as exc:
        assert str(exc).startswith("gate #2: ")
        json_rejects = True
    assert api_rejects == json_rejects
