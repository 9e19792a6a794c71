"""Shared helpers: state invariants and random circuit generation."""

import numpy as np
import pytest

from dickesim import Circuit, CollectiveState, GateSpec, build_ledger

CATALOG = (
    "RX", "RY", "RZ", "RN", "R_PLUS", "R_MINUS",
    "RX2", "RY2", "RZ2", "OAT", "TAT", "TNT", "GMS",
)
AXES_SINGLE = ("x", "y", "z")
AXES_ALL = ("x", "y", "z", "plus", "minus")


def assert_valid_state(state, atol=1e-10):
    """Trace one, Hermitian blocks, PSD blocks.  A ket's psi psi^dagger is
    Hermitian and PSD by construction, so a ket is checked by its norm alone
    and rho_j is not built."""
    assert abs(state.trace() - 1.0) < atol, f"trace {state.trace()}"
    if state._ket is not None:
        return
    for j in state.active_js:
        rho = state.block(j)
        assert np.allclose(rho, rho.conj().T, atol=atol), f"block j={j} not Hermitian"
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -atol, f"block j={j} has eigenvalue {evals.min()}"


def random_full_state(rng, n):
    """Random PSD blocks on every block of the ledger, unit trace."""
    ledger = build_ledger(n)
    blocks = {}
    for b in ledger.blocks:
        a = rng.normal(size=(b.dim, b.dim)) + 1j * rng.normal(size=(b.dim, b.dim))
        blocks[b.j] = a @ a.conj().T
    total = sum(np.trace(m).real for m in blocks.values())
    return CollectiveState(ledger, {j: m / total for j, m in blocks.items()})


def random_gate(rng, noise=None):
    kind = CATALOG[rng.integers(len(CATALOG))]
    n_params, axes_arity = {
        "RX": (1, 0), "RY": (1, 0), "RZ": (1, 0), "RN": (2, 0),
        "R_PLUS": (1, 0), "R_MINUS": (1, 0),
        "RX2": (1, 0), "RY2": (1, 0), "RZ2": (1, 0),
        "OAT": (1, 1), "TAT": (1, 2), "TNT": (2, 2), "GMS": (2, 0),
    }[kind]
    params = list(rng.uniform(-np.pi, np.pi, size=n_params))
    if kind == "TNT":
        params[1] = rng.uniform(1.0, 5.0)  # coupling Lambda, kept away from 0
    axes = None
    if axes_arity == 1:
        axes = AXES_SINGLE[rng.integers(3)]
    elif axes_arity == 2:
        pick = rng.choice(len(AXES_ALL), size=2, replace=False)
        axes = ",".join(AXES_ALL[i] for i in pick)
    return GateSpec(kind, tuple(params), axes=axes, noise=noise)


def random_circuit(rng, n, n_gates=5, noise=None):
    return Circuit(n, tuple(random_gate(rng, noise=noise) for _ in range(n_gates)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
