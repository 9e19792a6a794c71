"""Full 2^N-space reference simulator: structure checks and self-consistency."""

import numpy as np
import pytest

from dickesim import (
    Circuit,
    GateSpec,
    ResourceError,
    build_ledger,
    degeneracy,
)
from dickesim.oracle import (
    FULL_SPACE_CAP,
    extract_collective,
    full_collective_ops,
    full_run,
    ground_density,
    jm_projectors,
)


def test_collective_ops_algebra():
    ops = full_collective_ops(3)
    x, y, z = ops["x"], ops["y"], ops["z"]
    assert np.allclose(x @ y - y @ x, 1j * z)
    assert np.allclose(ops["plus"], x + 1j * y)


def test_j2_eigenvalues_n2():
    ops = full_collective_ops(2)
    j2 = ops["x"] @ ops["x"] + ops["y"] @ ops["y"] + ops["z"] @ ops["z"]
    evals = np.sort(np.linalg.eigvalsh(j2))
    # one singlet (j=0) and one triplet (j=1): eigenvalues {0, 2, 2, 2}
    assert np.allclose(evals, [0.0, 2.0, 2.0, 2.0], atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_projectors_complete_and_consistent(n):
    projs = jm_projectors(n)
    led = build_ledger(n)
    total = np.zeros((2**n, 2**n), dtype=complex)
    for (j, m), p in projs.items():
        assert j in led.js
        assert abs(m) <= j + 1e-12
        # projector onto the (j, m) eigenspace has rank = multiplicity of j
        assert np.trace(p).real == pytest.approx(degeneracy(n, j), abs=1e-8)
        assert np.allclose(p @ p, p, atol=1e-8)
        total += p
    assert np.allclose(total, np.eye(2**n), atol=1e-8)


def test_ground_density():
    rho = ground_density(2)
    assert rho[3, 3] == 1.0  # |11> = all spins down
    assert np.trace(rho) == pytest.approx(1.0)


def test_full_run_cap():
    circ = Circuit(FULL_SPACE_CAP + 1, (GateSpec("RX", (0.1,)),))
    with pytest.raises(ResourceError):
        full_run(circ)


def test_extract_collective_ground():
    rho = ground_density(3)
    out = extract_collective(rho, 3)
    assert out["probs"][(1.5, -1.5)] == pytest.approx(1.0, abs=1e-12)
    assert out["expvals"]["Jz"] == pytest.approx(-1.5)
    assert out["expvals"]["Jx2"] == pytest.approx(0.75)  # N/4
    assert out["xi2_S"] is not None and out["xi2_S"] == pytest.approx(1.0, abs=1e-9)


def test_extract_collective_probs_sum():
    circ = Circuit(4, (GateSpec("RN", (0.8, 0.3)), GateSpec("OAT", (0.5,), axes="z", noise=0.1)))
    out = extract_collective(full_run(circ), 4)
    assert sum(out["probs"].values()) == pytest.approx(1.0, abs=1e-10)
