"""The active-block kernel against a dense per-block reference.

``apply_gate`` builds generators only on the blocks a state occupies, applies
diagonal gates as phases, and reads moments from block diagonals.  The
reference here is the dense path: each block's generator composed by the gate
recipe from that block's dense ``op_j*`` matrices, each active block
conjugated by a dense exponential of it (eigh or expm), and expectation values
taken as dense traces sum_j tr(rho_j O_j).
"""

import sys

import numpy as np
import pytest
from scipy.linalg import expm

from dickesim import (
    CollectiveState,
    DegenerateFrameError,
    OBSERVABLES,
    apply_circuit,
    apply_gate,
    build_ledger,
    css_state,
    depolarize,
    expval,
    get_xi_2_R,
    get_xi_2_S,
    ground_state,
    husimi_grid,
    mean_spin_frame,
)
from dickesim import dicke
from dickesim.dicke import op_jminus, op_jplus, op_jx, op_jy, op_jz
from dickesim.errors import NumericError
from dickesim.gates import Circuit, GateSpec, _recipe, exponentiate, generator

from conftest import CATALOG, random_gate

TOL = 1e-12


def block_ops(ledger, j):
    """The dense spin operators of block j, keyed as the gate recipes read them."""
    return {
        "x": op_jx(ledger)[j],
        "y": op_jy(ledger)[j],
        "z": op_jz(ledger)[j],
        "plus": op_jplus(ledger)[j],
        "minus": op_jminus(ledger)[j],
    }


def dense_exponential(g, angle, hermitian):
    """exp(-i angle g) of one dense block: eigh for Hermitian g, expm else."""
    if hermitian:
        w, v = np.linalg.eigh(g)
        return (v * np.exp(-1j * angle * w)) @ v.conj().T
    return expm(-1j * angle * g)


def reference_apply_gate(state, spec):
    """K rho K^dag with K from each block's dense generator, then
    renormalization and noise exactly as the catalog defines them."""
    build, angle, herm, _ = _recipe(spec, state.n_particles)
    blocks = {}
    for j, rho in state.items():
        k = dense_exponential(build(block_ops(state.ledger, j)), angle, herm)
        blocks[j] = k @ rho @ k.conj().T
    conditional = state.conditional
    if not herm:
        total = sum(np.trace(b).real for b in blocks.values())
        if not np.isfinite(total) or total <= 0.0:
            raise NumericError("unnormalizable")
        blocks = {j: b / total for j, b in blocks.items()}
        conditional = True
    out = CollectiveState(state.ledger, blocks, conditional)
    if spec.noise:
        out = depolarize(out, spec.noise)
    return out


def random_mixed_state(rng, n):
    """Random PSD blocks on a random proper subset of the ledger (when there
    is more than one block), so inactive blocks exist and must stay empty."""
    ledger = build_ledger(n)
    count = len(ledger.js)
    k = 1 if count == 1 else int(rng.integers(1, count))
    picked = rng.choice(count, size=k, replace=False)
    blocks = {}
    for i in picked:
        b = ledger.blocks[i]
        a = rng.normal(size=(b.dim, b.dim)) + 1j * rng.normal(size=(b.dim, b.dim))
        blocks[b.j] = a @ a.conj().T
    total = sum(np.trace(m).real for m in blocks.values())
    return CollectiveState(ledger, {j: m / total for j, m in blocks.items()})


def dense_expectation(build, state):
    """sum_j tr(rho_j O_j), with O_j = build(the dense operators of block j)."""
    return complex(
        sum(np.trace(rho @ build(block_ops(state.ledger, j))) for j, rho in state.items())
    )


def dense_observables():
    names = {"Jx": "x", "Jy": "y", "Jz": "z", "J_plus": "plus", "J_minus": "minus"}
    table = {}
    for name, axis in names.items():
        table[name] = lambda o, a=axis: o[a]
        table[name + "2"] = lambda o, a=axis: o[a] @ o[a]
    return table


def dense_xi2(state, frame):
    """The squeezing parameters from dense direction operators n . J in the
    given mean-spin frame.  The frame is taken from the engine because its
    angles are ill-conditioned when |<J>| is small; <J> itself is checked
    through the observables."""
    n2, n3 = frame.n2, frame.n3

    def jn2(o):
        return n2[0] * o["x"] + n2[1] * o["y"] + n2[2] * o["z"]

    def jn3(o):
        return n3[0] * o["x"] + n3[1] * o["y"] + n3[2] * o["z"]

    e2, e3 = dense_expectation(jn2, state).real, dense_expectation(jn3, state).real
    s22 = dense_expectation(lambda o: jn2(o) @ jn2(o), state).real
    s33 = dense_expectation(lambda o: jn3(o) @ jn3(o), state).real
    cross = 0.5 * dense_expectation(lambda o: jn2(o) @ jn3(o) + jn3(o) @ jn2(o), state).real
    cov = cross - e2 * e3
    root = np.sqrt((s22 - s33) ** 2 + 4.0 * cov**2)
    xi_s = 2.0 / state.n_particles * (s22 + s33 - root)
    return xi_s, (state.n_particles / (2.0 * frame.j_norm)) ** 2 * xi_s


def assert_states_close(a, b):
    assert a.active_js == b.active_js
    assert a.conditional == b.conditional
    for j, rho in a.items():
        np.testing.assert_allclose(rho, b.block(j), rtol=0, atol=TOL)


def assert_moments_close(state):
    dense = dense_observables()
    assert set(dense) == set(OBSERVABLES)
    for name, build in dense.items():
        want = dense_expectation(build, state)
        got = expval(state, name)
        if isinstance(got, float):
            want = want.real
        assert abs(got - want) <= TOL * max(1.0, abs(want))
    try:
        got_s, got_r = get_xi_2_S(state), get_xi_2_R(state)
    except DegenerateFrameError:
        return
    want_s, want_r = dense_xi2(state, mean_spin_frame(state))
    assert got_s == pytest.approx(want_s, rel=TOL, abs=TOL)
    assert got_r == pytest.approx(want_r, rel=TOL, abs=TOL)


def hermiticity_drift(state):
    return max(np.abs(rho - rho.conj().T).max() for _, rho in state.items())


@pytest.mark.parametrize("noise", [None, 0.05, 0.3])
def test_random_circuits_match_all_block_path(noise):
    rng = np.random.default_rng({None: 31, 0.05: 32, 0.3: 33}[noise])
    seen, checked, ill = set(), 0, 0
    for n in (1, 2, 3, 6, 11, 24, 41, 64):
        for _ in range(3):
            state = random_mixed_state(rng, n)
            ref = state
            specs = [random_gate(rng, noise=noise) for _ in range(6)]
            for spec in specs:
                try:
                    ref = reference_apply_gate(ref, spec)
                except NumericError:
                    break
                seen.add(spec.kind)
            else:
                got = apply_circuit(Circuit(n, tuple(specs)), state)
                drift = hermiticity_drift(ref)
                if drift > TOL:
                    # A conditional gate at a large angle: K spans many decades,
                    # K rho K^dag cancels catastrophically, and the reference
                    # itself is only good to its Hermiticity drift.
                    ill += 1
                    diff = max(np.abs(rho - ref.block(j)).max() for j, rho in got.items())
                    assert got.active_js == ref.active_js and diff <= 100.0 * drift
                    continue
                checked += 1
                assert_states_close(got, ref)
                assert_moments_close(got)
    assert seen == set(CATALOG)
    assert ill <= checked // 4


# one gate of each catalog kind; TAT takes a ladder axis, so it is conditional
ONE_PER_KIND = (
    GateSpec("RX", (0.7,)),
    GateSpec("RY", (-1.3,)),
    GateSpec("RZ", (2.1,)),
    GateSpec("RN", (0.9, 2.1)),
    GateSpec("R_PLUS", (0.4,)),
    GateSpec("R_MINUS", (-0.3,)),
    GateSpec("RX2", (0.4,)),
    GateSpec("RY2", (-0.6,)),
    GateSpec("RZ2", (1.1,)),
    GateSpec("OAT", (0.3,), axes="x"),
    GateSpec("TAT", (0.2,), axes="z,plus"),
    GateSpec("TNT", (0.35, 2.5), axes="zx"),
    GateSpec("GMS", (0.45, 0.8)),
)


def forms_k(spec):
    """Whether apply_gate forms K_j for this gate on rho: every generator but
    the parity- and flip-split ones, which take the factored update
    (test_gate_cache.py::test_split_gate_on_rho_matches_dense_eigh)."""
    gen, _ = generator(spec, build_ledger(2))
    return not (gen.split or gen.flip)


@pytest.mark.parametrize("spec", [s for s in ONE_PER_KIND if forms_k(s)], ids=lambda s: s.kind)
def test_apply_gate_conjugates_by_exponentiate(spec):
    # apply_gate and exponentiate share one per-block update, so
    # (K (K rho)^dag)^dag with K from exponentiate (then the conditional
    # renormalization) is apply_gate's state bit for bit.  A generator with
    # band offsets {0} gives a diagonal K = diag(p), applied as the product
    # with p.
    assert {s.kind for s in ONE_PER_KIND} == set(CATALOG)
    state = random_mixed_state(np.random.default_rng(17), 7)
    gen, angle = generator(spec, state.ledger, state.active_js)
    kmats = exponentiate(gen, angle)
    assert tuple(kmats) == state.active_js
    want = {}
    for j, x in state.items():
        k = kmats[j]
        if gen.offsets == {0}:
            assert np.array_equal(k, np.diag(k.diagonal()))
            k = k.diagonal()[:, None]
        for _ in range(2):
            x = k * x if gen.offsets == {0} else k @ x
            x = np.conjugate(x.T, order="C")
        want[j] = x
    if not gen.hermitian:
        total = sum(np.trace(b).real for b in want.values())
        want = {j: b / total for j, b in want.items()}
    got = apply_gate(state, spec)
    assert got.active_js == state.active_js
    assert got.conditional == (not gen.hermitian)
    for j, rho in got.items():
        assert np.array_equal(rho, want[j]), f"block j = {j} differs"


def test_engine_path_builds_no_dense_spin_matrix(monkeypatch):
    # Generators are built from the per-2j bands; the dense spin matrices are
    # only the reference form, so every kind, the channel, the moments and
    # the Husimi grid run with them unavailable.
    def refuse(*args, **kwargs):
        raise AssertionError("dense spin matrices were built")

    for name, module in list(sys.modules.items()):
        if name.startswith("dickesim") and hasattr(module, "spin_matrices"):
            monkeypatch.setattr(module, "spin_matrices", refuse)
    state = random_mixed_state(np.random.default_rng(23), 9)
    for spec in ONE_PER_KIND:
        state = apply_gate(state, spec)
    state = depolarize(state, 0.2)
    for name in OBSERVABLES:
        expval(state, name)
    assert husimi_grid(state, np.linspace(0.0, np.pi, 3), np.linspace(0.0, 6.0, 4)).shape == (3, 4)


def test_diagonal_gates_are_phases():
    # random_gate never draws TAT(zz) or TNT(zz): repeated axes are listed here
    rng = np.random.default_rng(7)
    state = random_mixed_state(rng, 9)
    for spec in (
        GateSpec("RZ", (0.7,)),
        GateSpec("RZ2", (-1.3,)),
        GateSpec("OAT", (0.4,), axes="z"),
        GateSpec("TAT", (0.4,), axes="zz"),
        GateSpec("TNT", (0.9, 2.5), axes="zz"),
    ):
        got = apply_circuit(Circuit(9, (spec,)), state)
        assert_states_close(got, reference_apply_gate(state, spec))
        for j, rho in got.items():
            np.testing.assert_allclose(rho.diagonal(), state.block(j).diagonal(), atol=TOL)


def test_large_n_squeezing_builds_no_all_block_operator(monkeypatch):
    # At N = 1000 the ledger has 501 blocks; the five all-block operators
    # alone would hold about 12 GiB.  Any all-block operator built here fails.
    def refuse(*args, **kwargs):
        raise AssertionError("an all-block operator was built")

    monkeypatch.setattr(dicke, "_collective", refuse)
    n = 1000
    circuit = Circuit(n, (GateSpec("RN", (np.pi / 2, 0.0)), GateSpec("OAT", (0.01,), axes="z")))
    state = apply_circuit(circuit, ground_state(n))
    assert state.active_js == (n / 2,)
    xi = get_xi_2_S(state)
    assert 0.0 < xi < 1.0  # one-axis twisting squeezes


@pytest.mark.parametrize("theta, phi", [(np.pi / 2, 0.0), (1.0, 2.0), (0.3, 5.0), (np.pi, 0.0)])
def test_large_n_coherent_state_moments(theta, phi):
    n = 1000
    state = css_state(n, theta, phi)
    jvec = np.array([expval(state, a) for a in ("Jx", "Jy", "Jz")])
    assert np.linalg.norm(jvec) == pytest.approx(n / 2, abs=1e-9)
    assert get_xi_2_S(state) == pytest.approx(1.0, abs=1e-9)
