"""Pure states held as kets: the ket path of ``apply_gate`` and the moments
against the density-matrix path, the parity-split gates applied without
forming K_j, rotations of an extreme ket in closed form, and conditional
gates near +-pi on pure states against the full-space oracle."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dickesim import (
    GATE_KINDS,
    Circuit,
    CollectiveState,
    GateSpec,
    NumericError,
    apply_gate,
    build_ledger,
    css_state,
    depolarize,
    excited_state,
    expval,
    ghz_state,
    ground_state,
    husimi_grid,
    probabilities,
    sample,
)
from dickesim import gates
from dickesim.cli import main
from dickesim.gates import exponentiate, generator
from dickesim.measurement import moments
from dickesim.oracle import (
    full_apply_gate,
    full_collective_ops,
    full_run,
    ground_density,
    jm_projectors,
)
from tests.conftest import AXES_ALL, AXES_SINGLE

TOL = 1e-12


def catalog_specs(twoj):
    """One gate of every catalog kind and axis pair.  A non-unitary gate's
    angle shrinks with the block as 1/(j+1)^degree, so K stays within a few
    decades and rho's two products lose no more than psi's one."""
    choices = {0: [None], 1: list(AXES_SINGLE), 2: list(itertools.product(AXES_ALL, repeat=2))}
    for kind, (n_params, arity) in GATE_KINDS.items():
        for axes in choices[arity]:
            angle = 0.7
            if kind in ("R_PLUS", "R_MINUS"):
                angle /= twoj / 2.0 + 1.0
            elif {"plus", "minus"} & set(axes or ()):
                angle /= (twoj / 2.0 + 1.0) ** 2
            params = (angle, 2.5 if kind == "TNT" else 0.8)[:n_params]
            yield GateSpec(kind, params, axes=axes)


def pure_states(twoj, rng):
    """Kets of a block of side 2j + 1: a random one in the second block of
    N = 2j + 2, and for 2j >= 1 the ground and a coherent state of N = 2j."""
    ledger = build_ledger(twoj + 2)
    psi = rng.normal(size=twoj + 1) + 1j * rng.normal(size=twoj + 1)
    states = [CollectiveState._pure(ledger, twoj / 2.0, psi / np.linalg.norm(psi))]
    if twoj >= 1:
        states += [ground_state(twoj), css_state(twoj, 1.1, 2.3)]
    return states


def as_rho(state):
    """The same state handed in as its block psi psi^dag."""
    return CollectiveState(state.ledger, dict(state.items()), state.conditional)


def assert_moments_agree(a, b):
    for x, y in zip(moments(a), moments(b)):
        assert np.abs(x - y).max() <= TOL * max(1.0, np.abs(y).max())


def formed_once(propagator):
    """The kernel, forming each K_j once per (generator key, block) and
    handing out copies.  The kernel is deterministic, so every start state's
    ket and rho paths, with and without noise, apply the K_j they would
    apply anyway, formed once instead of up to twelve times."""
    formed = {}

    def once(gen, angle, j):
        key = (gen.key, j)
        if key not in formed:
            formed[key] = propagator(gen, angle, j)
        return formed[key].copy()

    return once


@pytest.mark.parametrize("twoj", [0, 1, 2, 7, 80, 200])
def test_ket_path_matches_rho_path(twoj, monkeypatch):
    states = pure_states(twoj, np.random.default_rng(1500 + twoj))
    pairs = [(state, as_rho(state)) for state in states]
    for state, rho_state in pairs:
        assert state._ket is not None and rho_state._ket is None
        assert_moments_agree(state, rho_state)
    propagator = gates._propagator
    for spec in catalog_specs(twoj):
        monkeypatch.setattr(gates, "_propagator", formed_once(propagator))
        for (state, rho_state), noise in itertools.product(pairs, (None, 0.05)):
            spec = replace(spec, noise=noise)
            got, want = apply_gate(state, spec), apply_gate(rho_state, spec)
            assert (got._ket is not None) == (noise is None), spec
            assert got.active_js == want.active_js, spec
            assert got.conditional == want.conditional, spec
            for j, rho in want.items():
                scale = np.abs(rho).max()
                assert np.abs(got.block(j) - rho).max() <= TOL * scale, spec
            assert_moments_agree(got, want)


def test_state_constructors_hold_kets():
    n = 6
    for state, amps in (
        (ground_state(n), np.eye(n + 1)[-1]),
        (excited_state(n), np.eye(n + 1)[0]),
        (ghz_state(n), (np.eye(n + 1)[0] + np.eye(n + 1)[-1]) / np.sqrt(2.0)),
    ):
        j, psi = state._ket
        assert j == n / 2 and state.active_js == (j,)
        assert np.array_equal(psi, amps) and not psi.flags.writeable
    # the block is built once, on the first read, and then kept
    state = css_state(n, 0.4, 1.0)
    first = state.block(3.0)
    assert state.block(3.0) is first and dict(state.items())[3.0] is first
    assert not first.flags.writeable
    assert state.trace() == pytest.approx(1.0, abs=1e-14)
    psi = state._ket[1]
    np.testing.assert_allclose(first, np.outer(psi, psi.conj()), rtol=0, atol=1e-16)


def test_readouts_of_a_ket_build_no_block():
    state = apply_gate(css_state(40, 1.1, 2.3), GateSpec("OAT", (0.05,), axes="x"))
    assert state._ket is not None
    probabilities(state)
    sample(state, 100, 3)
    husimi_grid(state, np.linspace(0.0, np.pi, 5), np.linspace(0.0, 6.0, 4))
    assert state.trace() == pytest.approx(1.0, abs=1e-14)
    assert state._blocks is None


def test_large_n_ket_path_builds_no_block_list():
    # the ledger's Block list is N/2 + 1 objects; no ket path reads it
    state = apply_gate(ground_state(10**5), GateSpec("OAT", (0.01,), axes="z"))
    probabilities(state)
    assert "blocks" not in vars(state.ledger) and "js" not in vars(state.ledger)


def test_rank_one_block_stays_rho():
    psi = css_state(4, 0.4, 1.0)._ket[1]
    state = CollectiveState(build_ledger(4), {2.0: np.outer(psi, psi.conj())})
    assert state._ket is None
    assert apply_gate(state, GateSpec("RX", (0.3,)))._ket is None


def test_noise_turns_a_ket_into_rho():
    state = apply_gate(ground_state(5), GateSpec("RX", (0.4,), noise=0.1))
    assert state._ket is None and len(state.active_js) == 2
    assert depolarize(ground_state(5), 0.0)._ket is not None


def test_unnormalizable_ket_raises():
    # a zero ket has no norm to renormalize by
    ledger = build_ledger(3)
    zero = CollectiveState._pure(ledger, 1.5, np.zeros(4))
    with pytest.raises(NumericError, match="R_PLUS produced an unnormalizable state"):
        apply_gate(zero, GateSpec("R_PLUS", (0.3,)))


# ------------------------------------- parity-split gates without K_j

# (kind, axes) of every Hermitian generator with band offsets in {-2, 0, 2}
# that is not diagonal: TAT over two of x, y, z (but not z, z), TNT(x|y, z)
# and the quadratic rotations G = D J_x^2 D^dag
SPLIT_KINDS = {
    *(("TAT", (a, b)) for a, b in itertools.product(AXES_SINGLE, repeat=2) if a + b != "zz"),
    ("TNT", ("x", "z")),
    ("TNT", ("y", "z")),
    ("GMS", None),
    ("RX2", None),
    ("RY2", None),
    ("OAT", ("x",)),
    ("OAT", ("y",)),
}


def split_specs():
    return [spec for spec in catalog_specs(2) if (spec.kind, spec.axes) in SPLIT_KINDS]


def test_split_kinds_are_the_parity_split_generators():
    ledger = build_ledger(2)
    found = {
        (spec.kind, spec.axes)
        for spec in catalog_specs(2)
        if generator(spec, ledger)[0].split
    }
    assert found == SPLIT_KINDS


def refuse_propagator(gen, angle, j):
    raise AssertionError(f"K_j formed for block j = {j}")


@pytest.mark.parametrize("twoj", [0, 1, 2, 7, 100, 400, 1000])
def test_split_ket_matches_formed_k(twoj, monkeypatch):
    """psi' = D V (e^{-i t w} * V^T D^dag psi) per parity agrees with K_j psi
    from ``exponentiate``; the ket path forms no K_j; and a cache hit gives
    the bits of a miss: the reference is the key's first request, the first
    ket the second (a miss, stored), the second ket a hit."""
    ledger = build_ledger(twoj + 2)
    j = twoj / 2.0
    rng = np.random.default_rng(1800 + twoj)
    psi = rng.normal(size=twoj + 1) + 1j * rng.normal(size=twoj + 1)
    state = CollectiveState._pure(ledger, j, psi / np.linalg.norm(psi))
    for spec in split_specs():
        gates._EIGENPAIRS.clear()
        want = exponentiate(*generator(spec, ledger, (j,)))[j] @ state._ket[1]
        with monkeypatch.context() as patch:
            patch.setattr(gates, "_propagator", refuse_propagator)
            miss = apply_gate(state, spec)
            assert len(gates._EIGENPAIRS) == 1, spec
            hit = apply_gate(state, spec)
        assert miss._ket[0] == j and not miss.conditional
        assert np.abs(miss._ket[1] - want).max() <= 1e-14, spec
        assert np.array_equal(miss._ket[1], hit._ket[1]), spec
    gates._EIGENPAIRS.clear()


def test_warm_split_ket_allocates_no_block_matrix():
    # K_j at 2j = 1000 is 16 MB; the ket update needs a few (2j + 1)-vectors
    state = css_state(1000, 1.1, 2.3)
    spec = GateSpec("TAT", (0.02,), axes="xy")
    for _ in range(2):  # a key is stored on its second request
        apply_gate(state, spec)
    tracemalloc.start()
    try:
        apply_gate(state, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def single_block_qpt(n, lam, steps):
    """The qpt loop on a ket in j = N/2 with NumPy alone: RZ(lam r) as phases,
    then TAT(lam/N; xy) from eigh of the dense J_x^2 - J_y^2; rows of
    (r, 2<J_z>/N, 4<J_x^2>/N^2, 4<J_y^2>/N^2)."""
    j = n / 2.0
    m = np.arange(j, -j - 1.0, -1.0)
    jplus = np.diag(np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), 1)
    jx, jy = (jplus + jplus.T) / 2.0, (jplus - jplus.T) / 2j
    w, v = np.linalg.eigh(jx @ jx - (jy @ jy).real)
    k_tat = (v * np.exp(-1j * (lam / n) * w)) @ v.T
    psi = np.zeros(n + 1, dtype=complex)
    psi[-1] = 1.0
    rows = []
    for r in np.linspace(-5.0, 5.0, steps):
        psi = k_tat @ (np.exp(-1j * lam * r * m) * psi)
        rows.append((
            r,
            2.0 * np.vdot(psi, m * psi).real / n,
            4.0 * np.linalg.norm(jx @ psi) ** 2 / n**2,
            4.0 * np.linalg.norm(jy @ psi) ** 2 / n**2,
        ))
    return np.array(rows)


def test_qpt_at_n_1000_matches_a_numpy_ket_run(capsys):
    assert main(["qpt", "--n", "1000", "--steps", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r,jz_scaled,jx2_scaled,jy2_scaled"
    got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    want = single_block_qpt(1000, -0.2, 20)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-10


# ------------------------------- rotations of an extreme ket in closed form

ROTATION_ANGLES = (
    0.0, 0.3, -0.3, np.pi / 2, -np.pi / 2, np.pi, -np.pi,
    2 * np.pi, -2 * np.pi, 4 * np.pi, -4 * np.pi, 7.3,
)
# (kind, parameters after the angle)
ROTATIONS = (("RX", ()), ("RY", ()), ("RN", (0.7,)))


def extreme_kets(twoj):
    """|j, j> and |j, -j> of a block of side 2j + 1, each as made and after
    an RZ phase: the excited and ground states of N = 2j, or for 2j = 0 the
    one state of block j = 0 of N = 2."""
    if twoj == 0:
        kets = [CollectiveState._pure(build_ledger(2), 0.0, np.ones(1))]
    else:
        kets = [excited_state(twoj), ground_state(twoj)]
    return kets + [apply_gate(state, GateSpec("RZ", (0.37,))) for state in kets]


def exact_spectrum_rotation(spec, ledger, j):
    """angle, psi -> exp(-i angle G_j) psi for a rotation generator G (a
    turned J_z): eigenvectors from eigh of the dense G_j, eigenvalues the
    exact m.  At 2j = 1000 eigh's eigenvalues are off by up to 1.7e-13, and
    ``exponentiate``'s K_j psi, at |angle| = 4 pi, by up to 1.6e-13 from a
    40-digit evaluation; this form stays within 1e-14 of it."""
    _, v = np.linalg.eigh(generator(spec, ledger, (j,))[0].bands(j).dense())
    m = np.arange(-j, j + 1.0)
    return lambda angle, psi: v @ (np.exp(-1j * angle * m) * (v.conj().T @ psi))


def refuse_eigenpairs(gen, j):
    raise AssertionError(f"eigenpairs requested for block j = {j}")


@pytest.mark.parametrize("twoj", [0, 1, 2, 7, 100, 1000])
def test_extreme_ket_rotation_matches_formed_k(twoj, monkeypatch):
    """RX, RY and RN on |j, +-j>, with and without a phase, take the closed
    form (a|up> + b|down>)^(x)2j, which forms no K_j and asks for no
    eigenpairs, and agree with K_j psi: from ``exponentiate`` up to
    2j = 100, and at 2j = 1000, where forming K_j per angle would dominate
    the suite, from the exact-spectrum form above.  The +-2 pi angles give
    K_j = (-1)^(2j)."""
    j = twoj / 2.0
    kets = extreme_kets(twoj)
    ledger = kets[0].ledger
    for kind, rest in ROTATIONS:
        if twoj == 1000:
            rotate = exact_spectrum_rotation(GateSpec(kind, (1.0,) + rest), ledger, j)
        for angle in ROTATION_ANGLES:
            spec = GateSpec(kind, (angle,) + rest)
            if twoj < 1000:
                k = exponentiate(*generator(spec, ledger, (j,)))[j]
            with monkeypatch.context() as patch:
                patch.setattr(gates, "_propagator", refuse_propagator)
                patch.setattr(gates, "_eigenpairs", refuse_eigenpairs)
                got = [apply_gate(state, spec) for state in kets]
            for state, out in zip(kets, got):
                psi = state._ket[1]
                want = k @ psi if twoj < 1000 else rotate(angle, psi)
                assert out._ket[0] == j and not out.conditional
                assert np.abs(out._ket[1] - want).max() <= 1e-13, (spec, psi.nonzero())


def test_extreme_ket_rotation_allocates_no_block_matrix():
    # K_j at N = 10^4 would be 1.6 GB; the closed form needs a few
    # (2j + 1)-vectors of 80-160 kB each
    state = ground_state(10_000)
    tracemalloc.start()
    try:
        apply_gate(state, GateSpec("RN", (np.pi / 2, 0.4)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21


def test_other_kets_still_form_k(monkeypatch):
    """Only a ket with its one nonzero entry at m = +-j takes the closed
    form: a GHZ ket, a mid-block Dicke ket and a ket after TAT, under RX,
    RY and RN, form K_j."""
    n = 6
    ledger = build_ledger(n)
    dicke = CollectiveState._pure(ledger, 3.0, np.eye(n + 1)[3])
    twisted = apply_gate(ground_state(n), GateSpec("TAT", (0.3,), axes="xy"))
    calls = []
    propagator = gates._propagator

    def counted(gen, angle, j):
        calls.append(j)
        return propagator(gen, angle, j)

    monkeypatch.setattr(gates, "_propagator", counted)
    for state in (ghz_state(n), dicke, twisted):
        for kind, rest in ROTATIONS:
            calls.clear()
            apply_gate(state, GateSpec(kind, (0.3,) + rest))
            assert calls == [3.0], (kind, state._ket[1])


def test_only_rotations_take_the_closed_form(monkeypatch):
    """On |j, +-j>, RX, RY and RN take the closed form, and every other
    catalog kind and axis pair reaches the per-block update."""
    calls = []
    update = gates._update

    def counted(gen, angle, j):
        calls.append(j)
        return update(gen, angle, j)

    monkeypatch.setattr(gates, "_update", counted)
    for spec in catalog_specs(4):
        for state in (excited_state(4), ground_state(4)):
            calls.clear()
            apply_gate(state, spec)
            assert calls == ([] if spec.kind in ("RX", "RY", "RN") else [2.0]), spec


@pytest.mark.parametrize("n", [1, 7, 100, 10_000])
def test_css_state_is_a_rotated_extreme_state(n):
    """css_state(N, theta, phi) is RN(theta - pi, -phi) on the ground state
    and RN(theta, -phi) on the excited state, each up to one global phase."""
    for theta, phi in ((0.0, 0.0), (0.3, 1.1), (np.pi / 2, 0.0), (2.0, 5.5), (np.pi, 3.0)):
        want = css_state(n, theta, phi)._ket[1]
        for start, spec in (
            (ground_state(n), GateSpec("RN", (theta - np.pi, -phi))),
            (excited_state(n), GateSpec("RN", (theta, -phi))),
        ):
            got = apply_gate(start, spec)._ket[1]
            overlap = np.vdot(want, got)
            assert abs(abs(overlap) - 1.0) <= 1e-13, (theta, phi, spec)
            assert np.abs(got - overlap / abs(overlap) * want).max() <= 1e-13, (theta, phi, spec)


# -------------------------------------------- conditional gates near +-pi

NEAR_PI = (np.pi - 0.05, np.pi - 1e-3, np.pi, -np.pi + 1e-3, -np.pi + 0.05)
CONDITIONAL = (
    lambda t: GateSpec("R_PLUS", (t,)),
    lambda t: GateSpec("R_MINUS", (t,)),
    lambda t: GateSpec("TAT", (t,), axes="z,plus"),
)


def oracle_view(rho, n):
    """P(j, m) and <J_a>, <J_a^2> of a full-space state, each an O(4^N)
    elementwise sum tr(rho A) = vdot(A^dag, rho)."""
    ops = full_collective_ops(n)
    probs = {jm: np.vdot(p, rho).real for jm, p in jm_projectors(n).items()}
    values = {}
    for name, axis in (("Jx", "x"), ("Jy", "y"), ("Jz", "z")):
        op = ops[axis]
        values[name] = np.vdot(op, rho)
        values[name + "2"] = np.vdot(op @ op, rho)
    return probs, values


@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_conditional_gates_near_pi_on_pure_states(n):
    # the oracle prepares the coherent state |1.2, 0.7> by RN(1.2 - pi, -0.7)
    css = css_state(n, 1.2, 0.7)
    rotate = GateSpec("RN", (1.2 - np.pi, -0.7))
    rotated = apply_gate(ground_state(n), rotate)
    assert np.abs(rotated.block(n / 2) - css.block(n / 2)).max() <= TOL
    prep = {
        "ground": (ground_state(n), ground_density(n)),
        "css": (css, full_run(Circuit(n, (rotate,)))),
    }
    agreed = 0
    for (start, full_start), gate, angle in itertools.product(prep.values(), CONDITIONAL, NEAR_PI):
        spec = gate(angle)
        try:
            got = apply_gate(start, spec)
        except NumericError:
            continue
        assert got._ket is not None and got.conditional
        rho = got.block(n / 2)
        assert np.array_equal(rho, rho.conj().T)  # psi psi^dag, Hermitian bit for bit
        probs, values = oracle_view(full_apply_gate(full_start, spec, n), n)
        mine = probabilities(got).as_dict()
        for jm, p in probs.items():
            assert abs(mine.get(jm, 0.0) - p) <= 1e-8, (spec, jm)
        for name, v in values.items():
            assert abs(expval(got, name) - v) <= 1e-8 * max(1.0, abs(v)), (spec, name)
        agreed += 1
    assert agreed >= 2 * len(CONDITIONAL) * len(NEAR_PI) - 2
