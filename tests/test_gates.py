"""Gate catalog semantics, JSON round-trips, and oracle agreement."""

import itertools
import json
import warnings

import numpy as np
import pytest

from dickesim import (
    GATE_KINDS,
    Circuit,
    CircuitParseError,
    CollectiveState,
    DomainError,
    GateSpec,
    NumericError,
    apply_circuit,
    apply_gate,
    build_ledger,
    circuit_from_json,
    circuit_to_json,
    css_state,
    excited_state,
    expval,
    ground_state,
    probabilities,
)
from dickesim.gates import exponentiate, generator
from dickesim.oracle import extract_collective, full_run
from tests.conftest import AXES_ALL, AXES_SINGLE, assert_valid_state, random_circuit


# ------------------------------------------------------------ GateSpec

def test_spec_normalization():
    g = GateSpec("tat", (0.3,), axes="z,plus")
    assert g.kind == "TAT" and g.axes == ("z", "plus")
    assert GateSpec("TNT", (0.1, 2.0), axes="z+").axes == ("z", "plus")
    assert GateSpec("TAT", (0.1,), axes="ZX").axes == ("z", "x")


def test_spec_validation():
    with pytest.raises(DomainError):
        GateSpec("BOGUS", (0.1,))
    with pytest.raises(DomainError):
        GateSpec("RX", (0.1, 0.2))
    with pytest.raises(DomainError):
        GateSpec("OAT", (0.1,), axes="plus")  # OAT restricted to x, y, z
    with pytest.raises(DomainError):
        GateSpec("TNT", (0.1, 0.0), axes="zx")
    with pytest.raises(DomainError):
        GateSpec("RX", (0.1,), noise=1.5)
    with pytest.raises(DomainError):
        GateSpec("RX", (0.1,), axes="z")


# ------------------------------------------------------- small semantics

@pytest.mark.parametrize("kind", sorted(GATE_KINDS))
def test_non_finite_parameters_rejected(kind):
    # NaN never; infinity only as the TNT coupling, where N/Lambda = 0
    n_params, arity = GATE_KINDS[kind]
    axes = ("z", "x")[:arity] or None
    for i in range(n_params):
        for bad in (np.nan, np.inf, -np.inf):
            params = [0.5] * n_params
            params[i] = bad
            if (kind, i) == ("TNT", 1) and np.isinf(bad):
                assert GateSpec(kind, tuple(params), axes=axes).params[1] == bad
            else:
                with pytest.raises(DomainError, match=f"parameter {i + 1} must be finite"):
                    GateSpec(kind, tuple(params), axes=axes)


def test_integer_too_large_for_a_float_is_infinite():
    # read as the infinity it rounds toward, then held to the finiteness rules
    huge = 10**400
    for bad in (huge, -huge):
        with pytest.raises(DomainError, match="RX parameter 1 must be finite"):
            GateSpec("RX", (bad,))
        with pytest.raises(DomainError, match="RX noise must lie in"):
            GateSpec("RX", (0.3,), noise=bad)
    assert GateSpec("TNT", (0.3, huge), axes="zx") == GateSpec("TNT", (0.3, np.inf), axes="zx")
    assert GateSpec("TNT", (0.3, -huge), axes="zx").params[1] == -np.inf


def test_infinite_tnt_coupling_is_one_axis_twisting():
    state = css_state(6, np.pi / 2, 0.0)
    tnt = apply_gate(state, GateSpec("TNT", (0.3, np.inf), axes="zx"))
    oat = apply_gate(state, GateSpec("OAT", (0.3,), axes="z"))
    assert np.allclose(tnt.block(3.0), oat.block(3.0), atol=1e-12)


def test_rz_diagonal():
    n = 4
    led = build_ledger(n)
    u = exponentiate(*generator(GateSpec("RZ", (0.7,)), led))
    m = np.arange(2.0, -2.0 - 1, -1.0)
    assert np.allclose(np.diag(u[2.0]), np.exp(-1j * 0.7 * m))


@pytest.mark.parametrize("kind", ["RX", "RY", "RZ", "RX2", "RY2", "RZ2", "GMS", "RN"])
def test_unitarity(kind):
    n = 5
    led = build_ledger(n)
    params = (0.9,) if kind not in ("GMS", "RN") else (0.9, 0.4)
    spec = GateSpec(kind, params)
    gen, angle = generator(spec, led)
    for j, b in exponentiate(gen, angle).items():
        assert np.allclose(b @ b.conj().T, np.eye(b.shape[0]), atol=1e-12)


def test_rotation_composition():
    # RZ(a) RZ(b) = RZ(a+b) on states
    s = css_state(4, 1.0, 0.5)
    one = apply_gate(apply_gate(s, GateSpec("RZ", (0.3,))), GateSpec("RZ", (0.9,)))
    two = apply_gate(s, GateSpec("RZ", (1.2,)))
    for j in one.active_js:
        assert np.allclose(one.block(j), two.block(j), atol=1e-12)


def test_rn_pi_reaches_excited():
    for n in (3, 6):
        s = apply_gate(ground_state(n), GateSpec("RN", (np.pi, 1.1)))
        assert probabilities(s).as_dict()[(n / 2, n / 2)] == pytest.approx(1.0, abs=1e-12)


def test_rn_equator_binomial():
    from math import comb

    n = 10
    s = apply_gate(ground_state(n), GateSpec("RN", (-np.pi / 2, np.pi / 4)))
    probs = probabilities(s).as_dict()
    for k in range(n + 1):
        m = n / 2 - k
        assert probs[(n / 2, m)] == pytest.approx(comb(n, k) * 0.5**n, abs=1e-12)


def test_oat_z_preserves_populations():
    # J_z^2 is diagonal, so P(j, m) is untouched
    s = css_state(6, np.pi / 2, 0.0)
    t = apply_gate(s, GateSpec("OAT", (0.4,), axes="z"))
    assert np.allclose(np.diag(t.block(3.0)), np.diag(s.block(3.0)), atol=1e-12)


def test_gms_on_ground_makes_cat():
    # maximal entanglement at theta = pi/2: the population splits over m = +-N/2
    for n in (2, 4, 6):
        s = apply_gate(ground_state(n), GateSpec("GMS", (np.pi / 2, 0.0)))
        probs = probabilities(s).as_dict()
        assert probs[(n / 2, n / 2)] == pytest.approx(0.5, abs=1e-10)
        assert probs[(n / 2, -n / 2)] == pytest.approx(0.5, abs=1e-10)


def test_tnt_large_lambda_approaches_oat():
    n = 6
    theta = 0.3
    oat = apply_gate(css_state(n, np.pi / 2, 0.0), GateSpec("OAT", (theta,), axes="z"))
    dist_prev = None
    for lam in (10.0, 100.0, 1000.0):
        tnt = apply_gate(css_state(n, np.pi / 2, 0.0), GateSpec("TNT", (theta, lam), axes="zx"))
        dist = max(
            np.abs(tnt.block(j) - oat.block(j)).max() for j in tnt.active_js
        )
        if dist_prev is not None:
            assert dist < dist_prev
        dist_prev = dist
    assert dist_prev < 1e-2


def test_r_plus_conditional_renormalized():
    s = apply_gate(css_state(4, np.pi / 2, 0.0), GateSpec("R_PLUS", (0.4,)))
    assert s.conditional
    assert_valid_state(s)
    # ladder pumping toward m = +N/2 raises <Jz>
    assert expval(s, "Jz") > 0.0


def test_r_minus_on_ground_is_noop_but_flagged():
    # J- annihilates |N/2, -N/2>, so exp(-i theta J-) acts as identity on it
    s = apply_gate(ground_state(3), GateSpec("R_MINUS", (0.7,)))
    assert s.conditional
    assert probabilities(s).as_dict()[(1.5, -1.5)] == pytest.approx(1.0, abs=1e-12)


def test_tat_plus_minus_axes():
    s = apply_gate(css_state(4, np.pi / 2, 0.0), GateSpec("TAT", (0.2,), axes="plus,minus"))
    assert s.conditional  # non-Hermitian generator takes the conditional path
    assert_valid_state(s)


def test_apply_circuit_n_mismatch():
    circ = Circuit(4, (GateSpec("RX", (0.1,)),))
    with pytest.raises(DomainError):
        apply_circuit(circ, ground_state(6))


# ------------------------------------------------------------- JSON I/O

def test_json_roundtrip():
    circ = Circuit(
        5,
        (
            GateSpec("RN", (0.3, 0.9)),
            GateSpec("TNT", (0.2, 2.5), axes="zx", noise=0.05),
            GateSpec("R_PLUS", (0.1,)),
        ),
    )
    again = circuit_from_json(circuit_to_json(circ))
    assert again == circ


def test_json_parse_errors():
    with pytest.raises(CircuitParseError):
        circuit_from_json("{not json")
    with pytest.raises(CircuitParseError):
        circuit_from_json(json.dumps({"gates": []}))  # missing n
    with pytest.raises(CircuitParseError):
        circuit_from_json(json.dumps({"n": 0, "gates": []}))
    with pytest.raises(CircuitParseError):
        circuit_from_json(json.dumps({"n": 2, "gates": [{"kind": "RX"}]}))
    with pytest.raises(CircuitParseError, match="gate #2"):
        circuit_from_json(
            json.dumps(
                {"n": 2, "gates": [
                    {"kind": "RX", "params": [0.1]},
                    {"kind": "OAT", "params": [0.1], "axes": "plus"},
                ]}
            )
        )
    with pytest.raises(CircuitParseError):
        circuit_from_json(json.dumps({"n": 2, "gates": [{"kind": "RX", "params": [True]}]}))
    # field types: axes is a tag string, noise a number, n an integer
    for gate in (
        {"kind": "TAT", "params": [0.1], "axes": ["x", "y"]},
        {"kind": "OAT", "params": [0.1], "axes": 5},
        {"kind": "RX", "params": [0.1], "noise": True},
        {"kind": "RX", "params": [0.1], "noise": "0.1"},
    ):
        doc = {"n": 2, "gates": [{"kind": "RZ", "params": [0.1]}, gate]}
        with pytest.raises(CircuitParseError, match="gate #2: "):
            circuit_from_json(json.dumps(doc))
    with pytest.raises(CircuitParseError, match='"n"'):
        circuit_from_json(json.dumps({"n": True, "gates": []}))


def test_gatespec_axes_are_a_tuple_of_str():
    for axes in ("x,y", ["x", "y"], ("x", "y"), [np.str_("x"), "y"]):
        spec = GateSpec("TAT", (0.1,), axes=axes)
        assert spec.axes == ("x", "y") and all(type(a) is str for a in spec.axes)
        hash(spec.axes)
    for axes in (5, ["x", 5], {"x", "y"}, b"xy"):
        with pytest.raises(DomainError):
            GateSpec("TAT", (0.1,), axes=axes)


# -------------------------------------------------- random-circuit checks

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_random_circuits_match_oracle(rng, n):
    for _ in range(10):
        circ = random_circuit(rng, n)
        state = apply_circuit(circ, ground_state(n))
        assert_valid_state(state, atol=1e-9)
        ref = extract_collective(full_run(circ), n)
        probs = probabilities(state).as_dict()
        for jm, p in ref["probs"].items():
            assert probs.get(jm, 0.0) == pytest.approx(p, abs=1e-8)
        for name, val in ref["expvals"].items():
            assert complex(expval(state, name)) == pytest.approx(val, abs=1e-8)


def test_states_stay_in_top_block_without_noise(rng):
    # noiseless collective dynamics never leaves the symmetric sector
    circ = random_circuit(rng, 6)
    state = apply_circuit(circ, ground_state(6))
    assert state.active_js == (3.0,)


# ------------------------------------------------- closed-form kernels

@pytest.mark.parametrize("twoj", [1, 2, 8, 80, 300])
def test_ladder_closed_form_matches_expm(twoj):
    # J_+ is nilpotent: exp(-i theta J_+) is a finite series, exactly upper
    # triangular, and R_MINUS's K is its transpose.  The largest relative
    # difference to scipy's Pade expm measured over this grid was 4.5e-15.
    from scipy.linalg import expm

    from dickesim.dicke import spin_matrices

    j = twoj / 2.0
    led = build_ledger(twoj + 6)  # j is a block below the top one
    for theta in (0.05, -0.05, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0):
        plus = exponentiate(*generator(GateSpec("R_PLUS", (theta,)), led, (j,)))[j]
        minus = exponentiate(*generator(GateSpec("R_MINUS", (theta,)), led, (j,)))[j]
        want = expm(-1j * theta * spin_matrices(twoj)["plus"])
        assert np.abs(plus - want).max() <= 1e-13 * np.abs(plus).max()
        assert not np.tril(plus, -1).any()
        assert np.array_equal(minus, plus.T)


def _ladder_loop(lad, angle):
    """The term-by-term series, one superdiagonal per step, as the reference
    for the one-call kernel: the same multiplications in the same order."""
    d = lad.size + 1
    k_mat = np.zeros((d, d), dtype=complex)
    flat = k_mat.reshape(-1)
    flat[:: d + 1] = 1.0
    term = np.ones(d)
    for k in range(1, d):
        term = term[:-1] * lad[k - 1 :] * (angle / k)
        if not term.any():
            break  # every later term is zero too
        flat[k :: d + 1][: d - k] = (1.0, -1j, -1.0, 1j)[k % 4] * term
    return k_mat


@pytest.mark.parametrize("twoj", [0, 1, 2, 8, 80, 300, 1000])
def test_ladder_series_equals_the_term_by_term_loop(twoj):
    # bit for bit wherever K is finite: the underflowed tail and the signed
    # zeros included.  At 2j = 1000, |theta| = 3 the series overflows; both
    # forms then give a non-finite K and the gate refuses the state.
    from dickesim.dicke import spin_bands
    from dickesim.gates import _propagator

    j = twoj / 2.0
    led = build_ledger(twoj + 2)
    lad = spin_bands(twoj)["plus"].diags[1][:-1]
    for theta in (0.05, -0.05, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0):
        with np.errstate(over="ignore", invalid="ignore"):
            plus = _propagator(*generator(GateSpec("R_PLUS", (theta,)), led, (j,)), j)
            minus = _propagator(*generator(GateSpec("R_MINUS", (theta,)), led, (j,)), j)
            want = _ladder_loop(lad, theta)
        assert minus.tobytes() == plus.T.tobytes()
        if np.isfinite(want).all():
            assert plus.tobytes() == want.tobytes(), f"theta = {theta}"
            continue
        assert twoj == 1000 and abs(theta) == 3.0
        assert not np.isfinite(plus).all()
        rho = np.zeros((twoj + 1, twoj + 1), dtype=complex)
        rho[-1, -1] = 1.0  # m = -j
        state = CollectiveState(led, {j: rho})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            apply_gate(state, GateSpec("R_PLUS", (theta,)))


@pytest.mark.parametrize("gates", [
    # a phase vector, the azimuth gauge on rho, a parity-split half, a formed K_j on rho
    [GateSpec("RX", (0.3,)), GateSpec("RZ2", (1e308,))],
    [GateSpec("RX", (0.3,), noise=0.1), GateSpec("GMS", (0.3, 1e308))],
    [GateSpec("RX", (0.3,)), GateSpec("TAT", (1e308,), axes="xy")],
    [GateSpec("RX", (0.3,), noise=0.1), GateSpec("RN", (1e308, 0.3))],
], ids=["RZ2", "GMS", "TAT", "RN"])
def test_overflowing_phase_raises_at_its_gate(gates):
    # a finite angle or azimuth whose phase argument overflows fails at the
    # gate, with no NumPy warning, rather than leaving NaN amplitudes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="phase argument"):
            apply_circuit(Circuit(4, gates), ground_state(4))


@pytest.mark.parametrize("spec, angle", [
    (GateSpec("R_PLUS", (1e300,)), 1e300),
    (GateSpec("R_MINUS", (1e300,)), 1e300),
    (GateSpec("TAT", (1e300,), axes="z,plus"), 1e300),
], ids=["R_PLUS", "R_MINUS", "TAT"])
def test_exponentiate_raises_on_a_non_finite_k(spec, angle):
    # the ladder series overflowed with a RuntimeWarning, and expm gave NaN
    # blocks with none; apply_gate raises NumericError for the same gates
    gen, _ = generator(spec, build_ledger(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not finite in block j = 2.0"):
            exponentiate(gen, angle)


@pytest.mark.parametrize("n", [0, -2, 2.0, True])
def test_circuit_needs_a_particle_count(n):
    with pytest.raises(DomainError, match="particle"):
        Circuit(n, ())


@pytest.mark.parametrize("kind, params, message", [
    (5, (0.1,), "gate kind must be a string, got 5"),
    ("RX", 0.1, "RX params must be a tuple or a list, got 0.1"),
    ("RX", None, "RX params must be a tuple or a list, got None"),
])
def test_gatespec_field_types(kind, params, message):
    # AttributeError or TypeError before
    with pytest.raises(DomainError, match=message):
        GateSpec(kind, params)


def test_circuit_instructions_are_gatespecs():
    # accepted before, and apply_circuit then raised AttributeError
    with pytest.raises(DomainError, match="circuit instruction #2 must be a GateSpec, got 0.3"):
        Circuit(4, [GateSpec("RX", (0.1,)), 0.3])


def test_phase_argument_below_overflow_is_formed():
    # N/Lambda = 4e300: angle^2 |w|^2 overflows, yet every angle * w_k is
    # finite, so the phases are formed, as the bare expression gives them
    from dickesim.gates import _propagator

    gen, angle = generator(GateSpec("TNT", (1e-10, 1e-300), axes="zz"), build_ledger(4))
    w = gen.bands(2.0).diags[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phases = _propagator(gen, angle, 2.0)
        assert np.isinf(angle * angle * np.vdot(w, w))
    assert np.array_equal(phases, np.exp(-1j * angle * w))


DIAGONAL_SPECS = (
    GateSpec("RZ", (0.7,)),
    GateSpec("RZ", (-2.3,)),
    GateSpec("RZ2", (-1.3,)),
    GateSpec("OAT", (0.4,), axes="z"),
    GateSpec("TAT", (0.4,), axes="zz"),
    GateSpec("TNT", (0.9, 2.5), axes="zz"),
    GateSpec("TNT", (-0.35, -3.0), axes="zz"),
)


@pytest.mark.parametrize("spec", DIAGONAL_SPECS, ids=lambda s: s.kind + "".join(s.axes or ""))
def test_diagonal_phases_from_m_equal_dense_diagonal(spec):
    # A generator with band offsets {0} is its main diagonal (m, m^2, m^2 - m^2,
    # m^2 - w m), formed by the float operations of the dense generator's
    # diagonal: equal bit for bit, and so are the phases.
    from dickesim.dicke import spin_matrices
    from dickesim.gates import _propagator

    for n in (199, 200):
        led = build_ledger(n)
        gen, angle = generator(spec, led)
        assert gen.offsets == {0}
        for j in led.js:
            dense = gen.build(spin_matrices(int(2 * j))).diagonal()
            assert np.array_equal(gen.bands(j).diags[0], dense)
            assert np.array_equal(_propagator(gen, angle, j), np.exp(-1j * angle * dense))


# ------------------------------------------------- band-built generators

def every_spec():
    """One spec per kind and axis choice, plus/minus axes included."""
    for kind, (n_params, arity) in GATE_KINDS.items():
        params = (0.7, 2.5)[:n_params]
        for axes in itertools.product(*[AXES_SINGLE if kind == "OAT" else AXES_ALL] * arity):
            yield GateSpec(kind, params, axes=axes or None)


# every_spec's generators (GMS at phi = 2.5, TNT at Lambda = 2.5) by their
# kernel facts: band offsets, hermitian, azimuth, split, flip and whether the
# eigenpair key is the empty one of J_x^2's halves
KERNEL_FACTS = (
    ("RX RY RN", {-1, 1}, True, None, False, False, False),
    ("RZ RZ2 OATz TATzz TNTzz", {0}, True, None, False, False, False),
    ("R_PLUS", {1}, False, None, False, False, False),
    ("R_MINUS", {-1}, False, None, False, False, False),
    ("RX2 OATx", {-2, 0, 2}, True, 0.0, True, False, True),
    ("RY2 OATy", {-2, 0, 2}, True, np.pi / 2, True, False, True),
    ("GMS", {-2, 0, 2}, True, 2.5, True, False, True),
    ("TATxx TATxy TATxz TATyx TATyy TATyz TATzx TATzy TNTxz TNTyz",
     {-2, 0, 2}, True, None, True, False, False),
    ("TNTzx", {-1, 0, 1}, True, 0.0, False, True, False),
    ("TNTzy", {-1, 0, 1}, True, np.pi / 2, False, True, False),
    ("TNTxx TNTxy TNTyx TNTyy", {-2, -1, 0, 1, 2}, True, None, False, False, False),
    ("TATxplus TATxminus TATyplus TATyminus TATplusx TATplusy TATminusx TATminusy",
     {-2, 0, 2}, False, None, False, False, False),
    ("TATzplus TATplusz TNTplusz", {0, 2}, False, None, False, False, False),
    ("TATzminus TATminusz TNTminusz", {-2, 0}, False, None, False, False, False),
    ("TATplusplus", {2}, False, None, False, False, False),
    ("TATplusminus TATminusplus", {-2, 2}, False, None, False, False, False),
    ("TATminusminus", {-2}, False, None, False, False, False),
    ("TNTxplus TNTyplus", {-2, 0, 1, 2}, False, None, False, False, False),
    ("TNTxminus TNTyminus", {-2, -1, 0, 2}, False, None, False, False, False),
    ("TNTzplus", {0, 1}, False, None, False, False, False),
    ("TNTzminus", {-1, 0}, False, None, False, False, False),
    ("TNTplusx TNTplusy", {-1, 1, 2}, False, None, False, False, False),
    ("TNTplusplus", {1, 2}, False, None, False, False, False),
    ("TNTplusminus", {-1, 2}, False, None, False, False, False),
    ("TNTminusx TNTminusy", {-2, -1, 1}, False, None, False, False, False),
    ("TNTminusplus", {-2, 1}, False, None, False, False, False),
    ("TNTminusminus", {-2, -1}, False, None, False, False, False),
)


def test_kernel_facts_of_every_catalog_gate():
    table = {name: facts for names, *facts in KERNEL_FACTS for name in names.split()}
    for spec in every_spec():
        name = spec.kind + "".join(spec.axes or "")
        gen, _ = generator(spec, build_ledger(2))
        got = [gen.offsets, gen.hermitian, gen.azimuth, gen.split, gen.flip, gen.key == ()]
        assert got == table.pop(name), name
    assert not table


# blocks whose bands give the dense build bit for bit; the others sum two
# products per entry, which a BLAS product may fuse (one rounding less)
BAND_BITWISE = {"RX", "RY", "RZ", "RN", "R_PLUS", "R_MINUS", "RZ2", "OATz", "TATxy",
                "TATzplus", "TNTzx"}


@pytest.mark.parametrize("spec", list(every_spec()), ids=lambda s: s.kind + "".join(s.axes or ""))
def test_band_built_blocks_equal_dense_build(spec):
    from dickesim.dicke import spin_matrices

    exact = spec.kind + "".join(spec.axes or "") in BAND_BITWISE
    for twoj in (*range(12), 40, 99, 100, 199, 200):
        j = twoj / 2.0
        gen, _ = generator(spec, build_ledger(twoj + 2), (j,))
        bands = gen.bands(j)
        assert bands.offsets == gen.offsets and gen.offsets <= set(range(-2, 3))
        got, want = bands.dense(), gen.build(spin_matrices(twoj))
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 4e-16 * np.abs(want).max()
