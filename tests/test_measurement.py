"""Probability tables, sampling, expectation values, Husimi grids, CSV."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dickesim import (
    CollectiveState,
    DomainError,
    GateSpec,
    NumericError,
    apply_circuit,
    apply_gate,
    build_ledger,
    css_state,
    expval,
    get_xi_2_R,
    ghz_state,
    ground_state,
    husimi_csv,
    husimi_grid,
    prob_table_csv,
    probabilities,
    sample,
    shot_counts_csv,
)

from conftest import random_circuit


def random_mixed_state(rng, n):
    """Random PSD matrices on every block of the ledger, total trace one."""
    ledger = build_ledger(n)
    blocks = {}
    for b in ledger.blocks:
        a = rng.normal(size=(b.dim, b.dim)) + 1j * rng.normal(size=(b.dim, b.dim))
        blocks[b.j] = a @ a.conj().T
    total = sum(np.trace(m).real for m in blocks.values())
    return CollectiveState(ledger, {j: m / total for j, m in blocks.items()})


def dense_husimi(state, thetas, phis):
    """Q as v^dagger rho v per grid point, v the spin-j coherent state with
    amplitudes sqrt(C(2j, a)) cos(theta/2)^(2j-a) (sin(theta/2) e^{i phi})^a
    at storage index a = j - m."""
    grid = np.zeros((len(thetas), len(phis)))
    for _, rho in state.items():
        twoj = rho.shape[0] - 1
        binom = np.sqrt([math.comb(twoj, a) for a in range(twoj + 1)])
        for it, theta in enumerate(thetas):
            for ip, phi in enumerate(phis):
                v = np.array([
                    binom[a]
                    * np.cos(theta / 2) ** (twoj - a)
                    * (np.sin(theta / 2) * np.exp(1j * phi)) ** a
                    for a in range(twoj + 1)
                ])
                grid[it, ip] += (v.conj() @ rho @ v).real
    return grid


def css_closed_form(n, theta0, phi0, thetas, phis):
    """|<n|n0>|^2 = ((1 + n.n0)/2)^N on the grid, for coherent states along
    the unit vectors n and n0; css_state(theta0, phi0) sits at grid azimuth
    2 pi - phi0 (see TestHusimi's peak test)."""

    def direction(theta, phi):
        return np.stack(np.broadcast_arrays(
            np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)), axis=-1)

    cos_angle = direction(thetas[:, None], phis[None, :]) @ direction(theta0, 2 * np.pi - phi0)
    return ((1 + cos_angle) / 2) ** n


class TestProbabilities:
    def test_ground_state(self):
        table = probabilities(ground_state(4)).as_dict()
        assert table[(2.0, -2.0)] == pytest.approx(1.0)
        assert sum(table.values()) == pytest.approx(1.0)
        # noiseless pure state: only the top block is listed
        assert all(j == 2.0 for j, _ in table)

    def test_row_order_follows_ledger(self):
        # descending m within the block, matching the storage convention
        entries = probabilities(ghz_state(3)).entries
        assert [(j, m) for j, m, _ in entries] == [
            (1.5, 1.5), (1.5, 0.5), (1.5, -0.5), (1.5, -1.5)
        ]

    def test_css_binomial(self):
        from math import comb

        n, theta = 6, 1.1
        table = probabilities(css_state(n, theta, 0.3)).as_dict()
        # k spins flipped away from the +z pole: m = N/2 - k
        for k in range(n + 1):
            want = (
                comb(n, k)
                * np.cos(theta / 2) ** (2 * (n - k))
                * np.sin(theta / 2) ** (2 * k)
            )
            assert table[(3.0, 3.0 - k)] == pytest.approx(want, abs=1e-12)

    def test_total_one_for_random_noisy_circuit(self, rng):
        circuit = random_circuit(rng, 5, 4, noise=0.2)
        state = apply_circuit(circuit, ground_state(5))
        assert probabilities(state).total() == pytest.approx(1.0, abs=1e-10)

    def test_nan_ket_or_block_raises(self):
        # a NaN probability must fail the sign check, not pass through it;
        # no gate makes this ket, since an overflowing phase fails at its gate,
        # and the public constructor rejects the block, so both are made
        # through the engine's unchecked constructors
        psi = css_state(4, 0.3, 0.0)._ket[1].copy()
        psi[[0, -1]] = np.nan
        ket = CollectiveState._pure(build_ledger(4), 2.0, psi)
        nan_block = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        block = CollectiveState._mixed(build_ledger(1), {0.5: nan_block})
        assert ket._ket is not None and block._ket is None
        for state in (ket, block):
            with pytest.raises(NumericError, match="NaN probability"):
                probabilities(state)


class TestSample:
    def test_deterministic_for_fixed_seed(self):
        state = css_state(5, 0.9, 0.0)
        a = sample(state, 2000, seed=7)
        b = sample(state, 2000, seed=7)
        assert a.counts == b.counts
        c = sample(state, 2000, seed=8)
        assert a.counts != c.counts

    def test_counts_sum_to_shots(self):
        counts = sample(ghz_state(4), 999, seed=1).counts
        assert sum(counts.values()) == 999

    def test_ghz_within_three_sigma(self):
        shots = 10000
        counts = sample(ghz_state(6), shots, seed=3).counts
        sigma = np.sqrt(shots * 0.5 * 0.5)
        assert abs(counts[(3.0, 3.0)] - shots / 2) < 3 * sigma
        assert abs(counts[(3.0, -3.0)] - shots / 2) < 3 * sigma
        assert counts[(3.0, 3.0)] + counts[(3.0, -3.0)] == shots

    def test_shots_domain(self):
        with pytest.raises(DomainError):
            sample(ground_state(2), 0, seed=0)

    @pytest.mark.parametrize("shots, seed, message", [
        (2.5, 0, "shots must be an integer, got 2.5"),
        (True, 0, "shots must be an integer, got True"),
        (5, -1, "seed must be >= 0, got -1"),
        (5, 1.5, "seed must be an integer, got 1.5"),
    ])
    def test_shots_and_seed_must_be_integers(self, shots, seed, message):
        # NumPy's TypeError or ValueError, before
        with pytest.raises(DomainError, match=message):
            sample(ground_state(2), shots, seed)
        assert sample(ground_state(2), np.int64(5), np.int64(1)).shots == 5

    def test_no_probability_mass_raises(self):
        # every shot used to land on the first row, with NumPy's divide warning
        empty = CollectiveState(build_ledger(2), {1.0: np.zeros((3, 3))})
        with pytest.raises(NumericError, match="total probability is 0.0"):
            sample(empty, 5, 0)


class TestExpval:
    def test_ground_state_values(self):
        state = ground_state(8)
        assert expval(state, "Jz") == pytest.approx(-4.0)
        assert expval(state, "Jx") == pytest.approx(0.0, abs=1e-12)
        assert expval(state, "Jz2") == pytest.approx(16.0)
        assert expval(state, "Jx2") == pytest.approx(2.0)  # N/4

    def test_css_mean_spin(self):
        # css_state's e^{-i phi} superposition phase turns the mean spin to
        # azimuth -phi on the Bloch sphere
        n, theta, phi = 10, 0.7, 1.9
        state = css_state(n, theta, phi)
        r = n / 2
        assert expval(state, "Jz") == pytest.approx(r * np.cos(theta))
        assert expval(state, "Jx") == pytest.approx(r * np.sin(theta) * np.cos(phi))
        assert expval(state, "Jy") == pytest.approx(-r * np.sin(theta) * np.sin(phi))

    def test_ladder_expectation_is_complex(self):
        state = css_state(4, np.pi / 2, 0.6)
        value = expval(state, "J_plus")
        assert isinstance(value, complex)
        # <J+> = <Jx> + i <Jy>
        assert value == pytest.approx(
            expval(state, "Jx") + 1j * expval(state, "Jy")
        )

    def test_unknown_observable(self):
        with pytest.raises(DomainError):
            expval(ground_state(2), "Jq")

    def test_observable_must_be_a_name(self):
        # a list was a TypeError (an unhashable key)
        with pytest.raises(DomainError, match="unknown observable \\[0.3\\]; choose from \\['J_minus'"):
            expval(ground_state(2), [0.3])

    def test_imaginary_residue_raises(self):
        # a non-Hermitian block: <Jz> = 0.5 + 0.1i on the j = 1 block
        state = CollectiveState(build_ledger(2), {1.0: np.diag([0.5 + 0.1j, 0.5, 0.0])})
        with pytest.raises(NumericError, match="imaginary residue"):
            expval(state, "Jz")

    def test_one_moments_pass_per_state(self, monkeypatch):
        # a moments pass reads the state once; later reads reuse it
        from dickesim import measurement

        passes = []
        compute = measurement._compute_moments

        def counted(state):
            passes.append(state)
            return compute(state)

        monkeypatch.setattr(measurement, "_compute_moments", counted)
        state = css_state(10, 0.7, 1.9)
        values = [expval(state, name) for name in ("Jz", "Jx2", "Jy2")]
        assert len(passes) == 1
        assert values[0] == pytest.approx(5 * np.cos(0.7))
        other = css_state(10, 0.7, 1.9)
        assert get_xi_2_R(other) == pytest.approx(1.0)
        assert passes == [state, other]

    def test_imaginary_residue_raises_under_optimize_flag(self):
        # python -O strips assert statements; the check must survive it
        code = (
            "import numpy as np\n"
            "from dickesim import CollectiveState, NumericError, build_ledger, expval\n"
            "state = CollectiveState(build_ledger(2), {1.0: np.diag([0.5 + 0.1j, 0.5, 0.0])})\n"
            "try:\n"
            "    expval(state, 'Jz')\n"
            "except NumericError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(3)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
        assert done.returncode == 0


class TestHusimi:
    def test_css_peaks_at_its_bloch_direction(self):
        # grid labels are physical directions; css_state(theta, phi) points
        # at azimuth -phi, so that is where the peak must sit
        theta0, phi0 = 1.1, 2.3
        state = css_state(12, theta0, phi0)
        thetas = np.linspace(0, np.pi, 61)
        phis = np.linspace(0, 2 * np.pi, 120, endpoint=False)
        grid = husimi_grid(state, thetas, phis)
        it, ip = np.unravel_index(np.argmax(grid), grid.shape)
        assert abs(thetas[it] - theta0) <= np.pi / 60
        assert abs(phis[ip] - (2 * np.pi - phi0)) <= 2 * np.pi / 120
        assert grid.max() == pytest.approx(1.0, abs=1e-3)

    def test_css_closed_form_at_large_n(self):
        # both poles and a patch around the peak
        n, theta0, phi0 = 1000, 1.1, 2.3
        patch = np.linspace(-0.1, 0.1, 9)
        thetas = np.concatenate([np.linspace(0.0, np.pi, 31), theta0 + patch])
        phis = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
        phis = np.concatenate([phis, 2 * np.pi - phi0 + patch])
        grid = husimi_grid(css_state(n, theta0, phi0), thetas, phis)
        np.testing.assert_allclose(grid, css_closed_form(n, theta0, phi0, thetas, phis), rtol=0, atol=1e-12)
        assert grid.max() == pytest.approx(1.0, abs=1e-12)

    def test_css_closed_form_at_n_10000(self):
        # the ket readout at N = 10^4, where rho_j would take 1.6 GB; the
        # closed form rounds n.n0 and raises it to the N-th power, hence 1e-11
        n, theta0, phi0 = 10_000, 1.1, 2.3
        patch = np.linspace(-0.02, 0.02, 9)
        thetas = np.concatenate([np.linspace(0.0, np.pi, 31), theta0 + patch])
        phis = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
        phis = np.concatenate([phis, 2 * np.pi - phi0 + patch])
        state = css_state(n, theta0, phi0)
        tracemalloc.start()
        try:
            grid = husimi_grid(state, thetas, phis)
            probabilities(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert state._blocks is None
        np.testing.assert_allclose(grid, css_closed_form(n, theta0, phi0, thetas, phis), rtol=0, atol=1e-11)
        assert grid.max() == pytest.approx(1.0, abs=1e-11)

    def test_pole_rows_are_phi_independent(self):
        state = css_state(5, 0.8, 0.4)
        grid = husimi_grid(state, np.array([0.0, np.pi]), np.linspace(0, 6, 7))
        assert np.ptp(grid[0]) < 1e-12
        assert np.ptp(grid[1]) < 1e-12

    def test_range_and_ground_value(self):
        # Q for the ground state equals sin^{2N}(theta/2) (wait: overlap with
        # the bottom state), maximal 1 at theta=pi
        state = ground_state(7)
        thetas = np.linspace(0, np.pi, 31)
        grid = husimi_grid(state, thetas, np.array([0.0]))
        assert grid.min() >= 0.0 and grid.max() <= 1.0
        np.testing.assert_allclose(
            grid[:, 0], np.sin(thetas / 2) ** 14, atol=1e-12
        )

    def test_quadrature_normalization(self, rng):
        # (N+1)/(4pi) * integral Q dOmega = 1 for a symmetric pure state
        n = 4
        circuit = random_circuit(rng, n, 3)
        state = apply_circuit(circuit, ground_state(n))
        thetas = np.linspace(0, np.pi, 201)
        phis = np.linspace(0, 2 * np.pi, 201)
        grid = husimi_grid(state, thetas, phis)
        integrand = grid * np.sin(thetas)[:, None]
        integral = np.trapezoid(np.trapezoid(integrand, phis, axis=1), thetas)
        assert (n + 1) / (4 * np.pi) * integral == pytest.approx(1.0, abs=1e-3)

    def test_trace_above_one_raises(self):
        # an unnormalized state (trace 2) peaks at Q = 2; it is not clipped
        state = ground_state(4)
        doubled = CollectiveState(state.ledger, {2.0: 2.0 * state.block(2.0)})
        with pytest.raises(NumericError, match="above one"):
            husimi_grid(doubled, np.linspace(0, np.pi, 9), np.array([0.0]))

    def test_non_psd_state_raises(self):
        # trace one but a negative population: Q at the south pole is -0.5
        state = CollectiveState(build_ledger(1), {0.5: np.diag([1.5, -0.5])})
        with pytest.raises(NumericError, match="below zero"):
            husimi_grid(state, np.array([0.0, np.pi]), np.array([0.0]))

    def test_empty_axes_rejected(self):
        with pytest.raises(DomainError):
            husimi_grid(ground_state(2), np.array([]), np.array([0.0]))

    @pytest.mark.parametrize(
        "thetas, phis",
        [
            ([0.5, np.nan], [0.0, 1.0]),
            ([0.5, np.inf], [0.0, 1.0]),
            ([-np.inf], [0.0]),
            ([0.5], [0.0, np.nan]),
            ([0.5], [np.inf, 1.0]),
            # cos(theta/2) and sin(theta/2) are the radial rows' moduli only
            # for theta in [0, pi]; past it they would label the wrong state
            ([0.5, -0.1], [0.0]),
            ([np.pi + 1e-12], [0.0]),
            ([4.0, 7.0], [0.0]),
        ],
    )
    def test_non_finite_axes_rejected(self, thetas, phis):
        with pytest.raises(DomainError, match="finite"):
            husimi_grid(css_state(6, 1.0, 0.3), thetas, phis)

    def test_nan_state_raises(self):
        # a NaN grid value must fail the range checks, not pass through them;
        # the public constructor rejects this block, the engine's does not
        nan_block = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        state = CollectiveState._mixed(build_ledger(1), {0.5: nan_block})
        with pytest.raises(NumericError):
            husimi_grid(state, np.array([1.0]), np.array([0.0]))


@pytest.mark.parametrize("twoj", [0, 1, 2, 7, 40, 300, 1000])
def test_radial_rows_match_per_theta_css_amplitudes(twoj):
    # theta = 0 puts a zero base under a zero exponent (0^0 = 1).  The rows of
    # all thetas at once and the coherent ket of each theta alone come from
    # one kernel, so they agree bit for bit.
    from dickesim.dicke import css_amplitudes
    from dickesim.dicke import _coherent_rows
    from dickesim.measurement import _theta_logs

    thetas = np.concatenate([[0.0, np.pi], np.linspace(0.0, np.pi, 37), [1e-9, np.pi - 1e-9]])
    rows = _coherent_rows(twoj, _theta_logs(thetas))
    want = np.array([css_amplitudes(twoj, theta, 0.0) for theta in thetas])
    assert rows.shape == (thetas.size, twoj + 1)
    assert not want.imag.any()
    np.testing.assert_array_equal(rows, want.real)
    # sin(0) is exactly 0; cos(pi/2) is 6e-17, so the south pole is not exact
    np.testing.assert_array_equal(rows[0], np.eye(twoj + 1)[0])


# theta with both poles; phi unsorted, non-uniform and outside [0, 2 pi)
GRID_THETAS = np.array([0.0, 0.3, 1.1, np.pi / 2, 2.0, 2.9, np.pi])
GRID_PHIS = np.array([4.0, 0.0, 6.1, 0.2, 2.5, 2.6, -0.7, 9.0])


class TestHusimiAgainstDense:
    def test_pure_single_block(self, rng):
        state = apply_circuit(random_circuit(rng, 12, 4), ground_state(12))
        assert len(state.active_js) == 1
        got = husimi_grid(state, GRID_THETAS, GRID_PHIS)
        want = dense_husimi(state, GRID_THETAS, GRID_PHIS)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 41])
    def test_random_mixed_states(self, rng, n):
        state = random_mixed_state(rng, n)
        assert len(state.active_js) == len(state.ledger.blocks)
        got = husimi_grid(state, GRID_THETAS, GRID_PHIS)
        want = dense_husimi(state, GRID_THETAS, GRID_PHIS)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def ket_states(rng):
    """A ket after a random circuit, and a conditional one after R_PLUS."""
    states = [
        apply_circuit(random_circuit(rng, 12, 5), ground_state(12)),
        apply_gate(css_state(12, 1.1, 2.3), GateSpec("R_PLUS", (0.4,))),
    ]
    assert all(state._ket is not None for state in states)
    assert states[1].conditional
    return states


def as_blocks(state):
    """The same state rebuilt as its block psi psi^dagger."""
    j, psi = state._ket
    return CollectiveState(state.ledger, {j: np.outer(psi, psi.conj())}, state.conditional)


class TestKetReadouts:
    def test_husimi_matches_block_path(self, rng):
        for state in ket_states(rng):
            got = husimi_grid(state, GRID_THETAS, GRID_PHIS)
            want = husimi_grid(as_blocks(state), GRID_THETAS, GRID_PHIS)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scale, value", [(2.0, 1.0), (1.0, np.nan)])
    def test_husimi_of_a_bad_ket_raises(self, scale, value):
        # a ket of norm 2 peaks at Q = 2, and a NaN fails the same check
        psi = scale * css_state(6, 1.0, 0.3)._ket[1]
        psi[1] *= value
        state = CollectiveState._pure(build_ledger(6), 3.0, psi)
        with pytest.raises(NumericError, match="above one"):
            husimi_grid(state, np.linspace(0, np.pi, 9), np.array([0.0, 2.0]))

    def test_probabilities_match_block_path_bit_for_bit(self, rng):
        for state in ket_states(rng):
            blocks = CollectiveState(state.ledger, dict(state.items()), state.conditional)
            assert probabilities(state).entries == probabilities(blocks).entries


class TestCsv:
    def test_prob_table_csv(self):
        text = prob_table_csv(probabilities(ghz_state(2)))
        lines = text.strip().split("\n")
        assert lines[0] == "j,m,p"
        assert len(lines) == 4  # header + three j=1 rows
        j, m, p = lines[1].split(",")
        assert (float(j), float(m)) == (1.0, 1.0)
        assert float(p) == pytest.approx(0.5)

    def test_shot_counts_csv_roundtrip(self):
        counts = sample(ghz_state(2), 100, seed=5)
        lines = shot_counts_csv(counts).strip().split("\n")
        assert lines[0] == "j,m,count"
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 100

    def test_husimi_csv_shape(self):
        thetas = np.array([0.0, 1.0])
        phis = np.array([0.0, 2.0, 4.0])
        grid = husimi_grid(css_state(3, 1.0, 0.0), thetas, phis)
        lines = husimi_csv(thetas, phis, grid).strip().split("\n")
        assert lines[0] == "theta,phi,q"
        assert len(lines) == 1 + 6
        assert lines[1].startswith("0,0,")

    def test_husimi_csv_bytes_match_per_cell_formatting(self, rng):
        thetas = np.linspace(0.0, np.pi, 7)
        phis = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)
        grid = husimi_grid(random_mixed_state(rng, 4), thetas, phis)
        grid[0, 0], grid[1, 1] = 0.0, 1.0
        want = ["theta,phi,q"]
        for it, theta in enumerate(thetas):
            for ip, phi in enumerate(phis):
                want.append(f"{theta:.17g},{phi:.17g},{grid[it, ip]:.17g}")
        assert husimi_csv(thetas, phis, grid) == "\n".join(want) + "\n"
