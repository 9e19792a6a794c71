"""Mean-spin frame and squeezing parameters."""

import numpy as np
import pytest

from dickesim import (
    DegenerateFrameError,
    apply_circuit,
    css_state,
    depolarize,
    get_xi_2_R,
    get_xi_2_S,
    ghz_state,
    ground_state,
    mean_spin_frame,
)
from dickesim.cli import main
from dickesim.gates import Circuit, GateSpec
from dickesim.oracle import extract_collective as oracle_extract
from dickesim.oracle import full_run

from conftest import random_circuit


def oat_state(n, theta):
    circuit = Circuit(n, (
        GateSpec("RN", (np.pi / 2, 0.0)),
        GateSpec("OAT", (theta,), axes="z"),
    ))
    return apply_circuit(circuit, ground_state(n))


class TestMeanSpinFrame:
    def test_triad_orthonormal(self):
        frame = mean_spin_frame(css_state(8, 1.2, 0.7))
        basis = np.stack([frame.n1, frame.n2, frame.n3])
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)

    def test_n1_aligned_with_mean_spin(self):
        from dickesim import expval

        state = css_state(10, 0.9, 2.0)
        frame = mean_spin_frame(state)
        jvec = np.array([expval(state, a) for a in ("Jx", "Jy", "Jz")])
        np.testing.assert_allclose(frame.n1, jvec / np.linalg.norm(jvec), atol=1e-12)
        assert frame.j_norm == pytest.approx(np.linalg.norm(jvec))

    @pytest.mark.parametrize("phi", [0.4, 2.0, 4.0, 5.9])
    def test_phi_recovered_in_every_quadrant(self, phi):
        # css azimuth is -phi; the frame must report it wrapped to [0, 2pi)
        frame = mean_spin_frame(css_state(6, 1.0, phi))
        assert frame.phi == pytest.approx(2 * np.pi - phi, abs=1e-10)
        assert frame.theta == pytest.approx(1.0, abs=1e-10)

    def test_pole_convention(self):
        frame = mean_spin_frame(ground_state(4))
        assert frame.theta == pytest.approx(np.pi)
        assert frame.phi == 0.0

    def test_ghz_degenerate(self):
        with pytest.raises(DegenerateFrameError):
            mean_spin_frame(ghz_state(4))


class TestXiS:
    @pytest.mark.parametrize("n", [2, 5, 20, 101])
    def test_css_is_unity(self, n):
        assert get_xi_2_S(css_state(n, 0.8, 1.1)) == pytest.approx(1.0, abs=1e-10)
        assert get_xi_2_R(css_state(n, 0.8, 1.1)) == pytest.approx(1.0, abs=1e-10)

    def test_oat_squeezes(self):
        n = 20
        values = [get_xi_2_S(oat_state(n, t)) for t in (0.0, 0.05, 0.1)]
        assert values[0] == pytest.approx(1.0, abs=1e-10)
        assert values[1] < 1.0
        assert values[2] < values[1]

    def test_anti_branch_dominates(self):
        state = oat_state(12, 0.1)
        assert get_xi_2_S(state, anti=True) > get_xi_2_S(state)

    def test_rotation_invariance_about_mean_spin_axis(self):
        # an extra RZ only steers the frame; the principal transverse
        # variances are unchanged
        n = 14
        base = oat_state(n, 0.08)
        rotated = apply_circuit(
            Circuit(n, (GateSpec("RZ", (1.23,)),)), base
        )
        assert get_xi_2_S(rotated) == pytest.approx(get_xi_2_S(base), abs=1e-10)
        assert get_xi_2_R(rotated) == pytest.approx(get_xi_2_R(base), abs=1e-10)

    def test_wineland_dominates_kitagawa(self, rng):
        for _ in range(5):
            circuit = random_circuit(rng, 6, 3)
            state = apply_circuit(circuit, ground_state(6))
            try:
                xi_s = get_xi_2_S(state)
            except DegenerateFrameError:
                continue
            assert get_xi_2_R(state) >= xi_s - 1e-12

    def test_ghz_raises(self):
        with pytest.raises(DegenerateFrameError):
            get_xi_2_S(ghz_state(3))
        with pytest.raises(DegenerateFrameError):
            get_xi_2_R(ghz_state(3))

    def test_noise_degrades_squeezing(self):
        state = oat_state(16, 0.1)
        assert get_xi_2_S(depolarize(state, 0.2)) > get_xi_2_S(state)


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_circuits(self, n, rng):
        for _ in range(3):
            circuit = random_circuit(rng, n, 4)
            state = apply_circuit(circuit, ground_state(n))
            want = oracle_extract(full_run(circuit), n)
            if want["xi2_S"] is None:
                with pytest.raises(DegenerateFrameError):
                    get_xi_2_S(state)
                continue
            assert get_xi_2_S(state) == pytest.approx(want["xi2_S"], abs=1e-8)
            assert get_xi_2_R(state) == pytest.approx(want["xi2_R"], abs=1e-8)

    def test_noisy_circuit(self, rng):
        n = 4
        circuit = random_circuit(rng, n, 4, noise=0.15)
        state = apply_circuit(circuit, ground_state(n))
        want = oracle_extract(full_run(circuit), n)
        if want["xi2_S"] is not None:
            assert get_xi_2_S(state) == pytest.approx(want["xi2_S"], abs=1e-8)


def kitagawa_ueda_xi2(n, theta):
    """xi^2_S after OAT(theta, z) on an equatorial coherent state, in closed
    form (Kitagawa & Ueda, PRA 47, 5138 (1993)): 1 + (N-1)/4 (A - sqrt(A^2 +
    B^2)) with A = 1 - cos^(N-2)(2 theta) and B = 4 sin theta cos^(N-2) theta.

    cos^(N-2) x is exp((N-2) log1p(-2 sin^2(x/2))), so a cosine near one
    keeps its digits, and A - sqrt(A^2 + B^2) is -B^2/(A + sqrt(A^2 + B^2)),
    which does not cancel."""
    def log_cos(x):
        return np.log1p(-2.0 * np.sin(x / 2.0) ** 2)

    a = -np.expm1((n - 2) * log_cos(2.0 * theta))
    b = 4.0 * np.sin(theta) * np.exp((n - 2) * log_cos(theta))
    return 1.0 - (n - 1) / 4.0 * b * b / (a + np.hypot(a, b))


class TestOneAxisTwistingClosedForm:
    @staticmethod
    def thetas(n):
        # a decade below to five times past the squeezing minimum, which
        # sits near 24^(1/6) (N/2)^(-2/3) / 2
        at_min = 0.5 * 24.0 ** (1.0 / 6.0) * (n / 2.0) ** (-2.0 / 3.0)
        return np.geomspace(at_min / 10.0, 5.0 * at_min, 7)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_large_n_matches_closed_form(self, n):
        thetas = self.thetas(n)
        want = kitagawa_ueda_xi2(n, thetas)
        assert 0 < int(np.argmin(want)) < thetas.size - 1  # the grid spans the minimum
        start = css_state(n, np.pi / 2, 0.0)
        for theta, xi in zip(thetas, want):
            state = apply_circuit(Circuit(n, (GateSpec("OAT", (theta,), axes="z"),)), start)
            assert get_xi_2_S(state) == pytest.approx(xi, rel=1e-12, abs=0.0)

    def test_rotation_prepared_point(self):
        # the ansatz's preparation: RN(pi/2, 0) on the ground state's ket
        n = 1000
        theta = self.thetas(n)[3]
        got = get_xi_2_S(oat_state(n, theta))
        assert got == pytest.approx(kitagawa_ueda_xi2(n, theta), rel=1e-12, abs=0.0)

    def test_squeeze_cli_at_n_10000(self, capsys):
        """The OAT sweep at N = 10^4, where one K_j would take 1.6 GB: the
        RN(pi/2, 0) preparation is a closed-form rotation of the ground ket
        and OAT(z) a phase, so the run stays O(N).  The bound is 1e-10
        relative because get_xi_2_S takes the smaller covariance eigenvalue
        as a difference that cancels (1.2e-11 relative at N = 10^4 near the
        minimum); theta = 0 is the coherent state, xi^2_S = 1."""
        argv = ["squeeze", "--n", "10000", "--gate", "oat", "--theta-max", "0.002", "--steps", "3"]
        assert main(argv) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == "theta,xi2_S_dB,xi2_R_dB" and len(lines) == 3
        rows = np.array([[float(x) for x in line.split(",")] for line in lines])
        thetas, xi2 = rows[:, 0], 10.0 ** (rows[:, 1] / 10.0)
        assert np.array_equal(thetas, [0.0, 0.001, 0.002])
        want = np.concatenate([[1.0], kitagawa_ueda_xi2(10_000, thetas[1:])])
        np.testing.assert_allclose(xi2, want, rtol=1e-10, atol=0.0)
