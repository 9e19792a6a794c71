"""Variational loop: cost, gradients, optimizer steps, metric, fit driver."""

import numpy as np
import pytest

from dickesim import (
    AdamState,
    Ansatz,
    DegenerateFrameError,
    DomainError,
    NumericError,
    OptimizerConfig,
    UnsupportedConfigError,
    adam_step,
    cost,
    fit,
    fubini_study_metric,
    gd_step,
    grad_findiff,
    qng_step,
    tnt_coupling_value,
)


class TestTntCouplingValue:
    def test_table1_passthrough(self):
        assert tnt_coupling_value(50, 0.3, 2.5, "table1") == 2.5

    def test_accumulated_coefficient(self):
        # exponent -i (theta Jz^2 - omega Jx) means Lambda = N theta / omega
        assert tnt_coupling_value(100, 0.2, 0.1, "appendix-omega") == pytest.approx(200.0)

    def test_equal_angle_gives_n(self):
        assert tnt_coupling_value(64, 0.37, 0.37, "appendix-omega") == pytest.approx(64.0)

    def test_equal_angle_gives_n_exactly(self):
        # N * t / t misses N by one ulp for about one t in eight
        ts = np.random.default_rng(7).uniform(-1.0, 1.0, 10_000)
        assert any(100 * t / t != 100.0 for t in ts)
        assert all(tnt_coupling_value(100, t, t, "appendix-omega") == 100.0 for t in ts)

    def test_zero_theta_degenerates_to_identity_gate(self):
        assert tnt_coupling_value(10, 0.0, 0.5, "appendix-omega") == 1.0

    def test_zero_theta_under_table1(self):
        # omega = t2 = 0 would be an out-of-domain Lambda under table1
        assert tnt_coupling_value(10, 0.0, 0.0, "table1") == 1.0
        assert tnt_coupling_value(10, 0.0, 2.5, "table1") == 1.0
        theta = (0.1, 0.0, 0.1)
        assert cost(theta, Ansatz(10, "table1")) == cost(theta, Ansatz(10, "appendix-omega"))

    def test_zero_omega_is_pure_twisting(self):
        assert tnt_coupling_value(10, 0.4, 0.0, "appendix-omega") == np.inf

    def test_unknown_reading(self):
        with pytest.raises(DomainError):
            tnt_coupling_value(10, 0.1, 0.1, "figure")

    def test_ansatz_rejects_an_unknown_reading(self):
        # at construction, not at the first cost
        with pytest.raises(DomainError, match="tnt coupling reading"):
            Ansatz(10, "nope")


class TestCost:
    def test_zero_angles_cost_one(self):
        # no twisting: the prepared coherent state has xi^2_S = 1
        for n in (4, 25, 100):
            assert cost([0.0, 0.0, 0.0], Ansatz(n)) == pytest.approx(1.0, abs=1e-10)

    def test_oat_only_squeezes(self):
        a = Ansatz(30)
        assert cost([0.05, 0.0, 0.0], a) < 1.0

    @pytest.mark.parametrize("n", [0, -3])
    def test_ansatz_rejects_fewer_than_one_particle(self, n):
        with pytest.raises(DomainError, match=f"particle count must be >= 1, got {n}"):
            Ansatz(n)

    def test_reading_changes_cost(self):
        theta = [0.01, 0.1, 0.02]
        assert cost(theta, Ansatz(20, "table1")) != pytest.approx(
            cost(theta, Ansatz(20, "appendix-omega")), abs=1e-6
        )


class TestGradient:
    def test_quadratic_exact(self):
        fn = lambda t: float(3.0 * t[0] ** 2 - 2.0 * t[1] + t[0] * t[1])
        grad = grad_findiff(fn, np.array([1.0, 2.0]), 1e-4)
        # central differences are exact on quadratics up to roundoff
        np.testing.assert_allclose(grad, [8.0, -1.0], atol=1e-8)

    def test_step_domain(self):
        with pytest.raises(DomainError):
            grad_findiff(lambda t: 0.0, np.zeros(2), 0.0)

    @pytest.mark.parametrize("eps_fd", [np.nan, np.inf, -np.inf])
    def test_step_must_be_finite(self, eps_fd):
        # OptimizerConfig's rule: a NaN step let through gives a NaN gradient
        with pytest.raises(DomainError, match="eps_fd must be finite and > 0"):
            grad_findiff(lambda t: 0.0, np.zeros(2), eps_fd)

    def test_quadratic_convergence_order(self):
        # central differences: halving eps shrinks the truncation error 4x;
        # the reference is Richardson extrapolation of the two finest steps.
        a = Ansatz(12)
        fn = lambda t: cost(t, a)
        theta = np.array([0.03, 0.04, 0.02])
        eps = 1e-2
        g1 = grad_findiff(fn, theta, eps)
        g2 = grad_findiff(fn, theta, eps / 2)
        g4 = grad_findiff(fn, theta, eps / 4)
        reference = (4.0 * g4 - g2) / 3.0
        e1 = np.linalg.norm(g1 - reference)
        e2 = np.linalg.norm(g2 - reference)
        assert e2 < e1 / 3.0  # ~1/4 up to higher-order terms

    def test_matches_fine_step_reference(self):
        rng = np.random.default_rng(7)
        a = Ansatz(20)
        fn = lambda t: cost(t, a)
        for _ in range(3):
            theta = rng.uniform(-0.02, 0.02, 3)
            coarse = grad_findiff(fn, theta, 1e-4)
            fine = grad_findiff(fn, theta, 1e-6)
            assert np.linalg.norm(coarse - fine) <= 1e-3 * np.linalg.norm(fine)


class TestSteps:
    def test_gd(self):
        np.testing.assert_allclose(
            gd_step(np.array([1.0, -1.0]), np.array([2.0, 4.0]), 0.1),
            [0.8, -1.4],
        )

    def test_adam_first_step_is_signed_lr(self):
        # with bias correction the first update is -eta * sign(grad) up to eps
        theta, state = adam_step(
            AdamState.zeros(2), np.zeros(2), np.array([0.3, -40.0]), eta=0.01
        )
        np.testing.assert_allclose(theta, [-0.01, 0.01], atol=1e-8)
        assert state.t == 1

    def test_adam_moments_accumulate(self):
        state = AdamState.zeros(1)
        theta = np.zeros(1)
        grad = np.array([2.0])
        theta, state = adam_step(state, theta, grad, eta=0.5, beta1=0.8, beta2=0.999)
        assert state.m[0] == pytest.approx(0.4)       # (1-beta1)*g
        assert state.v[0] == pytest.approx(0.004)     # (1-beta2)*g^2
        theta, state = adam_step(state, theta, grad, eta=0.5, beta1=0.8, beta2=0.999)
        assert state.t == 2
        assert state.m[0] == pytest.approx(0.8 * 0.4 + 0.2 * 2.0)

    def test_qng_reduces_to_gd_on_identity_metric(self):
        theta = np.array([0.5, -0.2, 0.1])
        grad = np.array([1.0, 2.0, -3.0])
        np.testing.assert_allclose(
            qng_step(theta, grad, np.eye(3), 0.05),
            gd_step(theta, grad, 0.05),
        )

    def test_qng_confines_step_to_nonsingular_subspace(self):
        g = np.diag([4.0, 0.0])
        stepped = qng_step(np.zeros(2), np.array([8.0, 8.0]), g, 1.0)
        np.testing.assert_allclose(stepped, [-2.0, 0.0], atol=1e-12)

    def test_qng_cutoff_is_relative_to_largest_eigenvalue(self):
        # eigenvalues <= 1e-3 x the largest are dropped, larger ones kept
        grad = np.array([1.0, 1.0])
        dropped = qng_step(np.zeros(2), grad, np.diag([1.0, 1e-3]), 1.0)
        np.testing.assert_array_equal(dropped, [-1.0, 0.0])
        kept = qng_step(np.zeros(2), grad, np.diag([1.0, 1.001e-3]), 1.0)
        np.testing.assert_allclose(kept, [-1.0, -1.0 / 1.001e-3], rtol=1e-12)


class TestMetric:
    def test_single_rotation_variance(self):
        # one RZ layer on an equatorial coherent state: g = Var(Jz) = N/4
        n = 4

        class RzAnsatz(Ansatz):
            def build(self, theta):
                from dickesim.gates import Circuit, GateSpec

                return Circuit(n, (
                    GateSpec("RN", (np.pi / 2, 0.0)),
                    GateSpec("RZ", (float(theta[0]),)),
                ))

        g = fubini_study_metric(np.array([0.3]), RzAnsatz(n), 1e-4)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(n / 4, abs=1e-4)

    def test_symmetric_and_psd(self):
        a = Ansatz(12)
        g = fubini_study_metric(np.array([0.02, 0.08, 0.03]), a, 1e-4)
        np.testing.assert_allclose(g, g.T, atol=1e-8)
        assert np.linalg.eigvalsh(g).min() > -1e-8

    @pytest.mark.parametrize("n", [12, 100])
    @pytest.mark.parametrize(
        "theta",
        [
            (0.00195902, 0.14166777, 0.01656466),  # published start
            (-0.06292, 0.07942, -0.02455),  # published optimum
            (0.0374, -0.0912, 0.0581),  # a random point
        ],
        ids=["start", "optimum", "random"],
    )
    def test_ket_read_off_rho_matches_eigenvector(self, n, theta, monkeypatch):
        # reference: recover the ket as the dominant eigenvector of the
        # block, phase fixed on its largest entry
        from dickesim import vqa

        reads = []

        def eigh_vector(state):
            reads.append(state)
            (j,) = state.active_js
            evals, evecs = np.linalg.eigh(state.block(j))
            assert evals[-1] > 1.0 - 1e-8
            vec = evecs[:, -1]
            pivot = np.argmax(np.abs(vec))
            return vec * np.exp(-1j * np.angle(vec[pivot]))

        ansatz = Ansatz(n)
        theta = np.array(theta)
        g = fubini_study_metric(theta, ansatz, 1e-3)
        with monkeypatch.context() as m:
            m.setattr(vqa, "_read_ket", eigh_vector)
            reference = fubini_study_metric(theta, ansatz, 1e-3)
        assert len(reads) == 7  # the centre and six probes went through the patch
        assert np.abs(g - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_mixed_state_rejected(self, monkeypatch):
        # a noiseless circuit from the ground state stays pure, so feed the
        # metric a maximally mixed single block directly
        from dickesim import vqa
        from dickesim.dicke import CollectiveState, build_ledger

        mixed = CollectiveState(build_ledger(2), {1.0: np.eye(3) / 3.0})
        monkeypatch.setattr(vqa, "apply_gate", lambda state, spec: mixed)
        with pytest.raises(UnsupportedConfigError, match="mixed"):
            fubini_study_metric(np.zeros(3), Ansatz(2), 1e-4)

    def test_noisy_ansatz_rejected(self):
        class NoisyAnsatz(Ansatz):
            def build(self, theta):
                circuit = super().build(theta)
                from dataclasses import replace
                from dickesim.gates import Circuit

                noisy = tuple(
                    replace(spec, noise=0.1) for spec in circuit.instructions
                )
                return Circuit(circuit.n_particles, noisy)

        with pytest.raises(UnsupportedConfigError):
            fubini_study_metric(np.zeros(3), NoisyAnsatz(4), 1e-4)


class TestFit:
    def test_deterministic_random_init(self):
        cfg = OptimizerConfig(kind="gd", learning_rate=1e-3, max_iter=3, eps_fd=1e-3)
        a = Ansatz(10)
        r1 = fit(a, cfg, seed=11)
        r2 = fit(a, cfg, seed=11)
        np.testing.assert_array_equal(r1.theta_star, r2.theta_star)
        assert r1.cost_history == r2.cost_history
        r3 = fit(a, cfg, seed=12)
        assert not np.array_equal(r1.theta_history[0], r3.theta_history[0])

    def test_history_lengths(self):
        cfg = OptimizerConfig(kind="adam", learning_rate=0.01, max_iter=5, eps_fd=1e-3)
        res = fit(Ansatz(8), cfg, [0.01, 0.02, 0.03])
        assert len(res.cost_history) == 6  # initial cost + one per iteration
        assert len(res.theta_history) == 6
        assert len(res.iteration_times) == 5

    def test_gd_descends_small_n(self):
        cfg = OptimizerConfig(kind="gd", learning_rate=1e-3, max_iter=30, eps_fd=1e-3)
        res = fit(Ansatz(20), cfg, [0.01, 0.01, 0.01])
        assert res.cost_history[-1] < res.cost_history[0]

    def test_qng_descends_small_n(self):
        # the default spectrum-scaled pinv cutoff must not zero out steps on
        # small problems where the metric itself is O(1)
        cfg = OptimizerConfig(kind="qng", learning_rate=0.03, max_iter=25)
        res = fit(Ansatz(10), cfg, [0.01, 0.01, 0.01])
        assert res.cost_history[-1] < res.cost_history[0]

    def test_tolerance_stops_early(self):
        cfg = OptimizerConfig(
            kind="gd", learning_rate=1e-12, max_iter=50, eps_fd=1e-3, tolerance=1e-6
        )
        res = fit(Ansatz(6), cfg, [0.01, 0.01, 0.01])
        assert res.converged
        assert len(res.cost_history) < 51

    def test_only_a_degenerate_frame_stops_quietly(self, monkeypatch):
        # a step whose phases overflow raises; a degenerate frame mid-run
        # returns the partial history, unconverged
        from dickesim import vqa

        cfg = OptimizerConfig(kind="gd", learning_rate=1e305, max_iter=5)
        with pytest.raises(NumericError) as info:
            fit(Ansatz(20), cfg, [0.1, 0.1, 0.1])
        assert not isinstance(info.value, DegenerateFrameError)
        costs = iter([1.0])

        def degenerate_after_the_first(state):
            try:
                return next(costs)
            except StopIteration:
                raise DegenerateFrameError("mean spin vanishes") from None

        monkeypatch.setattr(vqa, "get_xi_2_S", degenerate_after_the_first)
        cfg = OptimizerConfig(kind="gd", learning_rate=1e-3, max_iter=5)
        res = fit(Ansatz(6), cfg, [0.01, 0.01, 0.01])
        assert res.cost_history == [1.0] and not res.converged

    def test_wrong_parameter_count(self):
        cfg = OptimizerConfig(kind="gd", learning_rate=1e-3, max_iter=1)
        with pytest.raises(DomainError):
            fit(Ansatz(6), cfg, [0.1, 0.2])

    def test_non_finite_initial_rejected_before_any_cost(self, monkeypatch):
        from dickesim import vqa

        def no_gate(state, spec):
            raise AssertionError("circuit run")

        monkeypatch.setattr(vqa, "apply_gate", no_gate)
        monkeypatch.setattr(vqa, "apply_circuit", no_gate)
        cfg = OptimizerConfig(kind="qng", learning_rate=0.03, max_iter=1)
        for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]):
            with pytest.raises(DomainError, match="initial"):
                fit(Ansatz(6), cfg, bad)

    @pytest.mark.parametrize("kind, lr", [("gd", 1e-3), ("adam", 0.01), ("qng", 0.03)])
    def test_matches_from_scratch_loop_bit_for_bit(self, kind, lr):
        # every point rebuilt with the public functions, none reused
        a = Ansatz(12)
        cfg = OptimizerConfig(kind=kind, learning_rate=lr, max_iter=3)
        fn = lambda t: cost(t, a)
        theta = np.array([0.00195902, 0.14166777, 0.01656466])
        adam = AdamState.zeros(3)
        costs, thetas = [fn(theta)], [theta.copy()]
        for _ in range(cfg.max_iter):
            grad = grad_findiff(fn, theta, cfg.eps_fd)
            if kind == "gd":
                theta = gd_step(theta, grad, lr)
            elif kind == "adam":
                theta, adam = adam_step(adam, theta, grad, eta=lr)
            else:
                theta = qng_step(theta, grad, fubini_study_metric(theta, a, cfg.eps_fd), lr)
            costs.append(fn(theta))
            thetas.append(theta.copy())
        res = fit(a, cfg, thetas[0])
        assert res.cost_history == costs
        assert len(res.theta_history) == len(thetas)
        assert all((got == want).all() for got, want in zip(res.theta_history, thetas))

    def test_each_distinct_gate_runs_once(self, monkeypatch):
        # one QNG iteration of the 4-gate ansatz: the start point, then the
        # probes of t1, t2, t3 rerun 3, 2 and 1 gates each, and the new
        # point all but the shared RN preparation
        from dickesim import gates, vqa

        calls = []
        real = gates.apply_gate

        def counted(state, spec):
            calls.append(spec.kind)
            return real(state, spec)

        monkeypatch.setattr(gates, "apply_gate", counted)
        monkeypatch.setattr(vqa, "apply_gate", counted)
        cfg = OptimizerConfig(kind="qng", learning_rate=0.03, max_iter=1)
        res = fit(Ansatz(8), cfg, [0.01, 0.02, 0.03])
        assert len(res.cost_history) == 2
        assert len(calls) == 4 + 6 + 4 + 2 + 3

    def test_signed_zero_is_a_different_gate(self, monkeypatch):
        # gates are compared by bit pattern, so a point at RZ(-0.0) reruns
        # the RZ instead of reusing the anchor's state after RZ(0.0)
        from dickesim import vqa
        from dickesim.gates import Circuit, GateSpec

        class RzAnsatz(Ansatz):
            def build(self, theta):
                return Circuit(self.n_particles, (
                    GateSpec("RZ", (float(theta[0]),)),
                    GateSpec("RX", (0.5,)),
                ))

        calls = []
        real = vqa.apply_gate
        monkeypatch.setattr(
            vqa, "apply_gate", lambda state, spec: calls.append(spec) or real(state, spec)
        )
        runner = vqa._AnsatzRunner(RzAnsatz(4))
        runner.run(np.array([0.0]), anchor=True)
        reused = runner.run(np.array([0.0]))
        rerun = runner.run(np.array([-0.0]))
        assert [(s.kind, str(s.params[0])) for s in calls] == [
            ("RZ", "0.0"), ("RX", "0.5"), ("RX", "0.5"), ("RZ", "-0.0"), ("RX", "0.5")
        ]
        np.testing.assert_allclose(reused.block(2.0), rerun.block(2.0), atol=1e-15)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", np.nan),
            ("learning_rate", np.inf),
            ("learning_rate", -np.inf),
            ("eps_fd", np.nan),
            ("eps_fd", np.inf),
            ("tolerance", np.nan),
            ("tolerance", -1.0),
        ],
    )
    def test_config_rejects_non_finite(self, field, value):
        kwargs = {"kind": "gd", "learning_rate": 0.1, field: value}
        with pytest.raises(DomainError, match=field):
            OptimizerConfig(**kwargs)

    def test_config_fields_are_the_cli_settings(self, monkeypatch):
        # every OptimizerConfig field is one that `dickesim vqa` sets
        import dataclasses

        from dickesim import cli

        class Captured(Exception):
            pass

        seen = {}

        def capture(**kwargs):
            seen.update(kwargs)
            raise Captured

        monkeypatch.setattr(cli, "OptimizerConfig", capture)
        with pytest.raises(Captured):
            cli.main(["vqa", "--n", "4", "--max-iter", "1"])
        fields = {f.name for f in dataclasses.fields(OptimizerConfig)}
        assert fields == set(seen) == {
            "kind", "learning_rate", "max_iter", "tolerance", "eps_fd"
        }

    @pytest.mark.parametrize("eps_fd", [0.0, -1e-3, np.nan, np.inf])
    def test_metric_step_domain(self, eps_fd):
        # 0 divided by zero, with a RuntimeWarning, before any check
        with pytest.raises(DomainError, match="eps_fd must be finite and > 0"):
            fubini_study_metric(np.zeros(3), Ansatz(4), eps_fd)

    @pytest.mark.parametrize("max_iter", [1.5, 2.0, True, "3"])
    def test_config_max_iter_must_be_an_integer(self, max_iter):
        # 1.5 was accepted and fit() ended in range's TypeError
        with pytest.raises(DomainError, match="max_iter must be an integer"):
            OptimizerConfig("gd", 0.1, max_iter=max_iter)
        assert OptimizerConfig("gd", 0.1, max_iter=np.int64(2)).max_iter == 2

    def test_config_validation(self):
        with pytest.raises(DomainError):
            OptimizerConfig(kind="sgd", learning_rate=0.1)
        with pytest.raises(DomainError):
            OptimizerConfig(kind="gd", learning_rate=0.0)
        with pytest.raises(DomainError):
            OptimizerConfig(kind="gd", learning_rate=0.1, max_iter=0)
        with pytest.raises(DomainError):
            OptimizerConfig(kind="gd", learning_rate=0.1, eps_fd=-1.0)
