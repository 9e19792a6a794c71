"""Collective depolarizing channel: hand examples, invariants, oracle checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclasses

from dickesim import (
    CollectiveState,
    DomainError,
    apply_circuit,
    build_ledger,
    depolarize,
    excited_state,
    expval,
    ghz_state,
    ground_state,
    probabilities,
    rho_prime,
)
from dickesim import noise
from dickesim.gates import Circuit
from dickesim.oracle import extract_collective as oracle_extract
from dickesim.oracle import full_run

from conftest import assert_valid_state, random_circuit, random_full_state


def total_trace(blocks):
    return sum(np.trace(b).real for b in blocks.values())


class TestRhoPrime:
    def test_ground_n2_hand_values(self):
        # ground = |1,-1>: the (+,-) ladder term lifts it to |1,0> with
        # weight (1/2)*A_same*g^2 = 1/2, (z,z) keeps |1,-1> with m^2*A_same
        # = 1/2, and the j->0 (+,-) term deposits 1/2 on |0,0>.
        prime = rho_prime(ground_state(2))
        np.testing.assert_allclose(prime[1.0], np.diag([0.0, 0.5, 0.5]), atol=1e-12)
        np.testing.assert_allclose(prime[0.0], [[0.5]], atol=1e-12)

    def test_excited_n2_mirror(self):
        # spin-flip mirror of the ground case: |1,1> -> {|1,0>, |1,1>, |0,0>}
        prime = rho_prime(excited_state(2))
        np.testing.assert_allclose(prime[1.0], np.diag([0.5, 0.5, 0.0]), atol=1e-12)
        np.testing.assert_allclose(prime[0.0], [[0.5]], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12])
    def test_trace_is_three_quarters_n(self, n):
        # sum_n s+s-/2 + s-s+/2 + sz^2 = N * (per-particle Casimir 3/4)
        assert total_trace(rho_prime(ground_state(n))) == pytest.approx(3 * n / 4)

    def test_trace_state_independent(self, rng):
        n = 5
        circuit = random_circuit(rng, n, 4)
        state = apply_circuit(circuit, ground_state(n))
        assert total_trace(rho_prime(state)) == pytest.approx(3 * n / 4)

    def test_ghz_populates_neighbor_block(self):
        prime = rho_prime(ghz_state(4))
        assert 1.0 in prime  # j_max - 1
        assert total_trace(prime) == pytest.approx(3.0)


class TestDepolarize:
    def test_epsilon_zero_is_identity(self):
        state = ground_state(6)
        assert depolarize(state, 0.0) is state

    @pytest.mark.parametrize("eps", [-0.1, 1.2, np.nan])
    def test_epsilon_domain(self, eps):
        with pytest.raises(DomainError):
            depolarize(ground_state(2), eps)

    def test_full_mixing_n2(self):
        # acceptance: eps=1 on the N=2 ground state leaves equal weight 1/3
        # on |1,0>, |1,-1>, |0,0>
        probs = probabilities(depolarize(ground_state(2), 1.0)).as_dict()
        assert probs[(1.0, 0.0)] == pytest.approx(1 / 3, abs=1e-10)
        assert probs[(1.0, -1.0)] == pytest.approx(1 / 3, abs=1e-10)
        assert probs[(0.0, 0.0)] == pytest.approx(1 / 3, abs=1e-10)
        assert probs.get((1.0, 1.0), 0.0) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0])
    def test_keeps_valid_state(self, n, eps, rng):
        circuit = random_circuit(rng, n, 3)
        state = depolarize(apply_circuit(circuit, ground_state(n)), eps)
        assert_valid_state(state)

    def test_repeated_application_converges_in_trace(self):
        state = ground_state(3)
        for _ in range(50):
            state = depolarize(state, 0.5)
        assert_valid_state(state)

    @given(eps=st.floats(0.0, 1.0), n=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_valid_for_any_epsilon(self, eps, n):
        assert_valid_state(depolarize(ghz_state(n), eps))


def compare_with_oracle(circuit, atol=1e-8):
    state = apply_circuit(circuit, ground_state(circuit.n_particles))
    expected = oracle_extract(full_run(circuit), circuit.n_particles)
    probs = probabilities(state).as_dict()
    for key, want in expected["probs"].items():
        assert probs.get(key, 0.0) == pytest.approx(want, abs=atol)
    for name, want in expected["expvals"].items():
        assert expval(state, name) == pytest.approx(want, abs=atol)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0])
    def test_channel_matches_full_space(self, n, eps, rng):
        circuit = random_circuit(rng, n, 4)
        last = circuit.instructions[-1]
        noisy = Circuit(
            n_particles=n,
            instructions=circuit.instructions[:-1]
            + (dataclasses.replace(last, noise=eps),),
        )
        compare_with_oracle(noisy)

    def test_noise_inside_circuit(self, rng):
        compare_with_oracle(random_circuit(rng, 4, 5, noise=0.1))


class TestBlockStructure:
    def test_lower_blocks_gain_weight_monotonically(self):
        n = 6
        state = ground_state(n)
        below = []
        for _ in range(4):
            state = depolarize(state, 0.4)
            weight = sum(
                np.trace(state.block(j)).real
                for j in state.active_js
                if j < n / 2
            )
            below.append(weight)
        assert all(b > a for a, b in zip(below, below[1:]))

    def test_single_particle_stays_in_place(self):
        # N=1 has only the j=1/2 block: the channel can only act within it
        state = depolarize(ground_state(1), 0.7)
        assert state.active_js == (0.5,)
        assert_valid_state(state)


class TestOnePass:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 80])
    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0])
    def test_matches_the_channel_built_from_rho_prime(self, n, eps, rng):
        state = random_full_state(rng, n)
        prime = rho_prime(state)
        scale = eps / total_trace(prime)
        want = {j: scale * b for j, b in prime.items()}
        for j, rho in state.items():
            want[j] = want[j] + (1.0 - eps) * rho if j in want else (1.0 - eps) * rho
        got = depolarize(state, eps)
        assert set(got.active_js) == set(want)
        tol = 1e-15 * max(np.abs(rho).max() for _, rho in state.items())
        for j, rho in got.items():
            assert np.abs(rho - want[j]).max() <= tol, f"block j = {j}"

    def test_term_cache_holds_vectors_only(self, rng):
        # cached d x d weight matrices would cost O(N^3) memory; the terms
        # keep O(2j) vectors per block
        n = 24
        depolarize(random_full_state(rng, n), 0.3)
        for b in build_ledger(n).blocks:
            terms, trace_weights = noise._transition_terms(n, b.dim - 1)
            arrays = [trace_weights] + [a for t in terms for a in t if isinstance(a, np.ndarray)]
            assert len(arrays) == 1 + 2 * len(terms)
            assert all(a.ndim == 1 and not a.flags.writeable for a in arrays)

    def test_term_cache_holds_a_whole_ledger(self):
        # N = 600 has 301 blocks, more than a 256-entry LRU holds: a channel
        # sweeping the ledger in order would miss on every block, every call.
        # A state on all 301 blocks takes about 0.6 GB, so this drives the
        # per-block lookup depolarize makes, in its order, twice.
        ledger = build_ledger(600)
        noise._transition_terms.cache_clear()
        for _ in range(2):
            for b in ledger.blocks:
                noise._transition_terms(600, b.dim - 1)
        info = noise._transition_terms.cache_info()
        assert (info.misses, info.hits) == (301, 301)
        # and a second depolarize at N = 600 looks up nothing new
        state = CollectiveState(ledger, {j: np.eye(int(2 * j) + 1) / 9.0 for j in (0.0, 1.0, 2.0)})
        depolarize(state, 0.3)
        depolarize(state, 0.3)
        assert noise._transition_terms.cache_info().misses == 301
