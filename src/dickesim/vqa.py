"""Variational squeezing loop: cost = xi^2_S of a fixed three-parameter
ansatz, finite-difference gradients, and GD / Adam / QNG optimizers.  QNG
reads the ansatz's ket straight off the state, which noiseless gates keep as
a ket; the only eigendecomposition it adds is the one of its small metric.

``fit`` runs each distinct circuit once.  The 2*dim probe states of an
iteration give the gradient their costs and, under QNG, the metric their
kets; the metric's centre ket is read off the state of the current point.
The intermediate states of that point are kept, so a probe, which moves
one angle, reruns only the gates from that angle on.

The ansatz prepares the equatorial coherent state with RN(pi/2, 0) and then
applies OAT(t1, z), TNT(t2, zx), TAT(t3, zy).  Two readings of the TNT
coupling argument are supported:

* "table1":          the supplied value is Lambda itself, so the gate is
                     exp(-i theta (J_z^2 - (N/Lambda) J_x));
* "appendix-omega":  the supplied value omega is the accumulated linear
                     coefficient in the exponent, so the gate is
                     exp(-i (theta J_z^2 - omega J_x)), i.e.
                     Lambda = N * theta / omega.

In the ansatz the coupling value is t2 under either reading (omega = t2, so
under "appendix-omega" Lambda = N and both exponent terms carry t2).  The
default reading is the one that reproduces the published optimum-cost table
to all printed digits, see README.  With t2 = 0 the gate is the identity
regardless of coupling, so Lambda degenerates to 1 to stay in the valid
domain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dicke import CollectiveState, _integer, _real, _reals, _shown, build_ledger, ground_state
from .errors import DegenerateFrameError, DomainError, NumericError, UnsupportedConfigError
from .gates import Circuit, GateSpec, apply_circuit, apply_gate
from .squeezing import get_xi_2_S

__all__ = [
    "TNT_COUPLING_READINGS",
    "DEFAULT_TNT_COUPLING",
    "tnt_coupling_value",
    "Ansatz",
    "OptimizerConfig",
    "AdamState",
    "FitResult",
    "cost",
    "grad_findiff",
    "gd_step",
    "adam_step",
    "fubini_study_metric",
    "qng_step",
    "fit",
]

TNT_COUPLING_READINGS = ("table1", "appendix-omega")
DEFAULT_TNT_COUPLING = "appendix-omega"


def _check_reading(reading: str) -> None:
    if reading not in TNT_COUPLING_READINGS:
        raise DomainError(
            f"tnt coupling reading must be one of {TNT_COUPLING_READINGS}, got {_shown(reading)}"
        )


def tnt_coupling_value(
    n_particles: int, theta: float, omega: float, reading: str
) -> float:
    """Translate a TNT coupling argument into the catalog's Lambda.

    ``theta`` is the gate angle the TNT will be driven with; it only matters
    under the "appendix-omega" reading, where Lambda = N * theta / omega.
    """
    _check_reading(reading)
    if theta == 0.0:
        # the gate is exp(-i 0 G) = identity for any finite coupling
        return 1.0
    if reading == "table1":
        return omega
    if omega == 0.0:
        # no linear term at all: N/Lambda = 0, plain one-axis twisting
        return float("inf")
    if theta == omega:
        # the ansatz case; N * t / t misses N by one ulp for some t, and an
        # exact N keeps the gate's cached eigenpairs independent of t
        return float(n_particles)
    return n_particles * theta / omega


@dataclass(frozen=True)
class Ansatz:
    """RN(pi/2, 0) preparation followed by OAT(z), TNT(zx), TAT(zy)."""

    n_particles: int
    tnt_coupling: str = DEFAULT_TNT_COUPLING

    def __post_init__(self):
        build_ledger(self.n_particles)  # rejects N < 1 here, not at the first cost
        _check_reading(self.tnt_coupling)  # and an unknown reading

    @property
    def n_params(self) -> int:
        return 3

    def _angles(self, theta: Sequence[float], name: str) -> np.ndarray:
        """theta as ``n_params`` finite numbers, each read by ``_reals``;
        another count or a NaN or infinite entry raises DomainError."""
        theta = _reals(theta, name)
        if theta.shape != (self.n_params,):
            raise DomainError(f"need {self.n_params} {name}s, got {theta.size}")
        if not np.isfinite(theta).all():
            raise DomainError(f"{name}s must be finite, got {theta.tolist()}")
        return theta

    def build(self, theta: Sequence[float]) -> Circuit:
        t1, t2, t3 = self._angles(theta, "ansatz angle").tolist()
        lam = tnt_coupling_value(self.n_particles, t2, t2, self.tnt_coupling)
        return Circuit(
            n_particles=self.n_particles,
            instructions=(
                GateSpec("RN", (np.pi / 2.0, 0.0)),
                GateSpec("OAT", (t1,), axes="z"),
                GateSpec("TNT", (t2, lam), axes="zx"),
                GateSpec("TAT", (t3,), axes="zy"),
            ),
        )


def cost(theta: Sequence[float], ansatz: Ansatz) -> float:
    """xi^2_S of the ansatz state evolved from the ground state."""
    state = apply_circuit(ansatz.build(theta), ground_state(ansatz.n_particles))
    return get_xi_2_S(state)


def _probe_points(theta: np.ndarray, eps_fd: float) -> list[np.ndarray]:
    """theta + eps_fd e_0, theta - eps_fd e_0, theta + eps_fd e_1, ...: the
    2*dim points of a central difference, in the order it reads them."""
    probes = []
    for k in range(theta.size):
        for sign in (+1.0, -1.0):
            p = theta.copy()
            p[k] += sign * eps_fd
            probes.append(p)
    return probes


def _check_step(eps_fd: float) -> None:
    eps_fd = _real(eps_fd, "eps_fd")
    if not 0 < eps_fd < np.inf:
        raise DomainError(f"eps_fd must be finite and > 0, got {eps_fd}")


def _central_difference(values, eps_fd: float) -> np.ndarray:
    """Row k is (f(theta + eps_fd e_k) - f(theta - eps_fd e_k)) / (2 eps_fd),
    from f's values (scalars or vectors) at ``_probe_points``."""
    values = np.asarray(values)
    return (values[0::2] - values[1::2]) / (2.0 * eps_fd)


def grad_findiff(
    fn: Callable[[np.ndarray], float],
    theta: np.ndarray,
    eps_fd: float,
) -> np.ndarray:
    """Central differences per coordinate: 2*dim independent evaluations."""
    _check_step(eps_fd)
    theta = np.asarray(theta, dtype=float)
    return _central_difference([fn(p) for p in _probe_points(theta, eps_fd)], eps_fd)


def gd_step(theta: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    return np.asarray(theta) - eta * np.asarray(grad)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(m=np.zeros(dim), v=np.zeros(dim), t=0)


def adam_step(
    state: AdamState,
    theta: np.ndarray,
    grad: np.ndarray,
    eta: float = 0.01,
    beta1: float = 0.8,
    beta2: float = 0.999,
    eps: float = 1e-10,
) -> tuple[np.ndarray, AdamState]:
    """Bias-corrected Adam update with elementwise squared-gradient moments."""
    grad = np.asarray(grad)
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    theta_new = np.asarray(theta) - eta * m_hat / (np.sqrt(v_hat) + eps)
    return theta_new, AdamState(m=m, v=v, t=t)


def _gate_bits(spec: GateSpec) -> tuple:
    """A gate's identity down to the bit patterns of its floats, so that
    -0.0 and 0.0 differ."""
    noise = None if spec.noise is None else spec.noise.hex()
    return spec.kind, spec.axes, noise, tuple(p.hex() for p in spec.params)


class _AnsatzRunner:
    """Runs the ansatz from the ground state, keeping the state after each
    gate of one anchor point but its last.

    A circuit reuses the longest gate prefix it shares with the anchor's and
    applies only the gates after it.  Each of those runs the same
    ``apply_gate`` on the same input as a run from scratch, so every state is
    bit for bit that run's.  The states of other points are not kept.
    """

    def __init__(self, ansatz: Ansatz):
        self.ansatz = ansatz
        self._gates: list[tuple] = []  # _states[i] is the state after _gates[i]
        self._states: list[CollectiveState] = []

    def run(self, theta: np.ndarray, anchor: bool = False) -> CollectiveState:
        """The final state of the circuit at ``theta``; ``anchor`` keeps the
        gate-by-gate states for the points that follow."""
        specs = self.ansatz.build(theta).instructions
        gates = [_gate_bits(spec) for spec in specs]
        shared = 0
        for new, old in zip(gates, self._gates):
            if new != old:
                break
            shared += 1
        if anchor:  # the old anchor's later states go before new ones are made
            del self._gates[shared:], self._states[shared:]
        state = self._states[shared - 1] if shared else ground_state(self.ansatz.n_particles)
        for i in range(shared, len(specs)):
            state = apply_gate(state, specs[i])
            if anchor and i < len(specs) - 1:  # the final state is no probe's prefix
                self._gates.append(gates[i])
                self._states.append(state)
        return state


def _read_ket(state: CollectiveState) -> np.ndarray:
    """Pure-state vector of a noiseless ansatz state, the ket it is held as,
    in the gauge where psi_p is real and positive at p = argmax |psi_p|^2."""
    if state._ket is None:
        raise UnsupportedConfigError(
            "state is held as a density matrix, possibly mixed; QNG needs a pure ket"
        )
    psi = state._ket[1]
    pivot = psi[int(np.argmax(np.abs(psi)))]
    return psi * (pivot.conjugate() / abs(pivot))


def _align(vec: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate the global phase so <reference|vec> is real positive; keeps the
    finite-difference gauge smooth across probe points."""
    overlap = np.vdot(reference, vec)
    if abs(overlap) < 1e-12:
        raise NumericError("probe state orthogonal to reference; step too large")
    return vec * (abs(overlap) / overlap)


def _metric(center: np.ndarray, kets: list[np.ndarray], eps_fd: float) -> np.ndarray:
    """g_kl = Re[<d_k psi|d_l psi> - <d_k psi|psi><psi|d_l psi>], with the
    derivatives central differences of the probe kets aligned to ``center``."""
    derivs = _central_difference([_align(v, center) for v in kets], eps_fd)
    dim = len(derivs)
    g = np.empty((dim, dim))
    for k in range(dim):
        for l in range(dim):
            term = np.vdot(derivs[k], derivs[l])
            berry = np.vdot(derivs[k], center) * np.vdot(center, derivs[l])
            g[k, l] = (term - berry).real
    return 0.5 * (g + g.T)


def fubini_study_metric(theta: np.ndarray, ansatz: Ansatz, eps_fd: float) -> np.ndarray:
    """g_kl = Re[<d_k psi|d_l psi> - <d_k psi|psi><psi|d_l psi>] with central
    finite differences on the phase-aligned pure-state vector."""
    _check_step(eps_fd)
    theta = np.asarray(theta, dtype=float)
    runner = _AnsatzRunner(ansatz)
    center = _read_ket(runner.run(theta, anchor=True))
    kets = [_read_ket(runner.run(p)) for p in _probe_points(theta, eps_fd)]
    return _metric(center, kets, eps_fd)


def qng_step(
    theta: np.ndarray, grad: np.ndarray, g: np.ndarray, eta: float
) -> np.ndarray:
    """theta - eta * pinv(g) @ grad, pseudo-inverse by one eigendecomposition.

    Eigenvalues <= 1e-3 x the largest are discarded.  The Fubini-Study metric
    of the twisting ansatz spans ~8 decades, and a near-flat direction kept in
    the inverse catapults theta out of the basin; a cutoff relative to the
    spectrum stays scale-free across N, where a fixed absolute one that works
    at N = 100 would zero the whole step at small N.  A NaN or infinite
    entry of g or grad raises NumericError.
    """
    if not (np.isfinite(g).all() and np.isfinite(grad).all()):
        raise NumericError("QNG metric or gradient is not finite")
    evals, evecs = np.linalg.eigh(0.5 * (g + g.T))
    inv = np.zeros_like(evals)
    keep = evals > 1e-3 * evals[-1]
    inv[keep] = 1.0 / evals[keep]
    g_pinv = (evecs * inv) @ evecs.conj().T
    return np.asarray(theta) - eta * (g_pinv @ np.asarray(grad))


@dataclass(frozen=True)
class OptimizerConfig:
    """The five settings of a fit; Adam's moments take ``adam_step``'s
    defaults and QNG's pseudo-inverse cutoff is ``qng_step``'s."""

    kind: str  # "gd" | "adam" | "qng"
    learning_rate: float
    max_iter: int = 200
    tolerance: float = 1e-19
    # 1e-3, not the roundoff-optimal ~1e-5: at large N the cost oscillates on
    # a Delta-theta scale comparable to 1/N and a too-small step chases those
    # wiggles; 1e-3 averages over them and is what lets plain GD descend.
    eps_fd: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("gd", "adam", "qng"):
            raise DomainError(f"unknown optimizer kind {_shown(self.kind)}")
        rate = _real(self.learning_rate, "learning_rate")
        if not 0 < rate < np.inf:
            raise DomainError(f"learning_rate must be finite and > 0, got {rate}")
        _integer(self.max_iter, "max_iter", 1)
        tolerance = _real(self.tolerance, "tolerance")
        if not tolerance >= 0:
            raise DomainError(f"tolerance must be >= 0, got {tolerance}")
        _check_step(self.eps_fd)


@dataclass
class FitResult:
    theta_star: np.ndarray
    cost_history: list[float]
    iteration_times: list[float]
    converged: bool
    theta_history: list[np.ndarray] = field(default_factory=list)


def fit(
    ansatz: Ansatz,
    config: OptimizerConfig,
    initial: Sequence[float] | None = None,
    seed: int | None = None,
) -> FitResult:
    """Iterate the configured optimizer from ``initial`` (or a seeded random
    start in [-0.1, 0.1)) until |delta cost| < tolerance or max_iter.

    Each distinct circuit runs once: the 2*dim probe states of an iteration
    give their costs to the gradient and, under QNG, their kets to the
    metric, whose centre ket is the current point's.  The intermediate
    states of the current point are kept, so a probe reruns only the gates
    from its moved angle on.  Every gate sees the input it would see in a
    run from scratch, so the histories are those of ``cost``,
    ``grad_findiff`` and ``fubini_study_metric`` bit for bit.

    An ``initial`` that is not ``n_params`` finite numbers, or a ``seed``
    that is not an integer >= 0, raises DomainError before any circuit runs.

    A degenerate mean-spin frame mid-run (DegenerateFrameError) stops the
    loop and returns the partial history with converged=False; any other
    NumericError, such as a step whose phases overflow, propagates.
    """
    if seed is not None:
        seed = _integer(seed, "seed", 0)
    if initial is None:
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-0.1, 0.1, ansatz.n_params)
    else:
        theta = ansatz._angles(initial, "initial parameter")

    runner = _AnsatzRunner(ansatz)
    qng = config.kind == "qng"

    def read(t: np.ndarray, anchor: bool = False) -> tuple[float, np.ndarray | None]:
        # the cost and, under QNG, the ket at t; the state itself is dropped
        state = runner.run(t, anchor)
        return get_xi_2_S(state), _read_ket(state) if qng else None

    adam = AdamState.zeros(theta.size)
    value, center = read(theta, anchor=True)
    history = [value]
    thetas = [theta.copy()]
    times: list[float] = []
    converged = False
    for _ in range(config.max_iter):
        start = time.perf_counter()
        try:
            probes = [read(p) for p in _probe_points(theta, config.eps_fd)]
            grad = _central_difference([c for c, _ in probes], config.eps_fd)
            if config.kind == "gd":
                theta = gd_step(theta, grad, config.learning_rate)
            elif config.kind == "adam":
                theta, adam = adam_step(adam, theta, grad, eta=config.learning_rate)
            else:
                g = _metric(center, [ket for _, ket in probes], config.eps_fd)
                theta = qng_step(theta, grad, g, config.learning_rate)
            value, center = read(theta, anchor=True)
        except DegenerateFrameError:
            break
        history.append(value)
        thetas.append(theta.copy())
        times.append(time.perf_counter() - start)
        if abs(history[-1] - history[-2]) < config.tolerance:
            converged = True
            break
    return FitResult(
        theta_star=theta,
        cost_history=history,
        iteration_times=times,
        converged=converged,
        theta_history=thetas,
    )
