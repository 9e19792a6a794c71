"""Dicke-basis measurement: probabilities, shot sampling, expectation values
and Husimi grids.

First and second moments of J are read in closed form from the main, first
and second diagonals of each active block (J_z is diagonal, J_+/J_- shift m by
one), or from the shifted entries of a ket, so no operator matrix is built and
a moment costs O(2j+1) per block.  A state's moments are computed once and
kept with it.

The Husimi grid uses that coherent amplitudes factorize into a radial part
r_a(theta), a row of the one coherent-state kernel ``dicke._coherent_rows``,
and a phase e^{i a phi}.  For a ket psi, Q(theta, phi) = |A|^2 with A =
sum_a r_a psi_a e^{-i a phi}: one O(n_theta n_phi d) product.  For blocks,
Q(theta, phi) = s_0 + 2 Re sum_{k>0} s_k(theta) e^{i k phi}, with
s_k(theta) = sum_a r_a r_{a+k} rho_{a,a+k} the weighted sum over the k-th
diagonal.  The diagonal sums cost O(n_theta d^2) per block of dimension d,
and one phase product O(n_theta n_phi d_max) for the whole grid, instead of
O(n_theta n_phi d^2) per block for v^dagger rho v at every point.  Neither
readout of a ket, nor its probabilities |psi_a|^2, builds rho_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dicke import CollectiveState, _coherent_rows, _integer, _log_moduli, _reals, spin_bands
from .errors import DomainError, NumericError

__all__ = [
    "ProbTable",
    "ShotCounts",
    "OBSERVABLES",
    "moments",
    "probabilities",
    "sample",
    "expval",
    "husimi_grid",
    "prob_table_csv",
    "shot_counts_csv",
    "husimi_csv",
]

_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class ProbTable:
    """P(j, m) rows in ledger order (descending j, then descending m)."""

    entries: tuple[tuple[float, float, float], ...]

    def total(self) -> float:
        return float(sum(p for _, _, p in self.entries))

    def as_dict(self) -> dict[tuple[float, float], float]:
        return {(j, m): p for j, m, p in self.entries}


@dataclass(frozen=True)
class ShotCounts:
    shots: int
    counts: dict[tuple[float, float], int]
    seed: int


def probabilities(state: CollectiveState) -> ProbTable:
    """Block diagonals as exact outcome probabilities; inactive blocks are
    omitted, tiny negative floating-point residue is clamped to zero.  A ket
    psi gives |psi|^2, bit for bit the diagonal of its psi psi^dagger."""
    if state._ket is not None:
        j, psi = state._ket
        diags = [(j, np.square(psi.real) + np.square(psi.imag))]
    else:
        diags = ((j, rho.diagonal().real) for j, rho in state.items())
    entries = []
    for j, diag in diags:
        if not diag.min() >= -_CLAMP_TOL:  # written so that a NaN fails it too
            raise NumericError(
                f"negative or NaN probability {diag.min():.3e} in block j = {j}"
            )
        ms = state.ledger.m_values(j)
        for m, p in zip(ms, np.maximum(diag, 0.0)):
            entries.append((j, float(m), float(p)))
    return ProbTable(tuple(entries))


def sample(state: CollectiveState, shots: int, seed: int) -> ShotCounts:
    """Inverse-CDF sampling over the probability table, seeded and
    deterministic (PCG64); shots >= 1 and seed >= 0 are integers.  A state
    with no probability mass (or an infinite one) raises NumericError."""
    shots, seed = _integer(shots, "shots", 1), _integer(seed, "seed", 0)
    table = probabilities(state)
    p = np.array([row[2] for row in table.entries])
    cdf = np.cumsum(p)
    if not 0.0 < cdf[-1] < np.inf:  # written so that a NaN fails it too
        raise NumericError(f"cannot sample: total probability is {cdf[-1]}")
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(shots), side="right")
    idx = np.minimum(idx, len(p) - 1)
    hits = np.bincount(idx, minlength=len(p))
    counts = {
        (j, m): int(c) for (j, m, _), c in zip(table.entries, hits)
    }
    return ShotCounts(shots=shots, counts=counts, seed=seed)


# Each observable is a product of one or two components J_u, named by axis.
OBSERVABLES = {
    "Jx": ("x",),
    "Jy": ("y",),
    "Jz": ("z",),
    "J_plus": ("plus",),
    "J_minus": ("minus",),
    "Jx2": ("x", "x"),
    "Jy2": ("y", "y"),
    "Jz2": ("z", "z"),
    "J_plus2": ("plus", "plus"),
    "J_minus2": ("minus", "minus"),
}

_HERMITIAN_OBS = {name for name, axes in OBSERVABLES.items() if set(axes) <= {"x", "y", "z"}}

# J_u = u . (J_x, J_y, J_z) for each axis name
_AXIS_VECTORS = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
    "plus": np.array([1.0, 1.0j, 0.0]),
    "minus": np.array([1.0, -1.0j, 0.0]),
}

# rows: J_x, J_y, J_z in terms of (J_+, J_-, J_z)
_FROM_LADDER = np.array([[0.5, 0.5, 0.0], [-0.5j, 0.5j, 0.0], [0.0, 0.0, 1.0]])


def moments(state: CollectiveState) -> tuple[np.ndarray, np.ndarray]:
    """(<J_a>, <J_a J_b>) for a, b in (x, y, z), summed over active blocks.

    Both are complex (the second moment is not symmetric: <J_x J_y> -
    <J_y J_x> = i<J_z>).  With l_k = <m_k|J_+|m_k - 1> the superdiagonal of
    J_+ (storage index k, m_k = j - k), every <L_s L_t> for L in (J_+, J_-,
    J_z) is a weighted sum over one diagonal of rho_j.  For a state held as a
    ket psi they are <L_s L_t> = (L_s^dag psi)^dag (L_t psi), from the three
    O(2j) vectors L psi, and rho_j is never built.  The x, y, z moments
    follow by a 3x3 change of basis.  The pair is computed once per state and
    returned read-only.
    """
    if state._moments is None:
        state._moments = _compute_moments(state)
    return state._moments


def _compute_moments(state: CollectiveState) -> tuple[np.ndarray, np.ndarray]:
    if state._ket is not None:
        first, second = _ket_moments(state._ket[1])
    else:
        first, second = _block_moments(state)
    t = _FROM_LADDER
    pair = (t @ first, t @ second @ t.T)
    for a in pair:
        a.flags.writeable = False
    return pair


def _ket_moments(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(<L_t>, <L_s L_t>) for L in (J_+, J_-, J_z) of the ket psi."""
    bands = spin_bands(psi.size - 1)
    m, lad = bands["z"].diags[0], bands["plus"].diags[1][:-1]
    raised, lowered = np.zeros_like(psi), np.zeros_like(psi)
    raised[:-1] = lad * psi[1:]  # J_+ raises m, to the lower storage index
    lowered[1:] = lad * psi[:-1]
    ls = (raised, lowered, m * psi)
    first = np.array([np.vdot(psi, v) for v in ls])
    # L_s^dag psi is J_- psi, J_+ psi, J_z psi for s = +, -, z
    second = np.array([[np.vdot(ls[s], v) for v in ls] for s in (1, 0, 2)])
    return first, second


def _block_moments(state: CollectiveState) -> tuple[np.ndarray, np.ndarray]:
    """(<L_t>, <L_s L_t>) for L in (J_+, J_-, J_z), summed over the blocks."""
    first = np.zeros(3, dtype=complex)   # <J_+>, <J_->, <J_z>
    second = np.zeros((3, 3), dtype=complex)
    for _, rho in state.items():
        bands = spin_bands(rho.shape[0] - 1)
        m, lad = bands["z"].diags[0], bands["plus"].diags[1][:-1]
        lad2 = lad[:-1] * lad[1:]
        d0 = rho.diagonal()
        below, above = rho.diagonal(-1), rho.diagonal(1)
        first += (below @ lad, above @ lad, d0 @ m)
        second += (
            (rho.diagonal(-2) @ lad2, d0[:-1] @ lad**2, below @ (lad * m[1:])),
            (d0[1:] @ lad**2, rho.diagonal(2) @ lad2, above @ (lad * m[:-1])),
            (below @ (lad * m[:-1]), above @ (lad * m[1:]), d0 @ m**2),
        )
    return first, second


def expval(state: CollectiveState, observable: str) -> complex | float:
    """<O> = sum_j tr(rho_j O_j) from the closed-form moments; real for
    Hermitian observables, whose imaginary residue above 1e-8 raises."""
    axes = OBSERVABLES.get(observable) if isinstance(observable, str) else None
    if axes is None:
        raise DomainError(f"unknown observable {observable!r}; choose from {sorted(OBSERVABLES)}")
    first, second = moments(state)
    u = _AXIS_VECTORS[axes[0]]
    value = complex(u @ first if len(axes) == 1 else u @ second @ _AXIS_VECTORS[axes[1]])
    if observable in _HERMITIAN_OBS:
        # an algebra bug gives an O(1) residue; accumulated roundoff from a
        # deep circuit with renormalized conditional branches can reach ~1e-10
        if not abs(value.imag) < 1e-8:
            raise NumericError(f"<{observable}> has imaginary residue {value.imag}")
        return float(value.real)
    return value


def _theta_logs(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The logarithms of the moduli cos(theta/2), sin(theta/2), theta in
    [0, pi], as ``_coherent_rows`` takes them; one set serves every block."""
    return _log_moduli(np.cos(thetas / 2.0).tolist(), np.sin(thetas / 2.0).tolist())


def husimi_grid(
    state: CollectiveState,
    theta_points: np.ndarray,
    phi_points: np.ndarray,
) -> np.ndarray:
    """Q(theta, phi) = sum_j <theta,phi; j| rho_j |theta,phi; j> over active
    blocks, with |theta,phi; j> the spin-j coherent state and theta in
    [0, pi].  Returns a grid of shape (len(theta_points), len(phi_points))
    with values in [0, 1].

    For a ket psi (storage index a = j - m) Q = |A|^2 with A = (R o psi) E,
    R the radial rows and E[a, phi] = e^{-i a phi}, so Q >= 0 by
    construction and rho_j is never formed.  For blocks Q comes from the
    diagonal sums of the module docstring: Q = Re sum_{k>=0} t_k(theta)
    e^{i k phi} with t_0 = s_0 and, as s_{-k} = s_k^* for Hermitian rho,
    t_k = 2 s_k.  The t_k of all blocks add up before one phase product over
    the grid.
    """
    thetas, phis = _reals(theta_points, "husimi theta"), _reals(phi_points, "husimi phi")
    if thetas.size == 0 or phis.size == 0:
        raise DomainError("husimi grid axes must be nonempty")
    if not (((0.0 <= thetas) & (thetas <= np.pi)).all() and np.isfinite(phis).all()):
        raise DomainError("husimi grid axes must be finite, with theta in [0, pi]")
    logs = _theta_logs(thetas)
    if state._ket is not None:
        psi = state._ket[1]
        # the global phase e^{-i c phi} drops out of |A|^2; offsets a - c from
        # psi's largest entry keep the rounding of the phase argument small
        offsets = np.arange(psi.size) - np.argmax(np.abs(psi))
        phase = np.exp(-1j * np.outer(offsets, phis))
        amps = (_coherent_rows(psi.size - 1, logs) * psi) @ phase
        grid = np.square(amps.real) + np.square(amps.imag)
    else:
        grid = _block_husimi(state, logs, phis)
        # written so that a NaN fails this check and the next
        if not grid.min() >= -1e-10:
            raise NumericError(f"husimi value {grid.min()} below zero; state not PSD")
    if not grid.max() <= 1.0 + 1e-10:
        raise NumericError(f"husimi value {grid.max()} above one; trace exceeds one")
    return np.clip(grid, 0.0, 1.0)


def _block_husimi(state: CollectiveState, logs: tuple, phis: np.ndarray) -> np.ndarray:
    blocks = [rho for _, rho in state.items()]
    width = max(map(len, blocks), default=1)
    # t[:, k] as (real, imag) pairs: the k-th diagonal of rho + rho^dagger
    # (the diagonal's real part at k = 0), weighted by r_a r_{a+k}.  Taking the
    # Hermitian part keeps Q = Re v^dagger rho v for any input block.
    t = np.zeros((logs[0].size, width, 2))
    for rho in blocks:
        d = rho.shape[0]
        radial = _coherent_rows(d - 1, logs)
        t[:, 0, 0] += radial**2 @ rho.diagonal().real
        for k in range(1, d):
            band = rho.diagonal(k) + rho.diagonal(-k).conj()
            t[:, k] += (radial[:, :-k] * radial[:, k:]) @ band.view(float).reshape(-1, 2)
    # One phase matrix, the largest block's; the +i phase labels grid points by
    # the Bloch direction: a spin along (theta0, phi0) peaks there.
    phase = np.exp(1j * np.outer(np.arange(width), phis))
    return t[:, :, 0] @ phase.real - t[:, :, 1] @ phase.imag


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _rows_csv(header: str, rows) -> str:
    """CSV text: the header, then one line per row, a float by ``_fmt`` and
    anything else by ``str``."""
    lines = [header]
    lines += [",".join([_fmt(v) if isinstance(v, float) else str(v) for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


def prob_table_csv(table: ProbTable) -> str:
    return _rows_csv("j,m,p", table.entries)


def shot_counts_csv(counts: ShotCounts) -> str:
    return _rows_csv("j,m,count", ((j, m, c) for (j, m), c in counts.counts.items()))


def husimi_csv(thetas: np.ndarray, phis: np.ndarray, grid: np.ndarray) -> str:
    # each axis value is formatted once; per point only q is
    phi_cols = [_fmt(phi) for phi in phis]
    lines = ["theta,phi,q"]
    for theta, row in zip(thetas, grid.tolist()):
        head = _fmt(theta)
        lines += [f"{head},{phi},{_fmt(q)}" for phi, q in zip(phi_cols, row)]
    return "\n".join(lines) + "\n"
