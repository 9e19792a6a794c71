"""Collective depolarizing channel on block-diagonal states.

The channel is rho -> (1 - eps) rho + eps * rho'/tr(rho') with

    rho' = sum_n [ (s+_n rho s-_n + s-_n rho s+_n) / 2 + sz_n rho sz_n ]

over single-particle spin operators (sz = sigma_z / 2).  Although each term
addresses one particle, summing over all n of a permutation-symmetric state
keeps the result block diagonal: a product J_k^(n) |j,m><j,m'| J_l^(n)+ summed
over n lands on the same block and on the j +/- 1 neighbors only.

Decomposing the N-th spin against the remaining N-1 (Clebsch-Gordan series)
collapses every such sum to a closed form that factorizes per matrix element:

    dest[j', m+s, m'+s]  +=  A(N, j -> j') * g(m) * g(m') * rho[j, m, m']

with shift s = +1 for the (+,-) term, -1 for (-,+), 0 for (z,z), and

    A_same = (N/2 + 1) / (2 j (j+1))
    A_up   = (N/2 - j) / (2 (j+1) (2j+1))        destination j+1
    A_down = (N/2 + j + 1) / (2 j (2j+1))        destination j-1

The m factors g are listed in _transition_terms below.  Boundary factors
vanish identically at block edges, so window clipping never loses weight.
One application touches O(N^3) matrix elements in total.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dicke import CollectiveState
from .errors import DomainError, NumericError

__all__ = ["rho_prime", "depolarize"]


@lru_cache(maxsize=256)
def _transition_terms(
    n: int, twoj: int, twoj_min: int, twoj_max: int
) -> tuple[tuple[float, int, float, np.ndarray], ...]:
    """(dest_j, index shift, weight, g vector) for all nine term families of
    source block j.

    The index shift is in storage coordinates (m descending), i.e. dest row =
    src row + shift.  The weight already folds in the 1/2 of the ladder terms.
    """
    j = twoj / 2.0
    m = j - np.arange(twoj + 1)
    half_n = n / 2.0
    terms: list[tuple[float, int, float, np.ndarray]] = []

    def emit(dest_j: float, shift: int, weight: float, g_squared: np.ndarray):
        g = np.sqrt(np.maximum(g_squared, 0.0))
        g.flags.writeable = False
        terms.append((dest_j, shift, weight, g))

    if twoj > 0:
        a = (half_n + 1.0) / (2.0 * j * (j + 1.0))
        emit(j, -1, 0.5 * a, (j - m) * (j + m + 1.0))   # (+,-): both m up
        emit(j, +1, 0.5 * a, (j + m) * (j - m + 1.0))   # (-,+): both m down
        gz = m.copy()
        gz.flags.writeable = False
        terms.append((j, 0, a, gz))                      # (z,z)
    if twoj + 2 <= twoj_max:
        a = (half_n - j) / (2.0 * (j + 1.0) * (2.0 * j + 1.0))
        emit(j + 1, 0, 0.5 * a, (j + m + 1.0) * (j + m + 2.0))
        emit(j + 1, +2, 0.5 * a, (j - m + 1.0) * (j - m + 2.0))
        emit(j + 1, +1, a, (j + m + 1.0) * (j - m + 1.0))
    if twoj - 2 >= twoj_min:
        a = (half_n + j + 1.0) / (2.0 * j * (2.0 * j + 1.0))
        emit(j - 1, -2, 0.5 * a, (j - m) * (j - m - 1.0))
        emit(j - 1, 0, 0.5 * a, (j + m) * (j + m - 1.0))
        emit(j - 1, -1, a, (j + m) * (j - m))
    return tuple(terms)


def rho_prime(state: CollectiveState) -> dict[float, np.ndarray]:
    """Unnormalized channel numerator rho', block by block.

    For any unit-trace state tr(rho') = 3N/4 (per-particle Casimir), which the
    oracle tests confirm; the value is recomputed rather than assumed.
    """
    n = state.ledger.n_particles
    out: dict[float, np.ndarray] = {}
    for j, rho in state.items():
        d_src = rho.shape[0]
        for dest_j, shift, weight, g in _transition_terms(n, d_src - 1, n % 2, n):
            d_dst = int(round(2 * dest_j)) + 1
            lo = max(0, -shift)
            hi = min(d_src, d_dst - shift)
            if hi <= lo:
                continue
            gw = g[lo:hi]
            contrib = (weight * np.outer(gw, gw)) * rho[lo:hi, lo:hi]
            if dest_j not in out:
                out[dest_j] = np.zeros((d_dst, d_dst), dtype=complex)
            out[dest_j][lo + shift : hi + shift, lo + shift : hi + shift] += contrib
    return out


def depolarize(state: CollectiveState, epsilon: float) -> CollectiveState:
    """(1 - eps) rho + eps * rho'/tr(rho'); may activate neighboring blocks."""
    eps = float(epsilon)
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"depolarizing probability must lie in [0, 1], got {epsilon}")
    if eps == 0.0:
        return state
    prime = rho_prime(state)
    total = sum(np.trace(b).real for b in prime.values())
    if not total > 0.0:
        raise NumericError("channel normalization tr(rho') vanished")
    blocks: dict[float, np.ndarray] = {}
    for j, rho in state.items():
        blocks[j] = (1.0 - eps) * rho
    for j, mat in prime.items():
        if j in blocks:
            blocks[j] = blocks[j] + (eps / total) * mat
        else:
            blocks[j] = (eps / total) * mat
    # blocks that stayed exactly zero remain unstored
    blocks = {j: b for j, b in blocks.items() if np.any(b)}
    return CollectiveState(state.ledger, blocks, state.conditional)
