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

``depolarize`` makes one pass over the blocks.  The trace tr(rho') needs only
the block diagonals, sum_j (sum_terms A g(m)^2) . diag(rho_j), at O(2j) per
block, so it is known before any (2j+1)^2 work.  Each output block then
starts as (1 - eps) rho_j, and the nine terms of (eps/tr(rho')) rho' are
added to it in place, the scale riding on the cached O(2j) vectors g and
A g.  ``rho_prime`` runs the same accumulation at scale one.  One application
touches O(N^3) matrix elements in total, and the term cache O(N^2) floats.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dicke import CollectiveState, _real, spin_bands
from .errors import DomainError, NumericError

__all__ = ["rho_prime", "depolarize"]


# One entry per (N, 2j), each O(2j) floats: 1024 hold every block of one
# ledger up to N = 2047, so a channel sweeping the ledger never cycles it out.
@lru_cache(maxsize=1024)
def _transition_terms(
    n: int, twoj: int
) -> tuple[tuple[tuple[float, slice, slice, np.ndarray, np.ndarray], ...], np.ndarray]:
    """The nine term families of source block j for N particles, and the
    trace weights of its rows.

    A term is (dest_j, dest window, source window, g, weight * g) with the g
    factors cut to the source window: dest[w_d, w_d] += (weight * g g^T) *
    rho[w_s, w_s].  The index shift between the windows is in storage
    coordinates (m descending), i.e. dest row = src row + shift, and the
    weight already folds in the 1/2 of the ladder terms.  The trace weights
    sum weight * g^2 over the terms, per source row, so tr(rho') is their dot
    product with the diagonal of rho.  Every array is 1-D and read-only.
    """
    j = twoj / 2.0
    m = spin_bands(twoj)["z"].diags[0]
    half_n = n / 2.0
    terms = []
    trace_weights = np.zeros(twoj + 1)

    def emit(dest_j: float, shift: int, weight: float, g: np.ndarray):
        lo, hi = max(0, -shift), min(twoj + 1, int(round(2 * dest_j)) + 1 - shift)
        if hi <= lo:
            return
        g, wg = g[lo:hi].copy(), weight * g[lo:hi]
        trace_weights[lo:hi] += wg * g
        g.flags.writeable = wg.flags.writeable = False
        terms.append((dest_j, slice(lo + shift, hi + shift), slice(lo, hi), g, wg))

    def ladder(dest_j: float, shift: int, weight: float, g_squared: np.ndarray):
        emit(dest_j, shift, weight, np.sqrt(np.maximum(g_squared, 0.0)))

    if twoj > 0:
        a = (half_n + 1.0) / (2.0 * j * (j + 1.0))
        ladder(j, -1, 0.5 * a, (j - m) * (j + m + 1.0))   # (+,-): both m up
        ladder(j, +1, 0.5 * a, (j + m) * (j - m + 1.0))   # (-,+): both m down
        emit(j, 0, a, m)                                  # (z,z)
    if twoj + 2 <= n:
        a = (half_n - j) / (2.0 * (j + 1.0) * (2.0 * j + 1.0))
        ladder(j + 1, 0, 0.5 * a, (j + m + 1.0) * (j + m + 2.0))
        ladder(j + 1, +2, 0.5 * a, (j - m + 1.0) * (j - m + 2.0))
        ladder(j + 1, +1, a, (j + m + 1.0) * (j - m + 1.0))
    if twoj - 2 >= n % 2:
        a = (half_n + j + 1.0) / (2.0 * j * (2.0 * j + 1.0))
        ladder(j - 1, -2, 0.5 * a, (j - m) * (j - m - 1.0))
        ladder(j - 1, 0, 0.5 * a, (j + m) * (j + m - 1.0))
        ladder(j - 1, -1, a, (j + m) * (j - m))
    trace_weights.flags.writeable = False
    return tuple(terms), trace_weights


def _add_rho_prime(
    state: CollectiveState, out: dict[float, np.ndarray], scale: float = 1.0
) -> dict[float, np.ndarray]:
    """Add scale * rho' block by block into ``out``, in place; a destination
    block not in ``out`` starts at zero.  The scale rides on the O(2j) vector
    weight * g, so it costs no pass over a block."""
    n = state.ledger.n_particles
    for j, rho in state.items():
        for dest_j, dst, src, g, wg in _transition_terms(n, rho.shape[0] - 1)[0]:
            block = out.get(dest_j)
            if block is None:
                d = int(round(2 * dest_j)) + 1
                block = out[dest_j] = np.zeros((d, d), dtype=complex)
            contrib = rho[src, src] * (scale * wg)[:, None]
            contrib *= g
            block[dst, dst] += contrib
    return out


def rho_prime(state: CollectiveState) -> dict[float, np.ndarray]:
    """Unnormalized channel numerator rho', block by block.

    For any unit-trace state tr(rho') = 3N/4 (per-particle Casimir), which the
    oracle tests confirm; ``depolarize`` recomputes it rather than assume it.
    """
    return _add_rho_prime(state, {})


def depolarize(state: CollectiveState, epsilon: float) -> CollectiveState:
    """(1 - eps) rho + eps * rho'/tr(rho') in one pass over the blocks (see
    the module docstring); may activate neighboring blocks."""
    eps = _real(epsilon, "depolarizing probability")
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"depolarizing probability must lie in [0, 1], got {eps}")
    if eps == 0.0:
        return state
    n = state.ledger.n_particles
    total = sum(
        _transition_terms(n, rho.shape[0] - 1)[1] @ rho.diagonal().real
        for _, rho in state.items()
    )
    if not total > 0.0:
        raise NumericError("channel normalization tr(rho') vanished")
    blocks = _add_rho_prime(state, {j: (1.0 - eps) * rho for j, rho in state.items()}, eps / total)
    # blocks that stayed exactly zero remain unstored
    blocks = {j: b for j, b in blocks.items() if np.any(b)}
    return CollectiveState._mixed(state.ledger, blocks, state.conditional)
